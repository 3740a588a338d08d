package pipeline_test

import (
	"net"
	"strings"
	"testing"

	"github.com/namdb/rdmatree/internal/core"
	"github.com/namdb/rdmatree/internal/core/fine"
	"github.com/namdb/rdmatree/internal/deploy"
	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/rdma/direct"
	"github.com/namdb/rdmatree/internal/rdma/faultnet"
	"github.com/namdb/rdmatree/internal/rdma/retry"
	"github.com/namdb/rdmatree/internal/rdma/tcpnet"
)

// verbLog records the verbs posted through an async endpoint, one string
// per doorbell: R(ead) W(rite) C(AS) F(etch-and-add).
type verbLog struct {
	rdma.AsyncEndpoint
	cur    []byte
	rounds []string
}

func (v *verbLog) PostRead(p rdma.RemotePtr, dst []uint64) rdma.Token {
	v.cur = append(v.cur, 'R')
	return v.AsyncEndpoint.PostRead(p, dst)
}

func (v *verbLog) PostWrite(p rdma.RemotePtr, src []uint64) rdma.Token {
	v.cur = append(v.cur, 'W')
	return v.AsyncEndpoint.PostWrite(p, src)
}

func (v *verbLog) PostCAS(p rdma.RemotePtr, old, new uint64) rdma.Token {
	v.cur = append(v.cur, 'C')
	return v.AsyncEndpoint.PostCAS(p, old, new)
}

func (v *verbLog) PostFetchAdd(p rdma.RemotePtr, delta uint64) rdma.Token {
	v.cur = append(v.cur, 'F')
	return v.AsyncEndpoint.PostFetchAdd(p, delta)
}

func (v *verbLog) Flush() {
	v.rounds = append(v.rounds, string(v.cur))
	v.cur = v.cur[:0]
	v.AsyncEndpoint.Flush()
}

// faultCount tallies injected faults by kind.
type faultCount map[string]int

func (f faultCount) CountFault(kind string) { f[kind]++ }

// publishSpec is the preload of the publish tests: even keys 0..2n-2, value
// = key, so odd keys insert without splitting a leaf.
func publishSpec(n int) core.BuildSpec {
	return core.BuildSpec{N: n, At: func(i int) (uint64, uint64) { return 2 * uint64(i), 2 * uint64(i) }}
}

// TestPipelinedInsertVerbSequence pins the write side's fused round: with
// the root cached, a non-splitting pipelined insert is depth fused page
// reads, one lock CAS round, and one round carrying the body WRITE and the
// unlock FAA together — depth + 2 rounds, where separate WRITE and FAA
// rounds would make it depth + 3.
func TestPipelinedInsertVerbSequence(t *testing.T) {
	for name, dial := range map[string]func(t *testing.T) rdma.Endpoint{
		"direct": func(t *testing.T) rdma.Endpoint {
			return direct.New(2, 16<<20, nam.SuperblockBytes).Endpoint()
		},
		"tcpnet": func(t *testing.T) rdma.Endpoint {
			var addrs []string
			for i := 0; i < 2; i++ {
				agent := tcpnet.NewAgent(rdma.NewServer(i, 16<<20, nam.SuperblockBytes), nil)
				l, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				addrs = append(addrs, l.Addr().String())
				go agent.Serve(l)
				t.Cleanup(agent.Close)
			}
			ep := tcpnet.Dial(addrs)
			t.Cleanup(ep.Close)
			return ep
		},
	} {
		t.Run(name, func(t *testing.T) {
			ep := dial(t)
			cat, err := fine.Build(ep, fine.Options{Layout: layout.New(512)}, publishSpec(5000))
			if err != nil {
				t.Fatal(err)
			}
			log := &verbLog{AsyncEndpoint: rdma.Async(ep)}
			pc := fine.NewPipelinedClient(log, rdma.NopEnv{}, cat, 0, 8)
			height, err := pc.Tree().Height(rdma.NopEnv{})
			if err != nil {
				t.Fatal(err)
			}
			pc.Lookup(2, func([]uint64, error) {}) // caches the root
			pc.Drain()
			log.rounds = nil
			var insErr error
			pc.Insert(4001, 7, func(err error) { insErr = err })
			pc.Drain()
			if insErr != nil {
				t.Fatal(insErr)
			}
			want := strings.Repeat("RR ", height) + "C WF"
			if got := strings.Join(log.rounds, " "); got != want {
				t.Fatalf("insert rounds = %q, want %q (height %d)", got, want, height)
			}
		})
	}
}

// gateTrail wraps the endpoint faultnet gates and records one letter per
// gated verb, blocking (lower case, M for READ_MULTI) and posted (upper
// case) alike: position i holds the verb faultnet's Drop ordinal i+1 hits.
type gateTrail struct {
	rdma.AsyncEndpoint
	trail []byte
}

func (g *gateTrail) note(c byte) { g.trail = append(g.trail, c) }

func (g *gateTrail) Read(p rdma.RemotePtr, dst []uint64) error {
	g.note('r')
	return g.AsyncEndpoint.Read(p, dst)
}
func (g *gateTrail) ReadMulti(ps []rdma.RemotePtr, dst [][]uint64) error {
	g.note('M')
	return g.AsyncEndpoint.ReadMulti(ps, dst)
}
func (g *gateTrail) Write(p rdma.RemotePtr, src []uint64) error {
	g.note('w')
	return g.AsyncEndpoint.Write(p, src)
}
func (g *gateTrail) CompareAndSwap(p rdma.RemotePtr, old, new uint64) (uint64, error) {
	g.note('c')
	return g.AsyncEndpoint.CompareAndSwap(p, old, new) //rdmavet:allow caschecked -- decorator pass-through; the caller compares
}
func (g *gateTrail) FetchAdd(p rdma.RemotePtr, delta uint64) (uint64, error) {
	g.note('f')
	return g.AsyncEndpoint.FetchAdd(p, delta)
}
func (g *gateTrail) Alloc(server, n int) (rdma.RemotePtr, error) {
	g.note('a')
	return g.AsyncEndpoint.Alloc(server, n)
}
func (g *gateTrail) PostRead(p rdma.RemotePtr, dst []uint64) rdma.Token {
	g.note('R')
	return g.AsyncEndpoint.PostRead(p, dst)
}
func (g *gateTrail) PostWrite(p rdma.RemotePtr, src []uint64) rdma.Token {
	g.note('W')
	return g.AsyncEndpoint.PostWrite(p, src)
}
func (g *gateTrail) PostCAS(p rdma.RemotePtr, old, new uint64) rdma.Token {
	g.note('C')
	return g.AsyncEndpoint.PostCAS(p, old, new)
}
func (g *gateTrail) PostFetchAdd(p rdma.RemotePtr, delta uint64) rdma.Token {
	g.note('F')
	return g.AsyncEndpoint.PostFetchAdd(p, delta)
}

// publishDriver runs one insert or delete on a client stack over ep and
// reports how often it was acked and with what error.
type publishDriver func(t *testing.T, ep rdma.Endpoint, cat *nam.Catalog, op string, key, value uint64) (acked int, err error)

// pipelinedDriver submits the operation to a pipelined fine client.
func pipelinedDriver(t *testing.T, ep rdma.Endpoint, cat *nam.Catalog, op string, key, value uint64) (acked int, opErr error) {
	pc := fine.NewPipelinedClient(ep, rdma.NopEnv{}, cat, 0, 8)
	if op == "insert" {
		pc.Insert(key, value, func(err error) { acked++; opErr = err })
	} else {
		pc.Delete(key, value, func(found bool, err error) {
			acked++
			opErr = err
			if err == nil && !found {
				t.Error("delete acked without finding its entry")
			}
		})
	}
	pc.Drain()
	return acked, opErr
}

// blockingDriver runs the operation on the serial fine client under
// operation-level recovery, over pol's retry ring when pol is non-nil: the
// blocking driver's publish is one Mem.WriteUnlock.
func blockingDriver(pol *retry.Policy) publishDriver {
	return func(t *testing.T, ep rdma.Endpoint, cat *nam.Catalog, op string, key, value uint64) (int, error) {
		cl, err := deploy.Attach(cat).Client(deploy.ClientOptions{Ep: ep, Env: rdma.NopEnv{}, Retry: pol, Recover: true})
		if err != nil {
			t.Fatal(err)
		}
		if op == "insert" {
			return 1, cl.Serial.Insert(key, value)
		}
		found, err := cl.Serial.Delete(key, value)
		if err == nil && !found {
			t.Error("delete acked without finding its entry")
		}
		return 1, err
	}
}

// TestFusedPublishOutcomes forces each per-completion outcome of the fused
// body WRITE + unlock FAA pair through faultnet's scripted drops, on an
// insert and a delete, each driven by the pipelined engine and by the
// blocking driver — bare, and under the retry ring, which re-posts a
// trailing run (the failed FAA, or the failed pair) itself. In every case
// the operation is acked exactly once, its effect is present exactly once,
// and the page ends unlocked with a consistent body at the version the
// outcome implies: one publish (+2), or — when the WRITE failed but the FAA
// ran, leaving the page unchanged at a new version — the traversal redoing
// its step and publishing again (+4).
func TestFusedPublishOutcomes(t *testing.T) {
	cases := []struct {
		name         string
		dropW, dropF bool
		bump         uint64
	}{
		{"both ok", false, false, 2},
		{"FAA failed", false, true, 2},
		{"both failed", true, true, 2},
		{"WRITE failed, FAA ok", true, false, 4},
	}
	drivers := []struct {
		prefix string
		run    publishDriver
	}{
		{"", pipelinedDriver},
		{"blocking/", blockingDriver(nil)},
		{"blocking+retry/", blockingDriver(&retry.Policy{})},
	}
	const insKey, delKey = 1001, 1000
	for _, d := range drivers {
		for _, op := range []string{"insert", "delete"} {
			for _, tc := range cases {
				t.Run(d.prefix+op+"/"+tc.name, func(t *testing.T) {
					build := func() (rdma.Endpoint, *nam.Catalog) {
						fab := direct.New(2, 16<<20, nam.SuperblockBytes)
						cat, err := fine.Build(fab.Endpoint(), fine.Options{Layout: layout.New(512)}, publishSpec(2000))
						if err != nil {
							t.Fatal(err)
						}
						return fab.Endpoint(), cat
					}
					key, value := uint64(insKey), uint64(77)
					if op == "delete" {
						key, value = delKey, delKey
					}

					// Dry run on a fault-free twin: the ordinals of the
					// publish pair among the verbs faultnet gates.
					dryEp, dryCat := build()
					dry := &gateTrail{AsyncEndpoint: faultnet.New(faultnet.Schedule{}, nil).Endpoint(dryEp, 0)}
					acked, opErr := d.run(t, dry, dryCat, op, key, value)
					if acked != 1 || opErr != nil || !strings.HasSuffix(string(dry.trail), "WF") {
						t.Fatalf("dry run: acked=%d err=%v verbs=%q", acked, opErr, dry.trail)
					}
					w := int64(len(dry.trail) - 1)
					var drop []int64
					if tc.dropW {
						drop = append(drop, w)
					}
					if tc.dropF {
						drop = append(drop, w+1)
					}

					ep, cat := build()
					bare := fine.NewClient(ep, rdma.NopEnv{}, cat, 0)
					leaf, _, err := bare.Tree().FindLeaf(rdma.NopEnv{}, key)
					if err != nil {
						t.Fatal(err)
					}
					ver := make([]uint64, 1)
					if err := ep.Read(leaf, ver); err != nil {
						t.Fatal(err)
					}
					before := ver[0]

					faults := faultCount{}
					fep := faultnet.New(faultnet.Schedule{Drop: drop}, faults).Endpoint(ep, 0)
					acked, opErr = d.run(t, fep, cat, op, key, value)
					if acked != 1 || opErr != nil {
						t.Fatalf("acked %d times, err %v; want once, nil", acked, opErr)
					}
					if faults[faultnet.FaultDrop] != len(drop) {
						t.Fatalf("%d scripted drops fired, want %d", faults[faultnet.FaultDrop], len(drop))
					}

					page := make([]uint64, cat.PageBytes/8)
					if err := ep.Read(leaf, page); err != nil {
						t.Fatal(err)
					}
					if v := layout.BufVersion(page); layout.IsLocked(v) || v != before+tc.bump {
						t.Fatalf("leaf version %d (locked %v), want %d unlocked", v, layout.IsLocked(v), before+tc.bump)
					}
					if _, err := bare.Tree().CheckInvariants(rdma.NopEnv{}); err != nil {
						t.Fatal(err)
					}
					vals, err := bare.Lookup(key)
					if err != nil {
						t.Fatal(err)
					}
					wantN := 1
					if op == "delete" {
						wantN = 0
					}
					n := 0
					for _, v := range vals {
						if v == value {
							n++
						}
					}
					if n != wantN {
						t.Fatalf("lookup(%d) = %v: value %d present %d times, want %d", key, vals, value, n, wantN)
					}
				})
			}
		}
	}
}
