package retry_test

import (
	"errors"
	"strings"
	"testing"

	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/rdma/direct"
	"github.com/namdb/rdmatree/internal/rdma/faultnet"
	"github.com/namdb/rdmatree/internal/rdma/retry"
)

// counters tallies the policy's retry and reconnect events.
type counters struct{ retries, reconnects int }

func (c *counters) CountRetry()     { c.retries++ }
func (c *counters) CountReconnect() { c.reconnects++ }

// wordAt is the i-th test word on server s, past the reserved superblock.
func wordAt(s, i int) rdma.RemotePtr { return rdma.MakePtr(s, 64+8*uint64(i)) }

// asyncOver wraps a two-server direct fabric in sched's faults and the retry
// ring, returning the ring's post/poll surface and the fabric.
func asyncOver(t testing.TB, sched faultnet.Schedule, p *retry.Policy) (rdma.AsyncEndpoint, *direct.Fabric) {
	t.Helper()
	fab := direct.New(2, 1<<16, 64)
	ep := retry.Wrap(faultnet.New(sched, nil).Endpoint(fab.Endpoint(), 0), p)
	a, ok := ep.(rdma.AsyncEndpoint)
	if !ok {
		t.Fatal("retry.Wrap hid the inner endpoint's post/poll surface")
	}
	return a, fab
}

// TestWrapForwardsAsyncExactly pins when the ring has Post/Flush/Poll: over
// an endpoint that has them, and never over one that has only blocking
// verbs (so rdma.Async's adapter is never picked up silently).
func TestWrapForwardsAsyncExactly(t *testing.T) {
	fab := direct.New(1, 1<<16, 64)
	if _, ok := retry.Wrap(fab.Endpoint(), &retry.Policy{}).(rdma.AsyncEndpoint); !ok {
		t.Error("Wrap over direct has no post/poll surface")
	}
	blocking := struct{ rdma.Endpoint }{fab.Endpoint()}
	if _, ok := retry.Wrap(blocking, &retry.Policy{}).(rdma.AsyncEndpoint); ok {
		t.Error("Wrap over a blocking-only endpoint grew a post/poll surface")
	}
}

// TestAsyncOutcomes forces each failure pattern of a posted batch through
// faultnet on direct. The batch is a publish pair on server 0 — a WRITE of
// word 0, then a FETCH_AND_ADD of word 1 — and a READ of word 0 on server
// 1. A trailing run of transient failures on a server is re-posted in order
// and completes; a failure with a success behind it on its server is
// delivered as is; a QP error is healed by a reconnect before the re-post;
// a run that keeps failing is delivered after MaxAttempts rounds.
func TestAsyncOutcomes(t *testing.T) {
	cases := []struct {
		name  string
		sched faultnet.Schedule
		// Per-verb outcome wanted (nil: ok) and the words the batch leaves.
		errW, errF         string
		word0, word1       uint64
		retries, reconnect int
	}{
		{name: "clean", word0: 7, word1: 1},
		{name: "trailing FAA retried", sched: faultnet.Schedule{Drop: []int64{2}}, word0: 7, word1: 1, retries: 1},
		{name: "trailing pair retried", sched: faultnet.Schedule{Drop: []int64{1, 2}}, word0: 7, word1: 1, retries: 1},
		{name: "other server's failure retried alone", sched: faultnet.Schedule{Drop: []int64{3}}, word0: 7, word1: 1, retries: 1},
		{name: "non-trailing WRITE delivered", sched: faultnet.Schedule{Drop: []int64{1}}, errW: "dropped", word0: 0, word1: 1},
		{name: "QP error reconnected",
			sched: faultnet.Schedule{Steps: []faultnet.Step{{AtTick: 2, Server: 0, DownForTicks: 3}}},
			word0: 7, word1: 1, retries: 1, reconnect: 1},
		{name: "budget exhausted", sched: faultnet.Schedule{Drop: []int64{2, 4, 5, 6}},
			errF: "4 attempts exhausted", word0: 7, word1: 0, retries: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cnt := &counters{}
			a, fab := asyncOver(t, tc.sched, &retry.Policy{MaxAttempts: 4, Counters: cnt})
			src := []uint64{7}
			dst := make([]uint64, 1)
			toks := []rdma.Token{
				a.PostWrite(wordAt(0, 0), src),
				a.PostFetchAdd(wordAt(0, 1), 1),
				a.PostRead(wordAt(1, 0), dst),
			}
			a.Flush()
			comps := a.Poll(nil)
			if len(comps) != len(toks) {
				t.Fatalf("%d completions for %d posted verbs", len(comps), len(toks))
			}
			for i, c := range comps {
				if c.Token != toks[i] || c.Token != rdma.Token(i) {
					t.Fatalf("completion %d carries token %d, posted as %d", i, c.Token, toks[i])
				}
			}
			check := func(verb string, err error, want string) {
				t.Helper()
				switch {
				case want == "" && err != nil:
					t.Errorf("%s failed: %v", verb, err)
				case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
					t.Errorf("%s = %v, want an error naming %q", verb, err, want)
				case want != "" && !errors.Is(err, rdma.ErrTimeout):
					t.Errorf("%s = %v, want it to wrap rdma.ErrTimeout", verb, err)
				}
			}
			check("WRITE", comps[0].Err, tc.errW)
			check("FAA", comps[1].Err, tc.errF)
			check("READ", comps[2].Err, "")
			r := fab.Server(0).Region
			if w0, w1 := r.Load(wordAt(0, 0).Offset()), r.Load(wordAt(0, 1).Offset()); w0 != tc.word0 || w1 != tc.word1 {
				t.Errorf("server 0 words = %d, %d; want %d, %d", w0, w1, tc.word0, tc.word1)
			}
			if cnt.retries != tc.retries || cnt.reconnects != tc.reconnect {
				t.Errorf("%d retries, %d reconnects; want %d, %d", cnt.retries, cnt.reconnects, tc.retries, tc.reconnect)
			}
			// The next batch starts where the tokens left off.
			if tok := a.PostRead(wordAt(1, 0), dst); tok != 3 {
				t.Errorf("next token %d, want 3", tok)
			}
			a.Poll(nil)
		})
	}
}

// FuzzRetryAsync posts a batch of verbs described by ops through the retry
// ring over faultnet, and drop's bits pick the verb attempts (retries
// included) that fail. Every posted token must complete exactly once, in
// posting order, and memory must end as a sequential replay of the verbs
// that completed without error leaves it — with the same READ results and
// prior values — which holds only if re-posting never reordered a server's
// verbs.
func FuzzRetryAsync(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x05, 0x0b}, uint64(0))
	f.Add([]byte{0x01, 0x02, 0x05, 0x0b}, uint64(0b0110))
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07}, uint64(0xf0f0))
	f.Add([]byte{0x03, 0x0b, 0x13, 0x1b, 0x07, 0x0f}, ^uint64(0))
	f.Fuzz(func(t *testing.T, ops []byte, drop uint64) {
		if len(ops) > 32 {
			ops = ops[:32]
		}
		var sched faultnet.Schedule
		for i := 0; i < 64; i++ {
			if drop&(1<<i) != 0 {
				sched.Drop = append(sched.Drop, int64(i+1))
			}
		}
		a, fab := asyncOver(t, sched, &retry.Policy{MaxAttempts: 3})
		type verb struct {
			op   byte
			p    rdma.RemotePtr
			a, b uint64
			buf  []uint64
			tok  rdma.Token
		}
		verbs := make([]verb, len(ops))
		for i, b := range ops {
			v := &verbs[i]
			v.op, v.p = b&3, wordAt(int(b>>2)&1, int(b>>3)&3)
			v.a, v.b = uint64(b>>5), uint64(i)
			v.buf = []uint64{v.b}
			switch v.op {
			case 0:
				v.tok = a.PostRead(v.p, v.buf)
			case 1:
				v.tok = a.PostWrite(v.p, v.buf)
			case 2:
				v.tok = a.PostCAS(v.p, v.a, v.b)
			default:
				v.tok = a.PostFetchAdd(v.p, 1)
			}
		}
		a.Flush()
		comps := a.Poll(nil)
		if len(comps) != len(verbs) {
			t.Fatalf("%d completions for %d posted verbs", len(comps), len(verbs))
		}
		ref := map[rdma.RemotePtr]uint64{}
		for i, c := range comps {
			v := &verbs[i]
			if c.Token != v.tok {
				t.Fatalf("completion %d carries token %d, posted as %d", i, c.Token, v.tok)
			}
			if c.Err != nil {
				if !rdma.IsTransient(c.Err) {
					t.Fatalf("verb %d failed permanently: %v", i, c.Err)
				}
				continue
			}
			switch old := ref[v.p]; v.op {
			case 0:
				if v.buf[0] != old {
					t.Fatalf("READ %d saw %d, sequential replay %d", i, v.buf[0], old)
				}
			case 1:
				ref[v.p] = v.buf[0]
			case 2:
				if c.Val != old {
					t.Fatalf("CAS %d saw %d, sequential replay %d", i, c.Val, old)
				}
				if old == v.a {
					ref[v.p] = v.b
				}
			default:
				if c.Val != old {
					t.Fatalf("FAA %d saw %d, sequential replay %d", i, c.Val, old)
				}
				ref[v.p] = old + 1
			}
		}
		for s := 0; s < 2; s++ {
			for w := 0; w < 4; w++ {
				p := wordAt(s, w)
				if got := fab.Server(s).Region.Load(p.Offset()); got != ref[p] {
					t.Fatalf("server %d word %d = %d, sequential replay %d", s, w, got, ref[p])
				}
			}
		}
	})
}
