package pipeline_test

import (
	"sync"
	"testing"

	"github.com/namdb/rdmatree/internal/core"
	"github.com/namdb/rdmatree/internal/deploy"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/partition"
	"github.com/namdb/rdmatree/internal/rdma/direct"
	"github.com/namdb/rdmatree/internal/rdma/faultnet"
)

// TestChaosPipelined is the recovery-composition gate, run for each design's
// pipelined client: three clients each keep eight operations in flight
// through the engine while a deterministic fault schedule injects verb
// drops, QP errors, and one scripted server crash/restart (registrations
// survive: Lose=false). A transient fault on one in-flight operation must
// not stall or corrupt its neighbours — the engine retries the affected
// step, re-establishes the QP, or runs the epoch-fenced operation-level
// recovery, while the other slots keep advancing. Afterwards the index must
// verify and every acknowledged insert must be present exactly once (unique
// values are the idempotence tokens of the exactly-once contract). Run
// under -race in CI: the three engines share the fabric and the fault
// state, so data races in the dataplane surface here.
func TestChaosPipelined(t *testing.T) {
	for _, design := range []string{"fine", "coarse", "hybrid"} {
		t.Run(design, func(t *testing.T) { runChaosPipelined(t, design, 512, 3000) })
	}
}

// TestChaosPipelinedSplitHeavy runs the same schedule on 128-byte pages
// over a small preload, so a large share of inserts split leaves, split
// inner nodes and grow the root — every structural step faces the drops,
// QP errors and the crash.
func TestChaosPipelinedSplitHeavy(t *testing.T) {
	for _, design := range []string{"fine", "coarse", "hybrid"} {
		t.Run(design, func(t *testing.T) { runChaosPipelined(t, design, 128, 200) })
	}
}

// deployChaos deploys design on a three-server direct fabric with the spin
// budget a fault-injected deployment needs.
func deployChaos(t *testing.T, design string, pageBytes int, spec core.BuildSpec, keyspace uint64) (*direct.Fabric, *deploy.Deployment) {
	t.Helper()
	const servers = 3
	d, err := nam.ParseDesign(design)
	if err != nil {
		t.Fatal(err)
	}
	fab := direct.New(servers, 64<<20, nam.SuperblockBytes)
	dep, err := deploy.Build(fab, fab.Endpoint(), deploy.Options{
		Design:     d,
		PageBytes:  pageBytes,
		Part:       partition.NewRangeUniform(servers, keyspace),
		SpinBudget: 64,
	}, spec)
	if err != nil {
		t.Fatal(err)
	}
	return fab, dep
}

func runChaosPipelined(t *testing.T, design string, pageBytes, preload int) {
	const (
		clients      = 3
		opsPerClient = 600
		keyspace     = 1 << 16
	)
	step := uint64(keyspace / preload)
	fab, dep := deployChaos(t, design, pageBytes, core.BuildSpec{
		N:         preload,
		At:        func(i int) (uint64, uint64) { return uint64(i) * step, uint64(i) },
		HeadEvery: 6,
	}, keyspace)

	net := faultnet.New(faultnet.Schedule{
		Seed:         7,
		DropRate:     0.02,
		QPErrorEvery: 300,
		Steps: []faultnet.Step{
			// One crash/restart mid-run; the region's registrations survive
			// (Lose=false), so interrupted clients reconnect and resume.
			{AtTick: 4000, Server: 1, DownForTicks: 600},
		},
	}, nil)

	type kv struct{ k, v uint64 }
	acked := make([][]kv, clients)
	var failed [clients]int
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Each engine owns its endpoint; the faultnet decorator is the
			// Reconnector the engine uses to clear QP errors.
			cl, err := dep.Client(deploy.ClientOptions{
				ID: c, Ep: net.Endpoint(fab.Endpoint(), c), Env: direct.Env{}, Inflight: 8,
			})
			if err != nil {
				t.Error(err)
				return
			}
			pc := cl.Pipelined
			// Deterministic multiplicative-hash key walk, disjoint per client.
			for i := 0; i < opsPerClient; i++ {
				k := (uint64(i)*2654435761 + uint64(c)) % keyspace
				if i%4 == 3 {
					pc.Lookup(k, func(vals []uint64, err error) {
						if err != nil {
							failed[c]++
						}
					})
					continue
				}
				// Unique per logical insert: the idempotence token.
				v := uint64(1)<<40 | uint64(c)<<32 | uint64(i)
				pc.Insert(k, v, func(err error) {
					if err != nil {
						failed[c]++
						return
					}
					acked[c] = append(acked[c], kv{k, v})
				})
			}
			pc.Drain()
		}(c)
	}
	wg.Wait()

	// Post-run verification through the fault-free endpoint: release any
	// lock abandoned by an operation that exhausted its recovery budget,
	// then verify the index and sweep the whole keyspace.
	bare := fab.Endpoint()
	if dep.AbandonsLocks() {
		if _, err := dep.RecoverLocks(bare); err != nil {
			t.Fatalf("post-run lock recovery: %v", err)
		}
	}
	if _, err := dep.CheckInvariants(bare); err != nil {
		t.Fatalf("post-run verification: %v", err)
	}
	seen := map[kv]int{}
	if err := dep.Scan(bare, func(k, v uint64) bool {
		seen[kv{k, v}]++
		return true
	}); err != nil {
		t.Fatalf("post-run scan: %v", err)
	}

	nAcked := 0
	for c := range acked {
		nAcked += len(acked[c])
		for _, p := range acked[c] {
			if seen[p] != 1 {
				t.Errorf("client %d: acked insert (%d, %x) present %d times, want 1", c, p.k, p.v, seen[p])
			}
		}
	}
	for p, n := range seen {
		if n > 1 {
			t.Errorf("pair (%d, %x) present %d times", p.k, p.v, n)
		}
	}
	for i := 0; i < preload; i++ {
		if seen[kv{uint64(i) * step, uint64(i)}] != 1 {
			t.Errorf("preload entry (%d, %d) lost", uint64(i)*step, i)
		}
	}
	if nAcked == 0 {
		t.Fatal("no insert was ever acknowledged — the schedule starved the run")
	}
	t.Logf("acked=%d failed=%v", nAcked, failed)
}
