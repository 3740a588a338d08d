package pipeline_test

import (
	"testing"

	"github.com/namdb/rdmatree/internal/core"
	"github.com/namdb/rdmatree/internal/core/fine"
	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/pipeline"
	"github.com/namdb/rdmatree/internal/rdma/direct"
	"github.com/namdb/rdmatree/internal/telemetry"
)

func buildPipelined(tb testing.TB, inflight int) *pipeline.Engine {
	tb.Helper()
	fab := direct.New(4, 256<<20, nam.SuperblockBytes)
	cat, err := fine.Build(fab.Endpoint(), fine.Options{Layout: layout.New(512)},
		core.BuildSpec{N: 100000, At: func(i int) (uint64, uint64) { return uint64(i), uint64(i) }})
	if err != nil {
		tb.Fatal(err)
	}
	return fine.NewClient(fab.Endpoint(), direct.Env{}, cat, 0).Pipeline(inflight)
}

// TestPipelinedLookupZeroAllocs is the steady-state allocation gate of the
// async dataplane: once the engine's slots, scratch pages, and ring buffers
// are warm, submitting and completing pipelined lookups must not allocate.
// The callback must be a pre-bound func value — a closure literal in the
// submission loop would itself allocate per op and has no place on a hot
// path.
func TestPipelinedLookupZeroAllocs(t *testing.T) {
	const n = 100000
	pc := buildPipelined(t, 16)
	bad := 0
	cb := func(vals []uint64, err error) {
		if err != nil || len(vals) != 1 {
			bad++
		}
	}
	for i := 0; i < 64; i++ { // warm slots, scratch, ring capacities
		pc.Lookup(uint64(i*2654435761)%n, cb)
	}
	pc.Drain()
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		pc.Lookup(uint64(i*2654435761)%n, cb)
		i++
	})
	pc.Drain()
	if bad != 0 {
		t.Fatalf("%d lookups failed or returned the wrong number of values", bad)
	}
	if allocs != 0 {
		t.Fatalf("pipelined lookup allocates %v allocs/op in steady state, want 0", allocs)
	}
}

// TestPipelinedInsertSplitHeavyZeroAllocs extends the gate to the write
// side's structural steps: on 128-byte pages nearly every other insert
// splits a leaf, and many split inner nodes or grow the root. Splits run as
// steps over each traversal's preallocated page buffers, so steady-state
// inserts allocate nothing either.
func TestPipelinedInsertSplitHeavyZeroAllocs(t *testing.T) {
	fab := direct.New(4, 64<<20, nam.SuperblockBytes)
	cat, err := fine.Build(fab.Endpoint(), fine.Options{Layout: layout.New(128)},
		core.BuildSpec{N: 1000, At: func(i int) (uint64, uint64) { return uint64(i) << 20, uint64(i) }})
	if err != nil {
		t.Fatal(err)
	}
	c := fine.NewClient(fab.Endpoint(), direct.Env{}, cat, 0)
	pc := c.Pipeline(8)
	bad := 0
	cb := func(err error) {
		if err != nil {
			bad++
		}
	}
	i := uint64(0)
	insert := func() {
		i++
		pc.Insert(i*2654435761%(1000<<20), i, cb)
	}
	for j := 0; j < 2000; j++ { // warm slots, ring capacities, allocator
		insert()
	}
	pc.Drain()
	rec := telemetry.NewRecorder(4)
	c.SetRecorder(rec)
	pc.SetRecorder(rec)
	allocs := testing.AllocsPerRun(2000, insert)
	pc.Drain()
	if bad != 0 {
		t.Fatalf("%d inserts failed", bad)
	}
	if splits := rec.StatsMap()["index"].(map[string]any)["splits"].(int64); splits < 500 {
		t.Fatalf("only %d splits in the measured inserts; the config is not split-heavy", splits)
	}
	if allocs != 0 {
		t.Fatalf("split-heavy pipelined insert allocates %v allocs/op in steady state, want 0", allocs)
	}
}

// BenchmarkPipelinedLookup reports the engine's per-op cost on the direct
// (zero-latency) transport at several in-flight depths. On direct the
// pipeline buys no latency overlap — this measures pure engine overhead
// next to BenchmarkLookup in internal/btree; the latency win is measured on
// the simulated fabric by nambench -exp pipeline.
func BenchmarkPipelinedLookup(b *testing.B) {
	const n = 100000
	for _, inflight := range []int{1, 8, 16} {
		b.Run(map[int]string{1: "inflight=1", 8: "inflight=8", 16: "inflight=16"}[inflight], func(b *testing.B) {
			pc := buildPipelined(b, inflight)
			bad := 0
			cb := func(vals []uint64, err error) {
				if err != nil || len(vals) != 1 {
					bad++
				}
			}
			for i := 0; i < 64; i++ {
				pc.Lookup(uint64(i*2654435761)%n, cb)
			}
			pc.Drain()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pc.Lookup(uint64(i*2654435761)%n, cb)
			}
			pc.Drain()
			b.StopTimer()
			if bad != 0 {
				b.Fatalf("%d lookups failed", bad)
			}
		})
	}
}
