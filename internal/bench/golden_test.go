package bench

import (
	"testing"

	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/rdma/simnet"
	"github.com/namdb/rdmatree/internal/workload"
)

// goldenRun is the fingerprint of one Run pinned by TestGoldenVirtualTime:
// operation count, server-NIC traffic and the latency distribution, all in
// virtual time. Any change to the event order the kernel executes, or to a
// cost the fabric charges, moves at least one of these.
type goldenRun struct {
	ops           int64
	netGBps       float64
	latN, latSum  int64
	p50, p99, max int64
	kindSum       [3]int64 // point, range, insert
}

func fingerprint(res Result) goldenRun {
	g := goldenRun{
		ops:     res.Ops,
		netGBps: res.NetGBps,
		latN:    res.Latency.Count(),
		latSum:  res.Latency.Sum(),
		p50:     res.Latency.Percentile(50),
		p99:     res.Latency.Percentile(99),
		max:     res.Latency.Max(),
	}
	for i, k := range []workload.OpKind{workload.PointQuery, workload.RangeQuery, workload.Insert} {
		g.kindSum[i] = res.LatencyByKind[k].Sum()
	}
	return g
}

// goldenConfigs mirror the benchmark's virtual-time panel (the Fig. 8 trio,
// pipelined range scans at 8 in flight, k=2 replicated inserts) at a size
// that runs in about a second.
func goldenConfigs() map[string]Config {
	small := func(c *simnet.Config) { c.RegionBytes = 16 << 20 }
	fig8 := func(d nam.Design) Config {
		return Config{
			Design: d, Topology: nam.PaperTopology(4, 2, 30),
			DataSize: 20_000, PageBytes: 1024, HeadEvery: 32, Mix: workload.WorkloadA,
			WarmupNS: 200_000, MeasureNS: 1_000_000, Seed: 7, Tune: small,
		}
	}
	return map[string]Config{
		"fig8_fine":   fig8(nam.FineGrained),
		"fig8_coarse": fig8(nam.CoarseGrained),
		"fig8_hybrid": fig8(nam.Hybrid),
		"range_pipe8": {
			Design: nam.FineGrained, Pipeline: 8, Topology: nam.PaperTopology(4, 1, 2),
			DataSize: 20_000, PageBytes: 1024, HeadEvery: 32, Mix: workload.WorkloadB, Selectivity: 0.001,
			WarmupNS: 200_000, MeasureNS: 10_000_000, Seed: 7, Tune: small,
		},
		"repl2_insert": {
			Design: nam.FineGrained, Replicas: 2, Topology: nam.PaperTopology(4, 1, 10),
			DataSize: 20_000, PageBytes: 1024, HeadEvery: 32, Mix: workload.Mix{Name: "insert-only", InsertPct: 100},
			WarmupNS: 200_000, MeasureNS: 2_000_000, Seed: 7, Tune: small,
		},
	}
}

// goldenResults are the exact virtual-time results of goldenConfigs. They
// must not move when only the simulator's host-side implementation changes;
// a change that alters virtual time on purpose updates the affected row and
// says why.
var goldenResults = map[string]goldenRun{
	"fig8_fine":   {ops: 2345, netGBps: 7.977216, latN: 2345, latSum: 60099405, p50: 20480, p99: 45056, max: 48931, kindSum: [3]int64{60099405, 0, 0}},
	"fig8_coarse": {ops: 2032, netGBps: 0.24396, latN: 2032, latSum: 59932892, p50: 28672, p99: 40960, max: 47665, kindSum: [3]int64{59932892, 0, 0}},
	"fig8_hybrid": {ops: 2285, netGBps: 2.869634, latN: 2285, latSum: 60141620, p50: 24576, p99: 36864, max: 41557, kindSum: [3]int64{60141620, 0, 0}},
	// A scan whose end key equals a leaf's fence reads the right sibling
	// too, since a split may have moved copies of that key there.
	"range_pipe8": {ops: 2342, netGBps: 0.9389472, latN: 2342, latSum: 20002850, p50: 7168, p99: 13312, max: 22522, kindSum: [3]int64{0, 20002850, 0}},
	// A serial insert locks its leaf on the version its descent validated,
	// without re-reading the leaf first: one READ_MULTI fewer per insert.
	"repl2_insert": {ops: 739, netGBps: 2.21452, latN: 739, latSum: 19979342, p50: 26624, p99: 28672, max: 64267, kindSum: [3]int64{0, 0, 19979342}},
}

// TestGoldenVirtualTime pins the exact virtual-time results of five small
// configurations, so "bit-identical for a seed" is a mechanical check for
// every change to the simulation kernel or the fabric's host-side code.
func TestGoldenVirtualTime(t *testing.T) {
	for name, cfg := range goldenConfigs() {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := fingerprint(res)
		if want := goldenResults[name]; got != want {
			t.Errorf("%s: virtual-time result moved:\n got  %#v\n want %#v\n row  %q: %#v,", name, got, want, name, got)
		}
	}
}
