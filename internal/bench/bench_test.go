package bench

import (
	"errors"
	"testing"

	"github.com/namdb/rdmatree/internal/deploy"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/workload"
)

func pointCfg(design nam.Design, clients int) Config {
	machines := (clients + 39) / 40
	if machines < 1 {
		machines = 1
	}
	return Config{
		Design:    design,
		Topology:  nam.PaperTopology(4, machines, (clients+machines-1)/machines),
		DataSize:  200_000,
		Mix:       workload.WorkloadA,
		HeadEvery: 16,
		Seed:      42,
	}
}

func run(t *testing.T, cfg Config) Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("bench run failed: %v", err)
	}
	if res.Ops == 0 {
		t.Fatal("no operations completed")
	}
	return res
}

func TestPointQueriesAllDesigns(t *testing.T) {
	for _, d := range []nam.Design{nam.CoarseGrained, nam.FineGrained, nam.Hybrid} {
		t.Run(d.String(), func(t *testing.T) {
			res := run(t, pointCfg(d, 40))
			if res.Throughput < 10_000 {
				t.Fatalf("implausibly low throughput %f", res.Throughput)
			}
			if res.Latency.Percentile(50) < 1000 {
				t.Fatalf("implausibly low median latency %d", res.Latency.Percentile(50))
			}
			if res.NetGBps <= 0 {
				t.Fatal("no network traffic measured")
			}
		})
	}
}

func TestThroughputGrowsWithLoadThenSaturates(t *testing.T) {
	// Closed-loop throughput must increase from 8 to 80 clients for every
	// design (fig 7/8 left side).
	for _, d := range []nam.Design{nam.CoarseGrained, nam.FineGrained, nam.Hybrid} {
		lo := run(t, pointCfg(d, 8))
		hi := run(t, pointCfg(d, 80))
		if hi.Throughput <= lo.Throughput {
			t.Fatalf("%v: throughput did not grow with load: %f -> %f",
				d, lo.Throughput, hi.Throughput)
		}
	}
}

func TestLatencyInflatesUnderLoad(t *testing.T) {
	lo := run(t, pointCfg(nam.CoarseGrained, 8))
	hi := run(t, pointCfg(nam.CoarseGrained, 160))
	if hi.Latency.Percentile(50) <= lo.Latency.Percentile(50) {
		t.Fatalf("median latency did not inflate: %d -> %d",
			lo.Latency.Percentile(50), hi.Latency.Percentile(50))
	}
}

func TestSkewHurtsCoarseNotFine(t *testing.T) {
	// Figure 7 vs 8 headline: attribute-value skew collapses the
	// coarse-grained design's throughput but leaves fine-grained intact.
	mk := func(d nam.Design, skew bool) Result {
		cfg := pointCfg(d, 120)
		cfg.SkewedData = skew
		return run(t, cfg)
	}
	cgU, cgS := mk(nam.CoarseGrained, false), mk(nam.CoarseGrained, true)
	fgU, fgS := mk(nam.FineGrained, false), mk(nam.FineGrained, true)
	if cgS.Throughput >= cgU.Throughput*0.9 {
		t.Fatalf("coarse-grained unaffected by skew: %f vs %f", cgS.Throughput, cgU.Throughput)
	}
	ratio := fgS.Throughput / fgU.Throughput
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("fine-grained affected by skew: %f vs %f", fgS.Throughput, fgU.Throughput)
	}
}

func TestRangeQueriesRun(t *testing.T) {
	for _, d := range []nam.Design{nam.CoarseGrained, nam.FineGrained, nam.Hybrid} {
		cfg := pointCfg(d, 40)
		cfg.DataSize = 100_000
		cfg.Mix = workload.WorkloadB
		cfg.Selectivity = 0.001
		cfg.MeasureNS = 50_000_000
		res := run(t, cfg)
		if res.Throughput <= 0 {
			t.Fatalf("%v: no range throughput", d)
		}
	}
}

func TestInsertWorkloadRuns(t *testing.T) {
	for _, d := range []nam.Design{nam.CoarseGrained, nam.FineGrained, nam.Hybrid} {
		cfg := pointCfg(d, 40)
		cfg.Mix = workload.WorkloadD
		res := run(t, cfg)
		if res.Throughput <= 0 {
			t.Fatalf("%v: no mixed-workload throughput", d)
		}
	}
}

func TestHashPartitioningBroadcastsRanges(t *testing.T) {
	mk := func(kind nam.PartitionKind) Result {
		cfg := pointCfg(nam.CoarseGrained, 40)
		cfg.DataSize = 100_000
		cfg.Mix = workload.WorkloadB
		cfg.Selectivity = 0.001
		cfg.PartKind = kind
		cfg.MeasureNS = 50_000_000
		return run(t, cfg)
	}
	rangeRes := mk(nam.PartRange)
	hashRes := mk(nam.PartHash)
	// Hash must traverse all S servers per range query (Table 2) and thus
	// achieve lower throughput.
	if hashRes.Throughput >= rangeRes.Throughput {
		t.Fatalf("hash partitioning not slower for ranges: %f vs %f",
			hashRes.Throughput, rangeRes.Throughput)
	}
}

func TestCoLocationBeatsDistributed(t *testing.T) {
	// Appendix A.3: co-locating compute and memory gives a constant-factor
	// gain from the local share of accesses.
	base := Config{
		Design: nam.CoarseGrained,
		Topology: nam.Topology{
			MemServers: 4, MemServersPerMachine: 1,
			ComputeMachines: 4, ClientsPerMachine: 20,
		},
		DataSize:  200_000,
		Mix:       workload.WorkloadA,
		HeadEvery: 16,
		Seed:      7,
	}
	dist := run(t, base)
	co := base
	co.Topology.CoLocated = true
	coRes := run(t, co)
	if coRes.Throughput <= dist.Throughput {
		t.Fatalf("co-location not faster: %f vs %f", coRes.Throughput, dist.Throughput)
	}
}

func TestDeterministicResults(t *testing.T) {
	cfg := pointCfg(nam.Hybrid, 20)
	r1 := run(t, cfg)
	r2 := run(t, cfg)
	if r1.Ops != r2.Ops || r1.NetGBps != r2.NetGBps {
		t.Fatalf("non-deterministic: %d/%f vs %d/%f", r1.Ops, r1.NetGBps, r2.Ops, r2.NetGBps)
	}
}

func TestValidateDefaults(t *testing.T) {
	cfg := Config{Design: nam.FineGrained, Topology: nam.PaperTopology(2, 1, 4), DataSize: 1000, Mix: workload.WorkloadA}
	if err := (&cfg).Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.PageBytes != 1024 || cfg.WarmupNS == 0 || cfg.MeasureNS == 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	bad := Config{Design: nam.FineGrained, Topology: nam.PaperTopology(2, 1, 4), Mix: workload.WorkloadA}
	if err := (&bad).Validate(); err == nil {
		t.Fatal("zero DataSize accepted")
	}
}

func TestPerKindLatency(t *testing.T) {
	cfg := pointCfg(nam.FineGrained, 40)
	cfg.Mix = workload.WorkloadD
	res := run(t, cfg)
	pts := res.LatencyByKind[workload.PointQuery]
	ins := res.LatencyByKind[workload.Insert]
	if pts.Count() == 0 || ins.Count() == 0 {
		t.Fatalf("per-kind histograms empty: points=%d inserts=%d", pts.Count(), ins.Count())
	}
	if res.LatencyByKind[workload.RangeQuery].Count() != 0 {
		t.Fatal("workload D recorded range queries")
	}
	// Inserts pay more verbs than lookups on the one-sided design.
	if ins.Mean() <= pts.Mean() {
		t.Fatalf("insert latency (%f) not above point latency (%f)", ins.Mean(), pts.Mean())
	}
}

// TestCombinations runs one small point for each combination the
// deployment builder adds beyond the fine-grained serial client: replication
// of every design and of the cached and legacy read paths, and pipelining
// of every design.
func TestCombinations(t *testing.T) {
	cases := []struct {
		name   string
		design nam.Design
		edit   func(*Config)
	}{
		{"coarse k=2", nam.CoarseGrained, func(c *Config) { c.Replicas = 2 }},
		{"hybrid k=2", nam.Hybrid, func(c *Config) { c.Replicas = 2 }},
		{"fine k=2 cached", nam.FineGrained, func(c *Config) { c.Replicas, c.CachePages = 2, 256 }},
		{"fine k=2 legacy", nam.FineGrained, func(c *Config) { c.Replicas, c.LegacyReads = 2, true }},
		{"coarse pipelined", nam.CoarseGrained, func(c *Config) { c.Pipeline = 8 }},
		{"hybrid pipelined", nam.Hybrid, func(c *Config) { c.Pipeline = 8 }},
		{"hybrid pipelined adaptive", nam.Hybrid, func(c *Config) { c.Pipeline, c.Traverse = 8, "adaptive" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := pointCfg(tc.design, 8)
			cfg.DataSize = 20_000
			cfg.Mix = workload.WorkloadD
			tc.edit(&cfg)
			res := run(t, cfg)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
		})
	}
}

// TestPipelinedReplicatedRejected pins the deployment builder's refusal of
// pipelined clients on a replicated deployment, as Run reports it.
func TestPipelinedReplicatedRejected(t *testing.T) {
	cfg := pointCfg(nam.FineGrained, 4)
	cfg.DataSize, cfg.Replicas, cfg.Pipeline = 5_000, 2, 8
	if _, err := Run(cfg); !errors.Is(err, deploy.ErrPipelinedReplicated) {
		t.Fatalf("Run = %v, want deploy.ErrPipelinedReplicated", err)
	}
}
