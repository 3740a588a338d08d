package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/namdb/rdmatree/internal/bench"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/rdma/simnet"
	"github.com/namdb/rdmatree/internal/stats"
	"github.com/namdb/rdmatree/internal/workload"
)

// The virtual-time panel: five bench.Run points on simnet with four memory
// servers, always in this order. sim-suite runs it at full size; every host
// workload runs it at panel size after its measured phase, so the five
// virt_* figures (and a protocol change's effect on them) are part of every
// run's output.
const (
	ptFig8Fine = iota
	ptFig8Coarse
	ptFig8Hybrid
	ptRangePipe8
	ptRepl2Insert
	numPoints
)

var pointNames = [numPoints]string{"fig8_fine", "fig8_coarse", "fig8_hybrid", "range_pipe8", "repl2_insert"}

// panelSize sizes the five points.
type panelSize struct {
	fig8Keys, otherKeys                 int
	fig8NS, rangeNS, insertNS, warmupNS int64
	// regionBytes overrides simnet's 256 MB per-server region when non-zero.
	regionBytes int
}

// fullPanel is sim-suite. At --seconds 36 the windows are ISSUE 12's (100,
// 300 and 200 ms virtual); they scale with --seconds so that the measured
// pass plus the three set-up passes take about seconds+5 on the calibration
// box, what a host workload's run takes. Key counts do not scale: tree depth
// must not depend on run length.
func fullPanel(seconds float64) panelSize {
	f := seconds / 36
	return panelSize{
		fig8Keys: 1_000_000, otherKeys: 400_000,
		fig8NS: int64(100e6 * f), rangeNS: int64(300e6 * f), insertNS: int64(200e6 * f),
		warmupNS: 2_000_000,
	}
}

// miniPanel is the fixed-size panel of the host workloads: same points, same
// client counts, ~1/25 of the events, and regions sized to its key counts
// (allocating the default 4 × 256 MB per point would cost more host time
// than simulating it).
var miniPanel = panelSize{
	fig8Keys: 100_000, otherKeys: 40_000,
	fig8NS: 4_000_000, rangeNS: 12_000_000, insertNS: 8_000_000,
	warmupNS: 1_000_000, regionBytes: 32 << 20,
}

// scaledKeys shrinks the panel for the smoke test: fewer keys, and regions to
// match (zeroing the default 1 GB per point would take longer than the test).
func (p panelSize) scaledKeys(div int) panelSize {
	if div > 1 {
		p.fig8Keys /= div
		p.otherKeys /= div
		p.regionBytes = miniPanel.regionBytes
	}
	return p
}

// paperTopology is bench's own topologyFor: 40 clients per compute machine,
// four memory servers two to a machine.
func paperTopology(clients int) nam.Topology {
	machines := (clients + 39) / 40
	return nam.PaperTopology(4, machines, (clients+machines-1)/machines)
}

func (p panelSize) config(point int, seed int64) bench.Config {
	c := bench.Config{PageBytes: pageBytes, HeadEvery: headEvery, Seed: seed, WarmupNS: p.warmupNS}
	if p.regionBytes > 0 {
		c.Tune = func(sc *simnet.Config) { sc.RegionBytes = p.regionBytes }
	}
	switch point {
	case ptFig8Fine, ptFig8Coarse, ptFig8Hybrid:
		c.Design = [...]nam.Design{nam.FineGrained, nam.CoarseGrained, nam.Hybrid}[point]
		c.Topology = paperTopology(120)
		c.DataSize, c.Mix, c.MeasureNS = p.fig8Keys, workload.WorkloadA, p.fig8NS
	case ptRangePipe8:
		c.Design, c.Pipeline = nam.FineGrained, 8
		c.Topology = paperTopology(2)
		c.DataSize, c.Mix, c.Selectivity, c.MeasureNS = p.otherKeys, workload.WorkloadB, 0.001, p.rangeNS
	case ptRepl2Insert:
		c.Design, c.Replicas = nam.FineGrained, 2
		c.Topology = paperTopology(10)
		c.DataSize, c.MeasureNS = p.otherKeys, p.insertNS
		c.Mix = workload.Mix{Name: "insert-only", InsertPct: 100}
	}
	return c
}

// panelRun is one pass over the five points.
type panelRun struct {
	res     [numPoints]bench.Result
	hostS   [numPoints]float64 // wall seconds inside each bench.Run call
	cpuS    [numPoints]float64 // process CPU seconds (user+sys) inside each call
	mallocs uint64
}

func (r *panelRun) ops() (n int64) {
	for i := range r.res {
		n += r.res[i].Ops
	}
	return n
}

func (r *panelRun) hostSeconds() (s float64) {
	for _, h := range r.hostS {
		s += h
	}
	return s
}

func (r *panelRun) cpuSeconds() (s float64) {
	for _, c := range r.cpuS {
		s += c
	}
	return s
}

// opsPerCPUSecond is sim_ops_per_host_s: simulated operations completed in
// the measure windows per second of host CPU time (user+sys of this process)
// spent inside the five bench.Run calls, deployment included. CPU time and
// not wall time because the simulator runs one goroutine at a time: on a
// quiet box the two agree, and on a shared box CPU time leaves out the time a
// neighbour stole from the virtual machine, which can double the wall time
// from one run to the next.
func (r *panelRun) opsPerCPUSecond() float64 { return float64(r.ops()) / r.cpuSeconds() }

// runPanel runs the five points. tweak, when non-nil, edits each config
// before it runs (the traced pass switches telemetry on).
func runPanel(size panelSize, seed int64, tweak func(*bench.Config)) (*panelRun, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	r := &panelRun{}
	for i := 0; i < numPoints; i++ {
		cfg := size.config(i, seed)
		if tweak != nil {
			tweak(&cfg)
		}
		// bench.Run allocates 4 × 256 MB of regions per point. Whether Go
		// zeroes reused spans for them or maps fresh memory depends on when
		// the collector last ran — a coin flip worth 0.45 s per point on the
		// calibration box. Collecting and scavenging before every point,
		// outside the timer, makes every point pay the same.
		debug.FreeOSMemory()
		t0, cpu0 := time.Now(), cpuNS()
		res, err := bench.Run(cfg)
		r.hostS[i], r.cpuS[i] = time.Since(t0).Seconds(), float64(cpuNS()-cpu0)/1e9
		if err != nil {
			return nil, fmt.Errorf("sim point %s: %w", pointNames[i], err)
		}
		r.res[i] = res
	}
	runtime.ReadMemStats(&ms1)
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	return r, nil
}

// panelSetup times deploying the five configurations with 1 ns warm-up and
// measure windows: everything bench.Run does before a client's first
// operation.
func panelSetup(size panelSize, seed int64) (float64, error) {
	size.fig8NS, size.rangeNS, size.insertNS, size.warmupNS = 1, 1, 1, 1
	r, err := runPanel(size, seed, nil)
	if err != nil {
		return 0, err
	}
	return r.hostSeconds(), nil
}

// check counts what is wrong with a panel run: a point that reported an
// error or completed no operation.
func (r *panelRun) check(fail func(format string, args ...any)) {
	for i := range r.res {
		if r.res[i].Err != nil {
			fail("sim point %s: %v", pointNames[i], r.res[i].Err)
		} else if r.res[i].Ops == 0 {
			fail("sim point %s completed no operation", pointNames[i])
		}
	}
}

// checkDeterminism runs the cheapest point of the mini panel twice in this
// process and requires the same operation count: the simulator's results
// must not depend on host scheduling.
func checkDeterminism(seed int64, size panelSize, fail func(format string, args ...any)) {
	var ops [2]int64
	for i := range ops {
		res, err := bench.Run(size.config(ptRangePipe8, seed))
		if err != nil {
			fail("determinism probe: %v", err)
			return
		}
		ops[i] = res.Ops
	}
	if ops[0] != ops[1] {
		fail("determinism probe: %d then %d operations from the same configuration", ops[0], ops[1])
	}
}

// statsQuantile is the q-quantile of a stats.Histogram snapshot with linear
// interpolation inside the bucket holding the rank. Snapshot.Percentile
// returns the bucket's lower edge, which in a 1/8-octave histogram reads the
// same on almost every run; interpolating makes the figure move when the
// distribution does. The bucket edges are stats's documented layout: values
// below 8 one per bucket, then every power of two in 8 equal parts.
func statsQuantile(s stats.Snapshot, q float64) float64 {
	if s.N == 0 {
		return 0
	}
	low := func(idx int) float64 {
		if idx < 8 {
			return float64(idx)
		}
		exp, sub := uint(idx/8), int64(idx%8)
		return float64(int64(1)<<exp + sub<<(exp-3))
	}
	rank := q * float64(s.N)
	var seen float64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			return low(i) + (low(i+1)-low(i))*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return float64(s.MaxV)
}
