package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/stats"
	"github.com/namdb/rdmatree/internal/workload"
)

// PipelineBaselinePath is where expPipeline writes its machine-readable
// baseline; nambench -regress re-runs the experiment against it.
var PipelineBaselinePath = "BENCH_pipeline.json"

// MinPipelineSpeedup is the absolute floor the pipelined dataplane must
// clear: point-lookup throughput at PipelineGateDepth operations in flight
// must be at least this multiple of the serial fused client on the same
// fabric. Checked when the baseline is generated and again by the
// regression gate.
const MinPipelineSpeedup = 3.0

// PipelineGateDepth is the in-flight depth the speedup floor is measured at.
const PipelineGateDepth = 16

// MaxLatencyRatioAt1 bounds what the engine costs an operation: at one
// operation in flight, point-lookup mean latency may exceed the serial fused
// client's by at most this factor. Checked with the speedup floor.
const MaxLatencyRatioAt1 = 1.05

// pipelineInflights is the sweep of in-flight depths per workload panel.
var pipelineInflights = []int{1, 2, 4, 8, 16, 32}

// pipelineClients pins the client count of the pipeline experiment. The
// pipeline is a per-client latency-overlap optimization, so it is measured
// in the latency-exposed regime: few clients, far from the machine-NIC
// saturation where closed-loop serial clients already aggregate enough
// parallelism to fill the wire (at high client counts both modes converge
// on the same bandwidth ceiling and the sweep would measure the NIC, not
// the dataplane).
const pipelineClients = 2

// PipelinePoint is one measured point of the pipeline sweep.
type PipelinePoint struct {
	// Inflight is the engine's slot count; 0 marks the serial fused client.
	Inflight         int     `json:"inflight"`
	ThroughputOpsSec float64 `json:"throughput_ops_sec"`
	MeanLatencyNS    float64 `json:"mean_latency_ns"`
	P50LatencyNS     int64   `json:"p50_latency_ns"`
	P99LatencyNS     int64   `json:"p99_latency_ns"`
	// OpsInFlightAvg is the average operations in flight per scheduling
	// round (telemetry gauge); 0 for serial runs.
	OpsInFlightAvg float64 `json:"ops_in_flight_avg"`
	// DoorbellCoalescing is verbs per doorbell on the non-blocking surface
	// (cross-op batching); 0 for serial runs, rendered as n/a.
	DoorbellCoalescing float64 `json:"doorbell_coalescing"`
	// Speedup is this point's throughput over the panel's serial baseline.
	Speedup float64 `json:"throughput_speedup_vs_serial"`
}

// PipelinePanel is one workload's sweep.
type PipelinePanel struct {
	Workload string          `json:"workload"`
	Serial   PipelinePoint   `json:"serial"`
	Points   []PipelinePoint `json:"points"`
}

// PipelineReport is the BENCH_pipeline.json payload. The scale travels in
// the JSON so the regression gate re-runs at the baseline's own shape.
type PipelineReport struct {
	DataSize  int             `json:"data_size"`
	Clients   int             `json:"clients"`
	PageBytes int             `json:"page_bytes"`
	HeadEvery int             `json:"head_every"`
	Inflights []int           `json:"inflights"`
	Panels    []PipelinePanel `json:"panels"`
	// GateSpeedup is point-lookup throughput at PipelineGateDepth in flight
	// over the serial fused client — the metric under the MinPipelineSpeedup
	// floor.
	GateSpeedup float64 `json:"gate_point_speedup_at_16"`
	// GateLatencyRatio is point-lookup mean latency at one operation in
	// flight over the serial fused client's — the metric under the
	// MaxLatencyRatioAt1 ceiling.
	GateLatencyRatio float64 `json:"gate_point_latency_ratio_at_1"`
}

// gateFailures checks rep against the speedup floor and the latency ceiling.
func (rep PipelineReport) gateFailures() []string {
	var out []string
	if rep.GateSpeedup < MinPipelineSpeedup {
		out = append(out, fmt.Sprintf("point-lookup speedup %.2fx at %d in flight is below the %.1fx floor",
			rep.GateSpeedup, PipelineGateDepth, MinPipelineSpeedup))
	}
	if rep.GateLatencyRatio > MaxLatencyRatioAt1 {
		out = append(out, fmt.Sprintf("point-lookup mean latency at 1 in flight is %.3fx the serial client's, above the %.2fx ceiling",
			rep.GateLatencyRatio, MaxLatencyRatioAt1))
	}
	return out
}

// pipelinePanels enumerates workloads A-D. B runs range queries (which the
// engine executes serially between drains — the panel quantifies that the
// pipeline does not hurt scan-heavy mixes); C and D add 5% / 50% inserts,
// exercising the locking and split paths under in-flight concurrency.
func pipelinePanels(sc Scale) []wlPanel {
	return []wlPanel{
		{"Workload A (100% point)", workload.WorkloadA, 0},
		{"Workload B (100% range, Sel=0.001)", workload.WorkloadB, 0.001},
		{"Workload C (95% point, 5% insert)", workload.WorkloadC, 0},
		{"Workload D (50% point, 50% insert)", workload.WorkloadD, 0},
	}
}

// runPipelinePoint executes one point; inflight 0 selects the serial client.
func runPipelinePoint(sc Scale, clients, dataSize int, p wlPanel, inflight int) (PipelinePoint, error) {
	cfg := baseConfig(nam.FineGrained, sc, clients)
	cfg.DataSize = dataSize
	cfg.Mix = p.mix
	cfg.Selectivity = p.sel
	cfg.Pipeline = inflight
	cfg.Telemetry = true
	if p.mix.RangePct > 0 {
		cfg.MeasureNS = sc.MeasureRangeNS
	}
	res, err := Run(cfg)
	if err != nil {
		return PipelinePoint{}, err
	}
	pt := PipelinePoint{
		Inflight:         inflight,
		ThroughputOpsSec: res.Throughput,
		MeanLatencyNS:    res.Latency.Snapshot().Mean(),
		P50LatencyNS:     res.Latency.Percentile(50),
		P99LatencyNS:     res.Latency.Percentile(99),
	}
	if rec := res.Telemetry; rec != nil && inflight > 0 {
		// The serial client's only doorbells are its publish pairs.
		pt.OpsInFlightAvg = rec.AvgInflight()
		pt.DoorbellCoalescing = rec.CoalescingRatio()
	}
	return pt, nil
}

// RunPipeline executes the async-dataplane experiment: for each workload
// panel, the serial fused client and the pipelined engine at every in-flight
// depth, on the simulated fabric at fixed low concurrency.
func RunPipeline(sc Scale) (PipelineReport, error) {
	return runPipelineAt(sc, pipelineClients, sc.DataSize)
}

func runPipelineAt(sc Scale, clients, dataSize int) (PipelineReport, error) {
	rep := PipelineReport{
		DataSize:  dataSize,
		Clients:   clients,
		PageBytes: 1024,
		HeadEvery: 32,
		Inflights: pipelineInflights,
	}
	for _, panel := range pipelinePanels(sc) {
		pp := PipelinePanel{Workload: panel.name}
		serial, err := runPipelinePoint(sc, clients, dataSize, panel, 0)
		if err != nil {
			return rep, fmt.Errorf("pipeline/%s/serial: %w", panel.name, err)
		}
		pp.Serial = serial
		for _, inflight := range pipelineInflights {
			pt, err := runPipelinePoint(sc, clients, dataSize, panel, inflight)
			if err != nil {
				return rep, fmt.Errorf("pipeline/%s/inflight=%d: %w", panel.name, inflight, err)
			}
			if serial.ThroughputOpsSec > 0 {
				pt.Speedup = pt.ThroughputOpsSec / serial.ThroughputOpsSec
			}
			pp.Points = append(pp.Points, pt)
			if panel.mix == workload.WorkloadA && inflight == PipelineGateDepth {
				rep.GateSpeedup = pt.Speedup
			}
			if panel.mix == workload.WorkloadA && inflight == 1 && serial.MeanLatencyNS > 0 {
				rep.GateLatencyRatio = pt.MeanLatencyNS / serial.MeanLatencyNS
			}
		}
		rep.Panels = append(rep.Panels, pp)
	}
	return rep, nil
}

// expPipeline is the nambench surface of RunPipeline: it renders the sweep
// tables, enforces the speedup floor, and writes the machine-readable
// baseline to PipelineBaselinePath.
func expPipeline(w io.Writer, sc Scale) error {
	rep, err := RunPipeline(sc)
	if err != nil {
		return err
	}
	for _, panel := range rep.Panels {
		thr := &stats.Series{Name: "ops/s"}
		lat := &stats.Series{Name: "mean latency (ns)"}
		p99 := &stats.Series{Name: "p99 (ns)"}
		inf := &stats.Series{Name: "ops in flight (avg)"}
		dcr := &stats.Series{Name: "verbs per doorbell"}
		spd := &stats.Series{Name: "speedup vs serial"}
		for _, pt := range append([]PipelinePoint{panel.Serial}, panel.Points...) {
			x := float64(pt.Inflight)
			thr.Append(x, pt.ThroughputOpsSec)
			lat.Append(x, pt.MeanLatencyNS)
			p99.Append(x, float64(pt.P99LatencyNS))
			inf.Append(x, pt.OpsInFlightAvg)
			dcr.Append(x, pt.DoorbellCoalescing)
			spd.Append(x, pt.Speedup)
		}
		fmt.Fprintf(w, "%s (%d clients; x: 0 = serial fused client, else engine slots)\n", panel.Workload, rep.Clients)
		fmt.Fprintln(w, stats.Table("in flight", "value", thr, lat, p99, inf, dcr, spd))
		fmt.Fprintf(w, "serial column: ops in flight 0, doorbell coalescing n/a (blocking client)\n\n")
	}
	fmt.Fprintf(w, "point-lookup speedup at %d in flight: %.2fx (floor %.1fx)\n",
		PipelineGateDepth, rep.GateSpeedup, MinPipelineSpeedup)
	fmt.Fprintf(w, "point-lookup mean latency at 1 in flight: %.3fx serial (ceiling %.2fx)\n",
		rep.GateLatencyRatio, MaxLatencyRatioAt1)
	if f := rep.gateFailures(); len(f) > 0 {
		return fmt.Errorf("pipeline: %s", strings.Join(f, "; "))
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(PipelineBaselinePath, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("pipeline: writing baseline: %w", err)
	}
	fmt.Fprintf(w, "wrote %s\n", PipelineBaselinePath)
	return nil
}

// RegressPipeline is the CI gate over BENCH_pipeline.json: it re-runs the
// sweep at the baseline's recorded scale and fails when throughput fell (or
// latency grew) more than RegressTolerance on any panel's serial or gated
// pipelined point, or when the absolute speedup floor is no longer met.
func RegressPipeline(w io.Writer, baselinePath string) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("regress: reading baseline: %w", err)
	}
	var base PipelineReport
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("regress: parsing %s: %w", baselinePath, err)
	}
	if base.DataSize <= 0 || base.Clients <= 0 {
		return fmt.Errorf("regress: %s carries no scale (data_size=%d clients=%d)", baselinePath, base.DataSize, base.Clients)
	}
	sc := FullScale
	sc.DataSize = base.DataSize
	got, err := runPipelineAt(sc, base.Clients, base.DataSize)
	if err != nil {
		return fmt.Errorf("regress: re-running pipeline: %w", err)
	}

	type gate struct {
		name               string
		baseline, measured float64
		higherIsBetter     bool
	}
	regressed := func(g gate) bool {
		if g.baseline <= 0 {
			return false
		}
		if g.higherIsBetter {
			return g.measured < g.baseline*(1-RegressTolerance)
		}
		return g.measured > g.baseline*(1+RegressTolerance)
	}
	delta := func(g gate) float64 {
		if g.baseline <= 0 {
			return 0
		}
		return 100 * (g.measured - g.baseline) / g.baseline
	}

	var gates []gate
	gatedPoint := func(pts []PipelinePoint) PipelinePoint {
		for _, pt := range pts {
			if pt.Inflight == PipelineGateDepth {
				return pt
			}
		}
		return PipelinePoint{}
	}
	for i, bp := range base.Panels {
		if i >= len(got.Panels) {
			break
		}
		gp := got.Panels[i]
		gates = append(gates,
			gate{bp.Workload + "/serial/ops_sec", bp.Serial.ThroughputOpsSec, gp.Serial.ThroughputOpsSec, true},
			gate{bp.Workload + "/serial/mean_latency_ns", bp.Serial.MeanLatencyNS, gp.Serial.MeanLatencyNS, false},
		)
		bpt, gpt := gatedPoint(bp.Points), gatedPoint(gp.Points)
		name := fmt.Sprintf("%s/inflight=%d", bp.Workload, PipelineGateDepth)
		gates = append(gates,
			gate{name + "/ops_sec", bpt.ThroughputOpsSec, gpt.ThroughputOpsSec, true},
			gate{name + "/mean_latency_ns", bpt.MeanLatencyNS, gpt.MeanLatencyNS, false},
		)
	}

	var failures []string
	fmt.Fprintf(w, "pipeline regression gate vs %s (data_size=%d clients=%d, tolerance %.0f%%)\n",
		baselinePath, base.DataSize, base.Clients, 100*RegressTolerance)
	for _, g := range gates {
		verdict := "ok"
		if regressed(g) {
			verdict = "REGRESSED"
			failures = append(failures, fmt.Sprintf("%s: baseline %.2f, observed %.2f (%+.2f%%)",
				g.name, g.baseline, g.measured, delta(g)))
		}
		fmt.Fprintf(w, "  %-58s baseline %14.2f  measured %14.2f  %+7.2f%%  %s\n",
			g.name, g.baseline, g.measured, delta(g), verdict)
	}
	fmt.Fprintf(w, "  %-58s floor    %14.2f  measured %14.2f\n",
		fmt.Sprintf("point speedup at %d in flight", PipelineGateDepth), MinPipelineSpeedup, got.GateSpeedup)
	fmt.Fprintf(w, "  %-58s ceiling  %14.2f  measured %14.3f\n",
		"point latency at 1 in flight / serial", MaxLatencyRatioAt1, got.GateLatencyRatio)
	failures = append(failures, got.gateFailures()...)
	if len(failures) > 0 {
		msg := fmt.Sprintf("regress: %d pipeline metrics failed over %s:", len(failures), baselinePath)
		for _, f := range failures {
			msg += "\n  " + f
		}
		msg += "\n(if intentional, regenerate with `nambench -exp pipeline`)"
		return fmt.Errorf("%s", msg)
	}
	fmt.Fprintln(w, "pipeline regression gate passed")
	return nil
}
