package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/namdb/rdmatree/internal/core"
	"github.com/namdb/rdmatree/internal/workload"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests hold the harness
// to: the workload and metric names and the units.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []declaredMetric `json:"end_to_end"`
	PerLayer  []declaredMetric `json:"per_layer"`
}

type declaredMetric struct{ Name, Unit string }

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// smokeOptions is every workload at 1/200 scale, measured for a fraction of
// a second.
func smokeOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload, seed: defaultSeed, seconds: 0.5, trace: trace,
		traceFile: filepath.Join(t.TempDir(), "trace.json"),
		scaleDiv:  200, setups: 2,
	}
}

// checkMetrics requires res to carry exactly the declared metrics, each
// finite and with its declared unit.
func checkMetrics(t *testing.T, res *result, declared []declaredMetric) {
	t.Helper()
	if res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("attempted %d, failed %d: want at least one attempted and none failed", res.Attempted, res.Failed)
	}
	for _, d := range declared {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", d.Name, m.Value)
		}
	}
	if len(res.Metrics) != len(declared) {
		names := map[string]bool{}
		for _, d := range declared {
			names[d.Name] = true
		}
		for name := range res.Metrics {
			if !names[name] {
				t.Errorf("metric %s is printed and not declared in BENCHMARK.json", name)
			}
		}
	}
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloadNames[i])
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			res, err := run(smokeOptions(t, w, false))
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, doc.EndToEnd)
			// End-to-end metrics are compared as ratios: none may be zero.
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			o := smokeOptions(t, w, true)
			res, err := run(o)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, doc.PerLayer)
			if w == "sim-suite" {
				return // traced through simnet's telemetry, no span file
			}
			blob, err := os.ReadFile(o.traceFile)
			if err != nil {
				t.Fatal(err)
			}
			var file struct {
				Layers []string
				Spans  []span
				SelfNS map[string]int64 `json:"self_ns"`
			}
			if err := json.Unmarshal(blob, &file); err != nil {
				t.Fatalf("span file: %v", err)
			}
			if len(file.Spans) == 0 || len(file.Layers) == 0 {
				t.Fatalf("span file has %d spans, %d layers", len(file.Spans), len(file.Layers))
			}
			for i, s := range file.Spans {
				if s.End < s.Start || int(s.Layer) >= len(file.Layers) || int(s.Parent) >= i {
					t.Fatalf("span %d is malformed: %+v", i, s)
				}
			}
		})
	}
}

// TestTracedSelfTimesCoverOpSpans holds the traced tcp-serial run to the
// acceptance criterion: the layers' self times sum to within 10 % of the
// operation spans' total duration.
func TestTracedSelfTimesCoverOpSpans(t *testing.T) {
	log := newSpanLog()
	spec := hostSpecByName("tcp-serial").scaled(200)
	r, err := runHost(spec, defaultSeed, 300e6, 1, log)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("%d operations failed: %s", r.failed, r.firstErr)
	}
	opNS, selfNS := log.opTotals()
	if opNS == 0 || math.Abs(float64(selfNS)/float64(opNS)-1) > 0.10 {
		t.Fatalf("self times sum to %d ns, op spans to %d ns", selfNS, opNS)
	}
	for _, layer := range []string{"op.", "recovered", "fine", "retry.", "tcpnet."} {
		if ns, n := log.selfNS(layer); ns <= 0 || n == 0 {
			t.Errorf("layer %q: %d spans, %d ns self time", layer, n, ns)
		}
	}
}

// TestOracleAgreesWithReference replays one operation stream into the
// harness's array oracle and into core.Reference, the repository's own
// correctness oracle, and requires the same answers.
func TestOracleAgreesWithReference(t *testing.T) {
	const keys = 2000
	gen, err := workload.NewGenerator(workload.Config{
		Mix: workload.Mix{PointPct: 40, RangePct: 20, InsertPct: 40}, DataSize: keys, Selectivity: 0.02, Seed: 7, Clients: 1,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := core.NewReference()
	for i := 0; i < keys; i++ {
		k, v := workload.DataItem(i)
		if err := ref.Insert(k, v); err != nil {
			t.Fatal(err)
		}
	}
	o := newOracle(keys)
	for i := 0; i < 20_000; i++ {
		op := gen.Next()
		switch op.Kind {
		case workload.Insert:
			o.insert(op.Key, op.Value)
			if err := ref.Insert(op.Key, op.Value); err != nil {
				t.Fatal(err)
			}
		case workload.PointQuery:
			vals, _ := ref.Lookup(op.Key)
			if why := o.checkLookup(op.Key, vals); why != "" {
				t.Fatalf("op %d: oracle rejects the reference's lookup of %d: %s", i, op.Key, why)
			}
			if why := o.checkLookupLoose(op.Key, vals[:1]); why != "" {
				t.Fatalf("op %d: loose check rejects the preloaded value alone: %s", i, why)
			}
			if len(vals) > 1 {
				if o.checkLookup(op.Key, vals[1:]) == "" || o.checkLookup(op.Key, append(vals[:len(vals):len(vals)], vals[1])) == "" {
					t.Fatalf("op %d: oracle accepts a wrong value list for %d", i, op.Key)
				}
			}
		case workload.RangeQuery:
			var n int64
			if err := ref.Range(op.Key, op.EndKey, func(uint64, uint64) bool { n++; return true }); err != nil {
				t.Fatal(err)
			}
			if got := o.rangeCount(op.Key, op.EndKey); got != n {
				t.Fatalf("op %d: range [%d,%d]: oracle %d, reference %d", i, op.Key, op.EndKey, got, n)
			}
		}
	}
	if int64(ref.Count()) != keys+o.inserts {
		t.Fatalf("reference holds %d entries, oracle expects %d", ref.Count(), keys+o.inserts)
	}
	// A scan's end key is moved to a key without inserted duplicates.
	for k := uint64(0); k < keys; k++ {
		if e := o.undupedFrom(k); e < k || (o.dups[e] != 0 && e != keys-1) {
			t.Fatalf("undupedFrom(%d) = %d with %d duplicates", k, e, o.dups[e])
		}
	}
}
