// Command benchmark is the repository's benchmark (ISSUE 12): one command
// runs one workload against the public functions of the index packages,
// checks every result, and prints every metric by name with its unit, the
// last line being the machine-readable result. See README.md.
//
//	bash benchmark/run.sh --workload tcp-serial --seed 20190630 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/namdb/rdmatree/internal/workload"
)

const defaultSeed = 20190630

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// firstErr describes the first failed operation, for standard error.
	firstErr string
}

// failf counts one failed operation.
func (r *result) failf(format string, args ...any) {
	r.Failed++
	if r.firstErr == "" {
		r.firstErr = fmt.Sprintf(format, args...)
	}
}

// absorb adds a host pass's operation counts to the result.
func (r *result) absorb(run *hostRun) {
	r.Attempted += run.attempted
	r.Failed += run.failed
	if r.firstErr == "" {
		r.firstErr = run.firstErr
	}
}

// options are the knobs of one run; the smoke test shrinks them.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// traceFile is where the traced run writes its spans.
	traceFile string
	// scaleDiv divides key counts and batch sizes (1 in real runs).
	scaleDiv int
	// setups is the number of cold set-ups per run.
	setups int
}

var workloadNames = []string{"tcp-serial", "tcp-pipe8", "direct-hybrid", "sim-suite"}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "one of "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed: same seed, same operations")
	flag.Float64Var(&o.seconds, "seconds", 30, "how long the measured phase runs")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced run and the isolated layer drivers")
	flag.StringVar(&o.traceFile, "tracefile", "", "span file of the traced run (default .bench_build/trace-<workload>.json)")
	flag.Parse()
	o.trace = trace != 0
	o.scaleDiv, o.setups = 1, 3
	if o.traceFile == "" {
		o.traceFile = filepath.Join(".bench_build", "trace-"+o.workload+".json")
	}

	steal0 := readCPUTicks()
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if d := readCPUTicks().sub(steal0); d.total > 0 {
		// Not a metric: it says how much to trust this run's host-clock
		// numbers. Time stolen by the hypervisor is time a neighbour ran.
		fmt.Printf("box: %.1f%% of CPU time stolen from this virtual machine during the run\n", 100*float64(d.steal)/float64(d.total))
	}
	printResult(os.Stdout, res)
}

// cpuTicks is the first line of /proc/stat: all CPU time since boot and the
// part of it the hypervisor gave to someone else.
type cpuTicks struct{ total, steal int64 }

func (a cpuTicks) sub(b cpuTicks) cpuTicks { return cpuTicks{a.total - b.total, a.steal - b.steal} }

// readCPUTicks returns the zero value where /proc/stat is missing or reads
// differently (not Linux): the note is then left out.
func readCPUTicks() cpuTicks {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, f := range fields[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// run executes one workload and returns its result. It is the whole
// benchmark; main only parses flags around it.
func run(o options) (*result, error) {
	// Two procs on every box: the client goroutine and whatever serves it
	// (tcpnet agents, the GC). GOGC stays at its default.
	runtime.GOMAXPROCS(2)
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive, got %g", o.seconds)
	}
	isSim := o.workload == "sim-suite"
	spec := hostSpecByName(o.workload)
	if spec == nil && !isSim {
		return nil, fmt.Errorf("unknown --workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	switch {
	case o.trace:
		return runTraced(o, spec)
	case isSim:
		return runSimSuite(o)
	default:
		return runHostWorkload(o, spec.scaled(o.scaleDiv))
	}
}

// panelPasses is how often a host workload runs the panel.
const panelPasses = 3

func us(ns float64) metric { return metric{ns / 1e3, "us"} }

// virtMetrics are the five virtual-time throughputs of a panel run.
func virtMetrics(p *panelRun, m map[string]metric) {
	for i, name := range pointNames {
		m["virt_"+name+"_ops_per_s"] = metric{p.res[i].Throughput, "1/s"}
	}
}

// runHostWorkload is the untraced run of a host-clock workload: the measured
// phase, then the virtual-time panel at panel size.
func runHostWorkload(o options, spec hostSpec) (*result, error) {
	run, err := runHost(spec, o.seed, time.Duration(o.seconds*float64(time.Second)), o.setups, nil)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metric{}}
	res.absorb(run)
	// The panel is short (~1.5 s), so its host rate is the median of three
	// passes; its virtual results are the same in all three.
	var panel *panelRun
	var simRates []float64
	for i := 0; i < panelPasses; i++ {
		if panel, err = runPanel(miniPanel.scaledKeys(o.scaleDiv), o.seed, nil); err != nil {
			return nil, err
		}
		res.Attempted += numPoints
		panel.check(res.failf)
		simRates = append(simRates, panel.opsPerCPUSecond())
	}

	m := res.Metrics
	ops := float64(run.ops)
	m["ops_per_s"] = metric{batchRate(run.batchOps, run.batchNS), "1/s"}
	m["point_p50_us"] = us(run.lat[workload.PointQuery].quantile(0.5))
	m["range_p50_us"] = us(run.lat[workload.RangeQuery].quantile(0.5))
	m["insert_p50_us"] = us(run.lat[workload.Insert].quantile(0.5))
	m["allocs_per_op"] = metric{float64(run.mallocs) / ops, "count"}
	m["wire_bytes_per_op"] = metric{float64(run.wire) / ops, "B"}
	m["setup_s"] = metric{median(run.setupS), "s"}
	m["sim_ops_per_host_s"] = metric{median(simRates), "1/s"}
	virtMetrics(panel, m)

	fmt.Printf("%s: %d ops in %.2fs measured (%d batches of %d), mean %.0f ops/s, %d verb retries, %d op recoveries; set-ups %.3fs; last panel pass %.2fs\n",
		spec.name, run.ops, run.elapsed.Seconds(), len(run.batchNS), run.batchOps,
		ops/run.elapsed.Seconds(), run.retries, run.recoveries, run.setupS, panel.hostSeconds())
	return res, nil
}

// runSimSuite is the untraced sim-suite run: the panel at full size. Its
// host-clock metric names carry the simulated run's own figures (README.md,
// "End-to-end metrics").
func runSimSuite(o options) (*result, error) {
	size := fullPanel(o.seconds).scaledKeys(o.scaleDiv)
	var setupS []float64
	for i := 0; i < o.setups; i++ {
		s, err := panelSetup(size, o.seed)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, s)
	}
	panel, err := runPanel(size, o.seed, nil)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: panel.ops() + 1, Metrics: map[string]metric{}}
	panel.check(res.failf)
	checkDeterminism(o.seed, miniPanel.scaledKeys(o.scaleDiv), res.failf)

	m := res.Metrics
	ops := float64(panel.ops())
	setup := median(setupS)
	var virt []float64
	var simBytes float64
	for i := range panel.res {
		virt = append(virt, panel.res[i].Throughput)
		simBytes += panel.res[i].NetGBps * 1e9 * float64(size.config(i, 0).MeasureNS) / 1e9
	}
	kindP50 := func(point int, kind workload.OpKind) metric {
		return us(statsQuantile(panel.res[point].LatencyByKind[kind].Snapshot(), 0.5))
	}
	m["ops_per_s"] = metric{median(virt), "1/s"}
	m["point_p50_us"] = kindP50(ptFig8Fine, workload.PointQuery)
	m["range_p50_us"] = kindP50(ptRangePipe8, workload.RangeQuery)
	m["insert_p50_us"] = kindP50(ptRepl2Insert, workload.Insert)
	m["allocs_per_op"] = metric{float64(panel.mallocs) / ops, "count"}
	m["wire_bytes_per_op"] = metric{simBytes / ops, "B"}
	m["setup_s"] = metric{setup, "s"}
	m["sim_ops_per_host_s"] = metric{panel.opsPerCPUSecond(), "1/s"}
	virtMetrics(panel, m)

	fmt.Printf("sim-suite: %d simulated ops in %.2fs host (per point %.2fs); set-ups %.3fs\n",
		panel.ops(), panel.hostSeconds(), panel.hostS, setupS)
	return res, nil
}

// printResult prints every metric by name with its unit, then the result
// line.
func printResult(w *os.File, res *result) {
	res.Correct = res.Failed == 0
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "benchmark: %d failed, first: %s\n", res.Failed, res.firstErr)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// JSON cannot carry these; a metric that could not be computed is
			// a harness bug, and says so instead of printing a wrong number.
			fmt.Fprintf(os.Stderr, "benchmark: metric %s is %v\n", name, m.Value)
			os.Exit(1)
		}
		fmt.Fprintf(w, "%-36s %18.6f %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "attempted %d, failed %d\n", res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: encoding result:", err)
		os.Exit(1)
	}
	fmt.Fprintln(w, string(line))
}
