// Command nambench regenerates the tables and figures of the paper's
// evaluation (Section 6 and Appendix A) on the simulated NAM cluster.
//
// Usage:
//
//	nambench -exp fig8              # one experiment
//	nambench -exp all               # everything, in paper order
//	nambench -exp fig7 -quick       # reduced scale
//	nambench -list                  # available experiments
//	nambench -exp fig8 -size 1000000 -clients 20,40,80
//	nambench -regress BENCH_rtt.json,BENCH_pipeline.json  # CI gate: fail on >10% regression
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/namdb/rdmatree/internal/bench"
	"github.com/namdb/rdmatree/internal/obs"
	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/stats"
	"github.com/namdb/rdmatree/internal/telemetry"
)

// lintMetrics validates an OpenMetrics exposition read from a file or
// scraped from an http(s) URL — the CI smoke job runs it against a live
// namserver /metrics endpoint.
func lintMetrics(src string) error {
	var raw []byte
	if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
		resp, err := http.Get(src)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: %s", src, resp.Status)
		}
		raw, err = io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
	} else {
		var err error
		raw, err = os.ReadFile(src)
		if err != nil {
			return err
		}
	}
	return obs.LintOpenMetrics(string(raw))
}

// runRegress dispatches one baseline file to its regression gate by name:
// BENCH_rtt* re-runs the doorbell-batching experiment, BENCH_pipeline* the
// async-dataplane sweep, BENCH_replication* the page-replication comparison,
// BENCH_adaptive* the adaptive traversal-policy sweep.
func runRegress(w io.Writer, path string) error {
	name := path
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	switch {
	case strings.HasPrefix(name, "BENCH_rtt"):
		return bench.RegressRTT(w, path)
	case strings.HasPrefix(name, "BENCH_pipeline"):
		return bench.RegressPipeline(w, path)
	case strings.HasPrefix(name, "BENCH_replication"):
		return bench.RegressReplication(w, path)
	case strings.HasPrefix(name, "BENCH_adaptive"):
		return bench.RegressAdaptive(w, path)
	default:
		return fmt.Errorf("-regress: unrecognized baseline %q (expected BENCH_rtt*.json, BENCH_pipeline*.json, BENCH_replication*.json or BENCH_adaptive*.json)", path)
	}
}

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id (table1,table2,table3,fig3,fig7..fig15) or 'all'")
		list     = flag.Bool("list", false, "list experiments")
		quick    = flag.Bool("quick", false, "reduced scale")
		size     = flag.Int("size", 0, "override data size D")
		clients  = flag.String("clients", "", "override client sweep, e.g. 20,40,80")
		traceOut = flag.String("trace", "", "write a Chrome trace_event JSON timeline of every run to this file (open in Perfetto or chrome://tracing)")
		metrics  = flag.String("metrics", "", "serve live expvar (/debug/vars), pprof (/debug/pprof/), and OpenMetrics (/metrics) on this address while experiments run")
		noverbs  = flag.Bool("noverbs", false, "omit the per-verb breakdown tables from experiment reports")
		regress  = flag.String("regress", "", "comma-separated bench baselines (BENCH_rtt.json, BENCH_pipeline.json, BENCH_replication.json, BENCH_adaptive.json); re-runs each experiment at the baseline's scale and fails on >10% regression")
		lintmet  = flag.String("lintmetrics", "", "validate an OpenMetrics exposition (file path or http URL) and exit")
	)
	flag.Parse()

	if *regress != "" {
		for _, path := range strings.Split(*regress, ",") {
			path = strings.TrimSpace(path)
			if path == "" {
				continue
			}
			if err := runRegress(os.Stdout, path); err != nil {
				fmt.Fprintf(os.Stderr, "nambench: %v\n", err)
				os.Exit(1)
			}
		}
		return
	}
	if *lintmet != "" {
		if err := lintMetrics(*lintmet); err != nil {
			fmt.Fprintf(os.Stderr, "nambench: -lintmetrics: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid OpenMetrics exposition\n", *lintmet)
		return
	}

	if *noverbs {
		bench.Verbs = false
	}
	var tracer *telemetry.Tracer
	var traceFile *os.File
	if *traceOut != "" {
		// Create the file up front so a bad path fails before hours of
		// experiments, not after.
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nambench: -trace: %v\n", err)
			os.Exit(1)
		}
		traceFile = f
		tracer = telemetry.NewTracer()
		bench.LiveTracer = tracer
	}
	if *metrics != "" {
		bench.LiveRecorder = telemetry.NewRecorder(rdma.MaxServers)
		telemetry.Publish("nambench", bench.LiveRecorder)
		// Live per-op latency histograms: every benchmark client gets a
		// flight-recorder Log feeding this set, and /metrics exports it as
		// OpenMetrics alongside the verb and recovery counters.
		bench.LiveMetrics = &obs.MetricsSet{}
		telemetry.Handle("/metrics", obs.MetricsHandler(bench.LiveRecorder, bench.LiveMetrics))
		addr, err := telemetry.ServeMetrics(*metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nambench: -metrics: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "nambench: metrics on http://%s/debug/vars and http://%s/metrics\n", addr, addr)
	}

	if *list || *exp == "" {
		fmt.Println("Available experiments:")
		for _, e := range bench.AllExperiments() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Title)
		}
		if *exp == "" {
			os.Exit(0)
		}
	}

	sc := bench.FullScale
	if *quick {
		sc = bench.QuickScale
	}
	if *size > 0 {
		sc.DataSize = *size
	}
	if *clients != "" {
		sc.Clients = nil
		for _, part := range strings.Split(*clients, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "nambench: bad -clients value %q\n", part)
				os.Exit(2)
			}
			sc.Clients = append(sc.Clients, n)
		}
	}

	var todo []bench.Experiment
	switch *exp {
	case "all":
		todo = bench.AllExperiments()
	case "paper":
		todo = bench.Experiments()
	default:
		e, ok := bench.Lookup(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "nambench: unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		todo = []bench.Experiment{e}
	}

	bench.LiveEvents = new(atomic.Uint64)
	for _, e := range todo {
		fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
		start, events0 := time.Now(), bench.LiveEvents.Load()
		if err := e.Run(os.Stdout, sc); err != nil {
			fmt.Fprintf(os.Stderr, "nambench: %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		wall := time.Since(start)
		events := bench.LiveEvents.Load() - events0
		fmt.Printf("(%s completed in %v; %s sim events, %s events/s)\n\n", e.ID, wall.Round(time.Millisecond),
			stats.FormatQty(float64(events)), stats.FormatQty(float64(events)/wall.Seconds()))
	}

	if tracer != nil {
		werr := tracer.WriteJSON(traceFile)
		if cerr := traceFile.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "nambench: -trace: %v\n", werr)
			os.Exit(1)
		}
		fmt.Printf("wrote %d trace events to %s", tracer.Len(), *traceOut)
		if d := tracer.Dropped(); d > 0 {
			fmt.Printf(" (%d dropped past the %d-event buffer)", d, telemetry.DefaultMaxEvents)
		}
		fmt.Println()
	}
}
