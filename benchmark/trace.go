package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/namdb/rdmatree/internal/bench"
	"github.com/namdb/rdmatree/internal/workload"
)

// traceShare of --seconds is how long each pass of the traced run lasts.
const traceShare = 0.2

// runTraced is the --trace 1 run: the workload once untraced and once with
// the span shims (or, for sim-suite, with simnet's telemetry), each for a
// fifth of --seconds, then every isolated layer driver. It reports the
// per-layer metrics only; end-to-end numbers always come from --trace 0.
func runTraced(o options, spec *hostSpec) (*result, error) {
	b := &layerBench{m: map[string]metric{}, div: o.scaleDiv}
	res := &result{Metrics: b.m}
	dur := time.Duration(o.seconds * traceShare * float64(time.Second))

	var tcpLog *spanLog // a traced tcp-serial pass, for the tcpnet layer
	if spec == nil {
		if err := b.tracedSimSuite(o, res); err != nil {
			return nil, err
		}
	} else {
		s := spec.scaled(o.scaleDiv)
		plain, err := runHost(s, o.seed, dur, 1, nil)
		if err != nil {
			return nil, err
		}
		log := newSpanLog()
		traced, err := runHost(s, o.seed, dur, 1, log)
		if err != nil {
			return nil, err
		}
		res.absorb(plain)
		res.absorb(traced)
		b.clientMetrics(plain, traced)
		if err := writeSpanFile(log, o.traceFile); err != nil {
			return nil, err
		}
		opNS, selfNS := log.opTotals()
		fmt.Printf("%s traced: %d spans (%d in %s), layer self times sum to %.3f of the op spans' duration\n",
			spec.name, log.total, len(log.spans), o.traceFile, float64(selfNS)/float64(opNS))
		if spec.name == "tcp-serial" {
			tcpLog = log
		}
	}
	if tcpLog == nil {
		// Long enough for a few thousand operations; the two metrics taken
		// from it are ratios per operation.
		tcpLog = newSpanLog()
		r, err := runHost(hostSpecs[0].scaled(o.scaleDiv), o.seed, dur/2, 1, tcpLog)
		if err != nil {
			return nil, err
		}
		res.absorb(r)
	}
	b.tcpnetFromTrace(tcpLog)

	if err := b.runLayerDrivers(o.seed); err != nil {
		return nil, err
	}
	return res, nil
}

func writeSpanFile(log *spanLog, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating the span file's directory: %w", err)
	}
	return log.writeFile(path)
}

// clientMetrics are the harness's own view of a host workload: tails, spread
// and CPU from the untraced pass, and what tracing costs.
func (b *layerBench) clientMetrics(plain, traced *hostRun) {
	for kind, name := range map[workload.OpKind]string{
		workload.PointQuery: "point", workload.RangeQuery: "range", workload.Insert: "insert",
	} {
		h := &plain.lat[kind]
		b.put("client."+name+"_p99_us", h.quantile(tailQuantile(h.n))/1e3, "us")
		b.put("client.samples_"+name, float64(h.n), "count")
	}
	var rates []float64
	for _, ns := range plain.batchNS {
		rates = append(rates, float64(plain.batchOps)/(ns/1e9))
	}
	b.clientRates(float64(plain.cpuNS)/1e3/float64(plain.ops), float64(plain.ops)/plain.elapsed.Seconds(), rates,
		batchRate(traced.batchOps, traced.batchNS)/batchRate(plain.batchOps, plain.batchNS))
}

// clientRates are the client.* metrics that are not per operation kind.
func (b *layerBench) clientRates(cpuUSPerOp, meanRate float64, batchRates []float64, overhead float64) {
	b.put("client.cpu_us_per_op", cpuUSPerOp, "us")
	b.put("client.mean_ops_per_s", meanRate, "1/s")
	b.put("client.batch_q1_ops_per_s", quantileOf(batchRates, 0.25), "1/s")
	b.put("client.batch_q3_ops_per_s", quantileOf(batchRates, 0.75), "1/s")
	b.put("trace.overhead_ratio", overhead, "count")
}

// tracedSimSuite is sim-suite's traced run: the panel with windows a fifth
// of the full size, once plain and once with simnet's verb telemetry on —
// the simulator's own tracing. The client.* figures are the simulated
// clients': latencies in virtual time, rates in simulated operations per
// host second.
func (b *layerBench) tracedSimSuite(o options, res *result) error {
	size := fullPanel(o.seconds * traceShare).scaledKeys(o.scaleDiv)
	plain, err := runPanel(size, o.seed, nil)
	if err != nil {
		return err
	}
	traced, err := runPanel(size, o.seed, func(c *bench.Config) { c.Telemetry = true })
	if err != nil {
		return err
	}
	plain.check(res.failf)
	traced.check(res.failf)
	res.Attempted += plain.ops() + traced.ops()

	for kind, at := range map[workload.OpKind]struct {
		name  string
		point int
	}{
		workload.PointQuery: {"point", ptFig8Fine},
		workload.RangeQuery: {"range", ptRangePipe8},
		workload.Insert:     {"insert", ptRepl2Insert},
	} {
		snap := plain.res[at.point].LatencyByKind[kind].Snapshot()
		b.put("client."+at.name+"_p99_us", statsQuantile(snap, tailQuantile(snap.N))/1e3, "us")
		b.put("client.samples_"+at.name, float64(snap.N), "count")
	}
	var rates []float64
	for i := range plain.res {
		rates = append(rates, float64(plain.res[i].Ops)/plain.hostS[i])
	}
	ops := float64(plain.ops())
	b.clientRates(plain.cpuSeconds()*1e6/ops, ops/plain.hostSeconds(), rates,
		(float64(traced.ops())/traced.hostSeconds())/(ops/plain.hostSeconds()))
	return nil
}
