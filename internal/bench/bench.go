// Package bench is the experiment harness: it deploys one index design on a
// simulated NAM cluster, drives it with closed-loop clients executing a
// modified-YCSB workload (Section 6), and reports throughput, latency and
// network utilization over a measured virtual-time window.
package bench

import (
	"fmt"
	"sync/atomic"

	"github.com/namdb/rdmatree/internal/cache"
	"github.com/namdb/rdmatree/internal/core"
	"github.com/namdb/rdmatree/internal/deploy"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/obs"
	"github.com/namdb/rdmatree/internal/partition"
	"github.com/namdb/rdmatree/internal/policy"
	"github.com/namdb/rdmatree/internal/rdma/simnet"
	"github.com/namdb/rdmatree/internal/sim"
	"github.com/namdb/rdmatree/internal/stats"
	"github.com/namdb/rdmatree/internal/telemetry"
	"github.com/namdb/rdmatree/internal/workload"
)

// LiveRecorder, when non-nil, additionally accumulates the telemetry of
// every Run in this process — cmd/nambench sets it (with -metrics) so the
// expvar endpoint shows live counters across whole experiment sweeps.
var LiveRecorder *telemetry.Recorder

// LiveTracer, when non-nil, receives the trace spans of every Run —
// cmd/nambench sets it with -trace.
var LiveTracer *telemetry.Tracer

// LiveMetrics, when non-nil, receives per-op-type latency histograms (per
// design, per partition) from every Run — cmd/nambench sets it (with
// -metrics) to feed the OpenMetrics /metrics endpoint. Enabling it threads a
// per-client obs.Log through every design client, timed by the client's
// virtual clock.
var LiveMetrics *obs.MetricsSet

// LiveEvents, when non-nil, accumulates the number of simulation events
// every Run in this process executes — cmd/nambench sets it to report each
// experiment's events and events per second.
var LiveEvents *atomic.Uint64

// Config describes one experiment point.
type Config struct {
	// Design selects the index design under test.
	Design nam.Design
	// PartKind selects the coarse-grained partitioning (range or hash);
	// ignored by the fine-grained design.
	PartKind nam.PartitionKind
	// SkewedData applies the paper's 80/12/5/3 attribute-value-skew
	// assignment (Section 6.1) instead of uniform range partitioning. For
	// the fine-grained design data placement is per-node round-robin and
	// unaffected, as in the paper.
	SkewedData bool
	// Topology is the cluster layout.
	Topology nam.Topology
	// DataSize is the initial number of index entries D.
	DataSize int
	// PageBytes is the index page size P.
	PageBytes int
	// Mix is the workload (Table 3).
	Mix workload.Mix
	// Selectivity configures range queries.
	Selectivity float64
	// Dist is the request distribution.
	Dist workload.Distribution
	// HeadEvery enables head nodes for fine-grained leaves (fine/hybrid).
	HeadEvery int
	// InsertAppend switches inserts to monotonically increasing new keys
	// (right-edge hotspot extension; see workload.Config.InsertAppend).
	InsertAppend bool
	// CachePages enables a compute-side page cache of this many pages per
	// fine-grained serial client (Appendix A.4).
	CachePages int
	// Pipeline, when > 0, runs every design's clients through the async
	// pipelined dataplane with this many operations in flight per client
	// (DESIGN.md §11): verbs and RPCs of in-flight operations share
	// doorbell batches. 1 measures the engine's overhead over the serial
	// client, 0 selects the serial client.
	Pipeline int
	// LegacyReads runs fine-grained serial clients with the paper's
	// Listing-2 read protocol (two blocking READs per level) instead of
	// the fused doorbell batch — the RTT experiment's baseline and the
	// verb sequence the paper's figures assume.
	LegacyReads bool
	// Traverse selects the hybrid design's upper-level traversal strategy:
	// "" or "rpc" keeps the native traverse RPC, "onesided" pins client-side
	// fused reads of the inner nodes, and "adaptive" runs each client under
	// its own policy engine (internal/policy), timed by its virtual clock.
	Traverse string
	// Replicas, when >= 2, deploys any design with k-way page replication
	// (DESIGN.md §13): every client routes through the replica router and
	// mirrors its dirtied pages to the group's backups before acking. 0
	// and 1 both mean unreplicated.
	//
	// Combinations without a client stack — Pipeline with Replicas, the
	// read paths outside fine-grained serial clients, Traverse outside the
	// hybrid design — fail Run with the deployment builder's error
	// (DESIGN.md §15).
	Replicas int
	// WarmupNS and MeasureNS are the virtual warm-up and measurement
	// windows.
	WarmupNS  int64
	MeasureNS int64
	// Seed seeds the workload generators.
	Seed int64
	// Tune, if non-nil, adjusts the fabric cost model before deployment.
	Tune func(*simnet.Config)
	// Telemetry enables verbs-level recording: every client endpoint is
	// wrapped in a telemetry decorator (virtual-time latencies) and the
	// designs' protocol counters are collected; the merged recorder lands in
	// Result.Telemetry. Off by default — the decorators are never installed,
	// so the measured run is byte-identical to an uninstrumented one.
	Telemetry bool
	// Trace, if non-nil, receives per-op and per-verb trace spans in the
	// simulation's virtual time (implies Telemetry).
	Trace *telemetry.Tracer
}

// Validate fills defaults and sanity-checks.
func (c *Config) Validate() error {
	if c.DataSize <= 0 {
		return fmt.Errorf("bench: DataSize must be positive")
	}
	if c.PageBytes == 0 {
		c.PageBytes = 1024
	}
	if c.WarmupNS == 0 {
		c.WarmupNS = 2_000_000 // 2ms virtual
	}
	if c.MeasureNS == 0 {
		c.MeasureNS = 20_000_000 // 20ms virtual
	}
	switch c.Traverse {
	case "", "rpc", "onesided", "adaptive":
	default:
		return fmt.Errorf("bench: unknown Traverse %q (want rpc, onesided or adaptive)", c.Traverse)
	}
	return c.Topology.Validate()
}

// Result is one experiment point's measurement.
type Result struct {
	// Ops completed inside the measurement window.
	Ops int64
	// Throughput in operations/second.
	Throughput float64
	// Latency of operations completing inside the window, in nanoseconds.
	Latency *stats.Histogram
	// LatencyByKind splits latency per operation kind (point/range/insert),
	// useful for the mixed workloads of Exp. 3.
	LatencyByKind map[workload.OpKind]*stats.Histogram
	// NetGBps is the aggregate server-NIC traffic (in+out) during the
	// window, in GB/s (Figure 9's metric).
	NetGBps float64
	// PerServerGBps is the per-memory-server traffic.
	PerServerGBps []float64
	// CacheHits/CacheMisses aggregate compute-side cache statistics when
	// CachePages is enabled.
	CacheHits   int64
	CacheMisses int64
	// PolicySwitches counts runtime traversal-strategy switches across all
	// clients (hybrid with Traverse "adaptive" only).
	PolicySwitches int64
	// Util reports per-station utilization over the measurement window;
	// Util.Max() names the saturated resource behind a plateau.
	Util simnet.Utilization
	// Telemetry holds the run's verbs-level counters when Config.Telemetry
	// (or tracing) was enabled; nil otherwise.
	Telemetry *telemetry.Recorder
	// Err is the first client error, if any.
	Err error
}

// Run executes one experiment point.
func Run(cfg Config) (Result, error) {
	if err := (&cfg).Validate(); err != nil {
		return Result{}, err
	}
	s := sim.New()
	simCfg := simnet.NewConfig(cfg.Topology)
	if cfg.Tune != nil {
		cfg.Tune(&simCfg)
	}
	fab := simnet.New(s, simCfg)
	defer fab.Release()

	// Telemetry wiring: one shared recorder (atomic counters) fed by every
	// client endpoint and server handler; nil when disabled, so the hot path
	// keeps its uninstrumented shape.
	tracer := cfg.Trace
	if tracer == nil {
		tracer = LiveTracer
	}
	var rec *telemetry.Recorder
	if cfg.Telemetry || tracer != nil || LiveRecorder != nil {
		rec = telemetry.NewRecorder(cfg.Topology.MemServers)
	}
	// Per-op metrics wiring: with LiveMetrics set, every client carries an
	// obs.Log timed by its virtual clock, feeding the design's shared
	// histogram set (per op kind, and per partition for the partitioned
	// designs), picked once the catalog is known.
	var metrics *obs.Metrics
	clientLog := func(id int, p *sim.Proc) *obs.Log {
		if metrics == nil {
			return nil
		}
		log := obs.NewLog(0, p)
		log.ClientID = id
		log.Metrics = metrics
		return log
	}
	if tracer != nil {
		tracer.NameProcess(0, "clients")
		for c := 0; c < cfg.Topology.Clients(); c++ {
			tracer.NameThread(0, c, fmt.Sprintf("client %d", c))
		}
		for srv := 0; srv < cfg.Topology.MemServers; srv++ {
			tracer.NameProcess(telemetry.ServerPid(srv), fmt.Sprintf("server %d handlers", srv))
		}
	}

	spec := core.BuildSpec{
		N:         cfg.DataSize,
		At:        workload.DataItem,
		HeadEvery: cfg.HeadEvery,
	}
	keyspace := uint64(cfg.DataSize)

	part := func() partition.Partitioner {
		if cfg.PartKind == nam.PartHash {
			return partition.NewHash(cfg.Topology.MemServers)
		}
		if cfg.SkewedData {
			// 80/12/5/3 across the first four servers; further servers
			// continue the tail geometrically.
			weights := []float64{80, 12, 5, 3}
			for len(weights) < cfg.Topology.MemServers {
				weights = append(weights, weights[len(weights)-1]/2)
			}
			return partition.NewRangeWeighted(keyspace, weights[:cfg.Topology.MemServers]...)
		}
		return partition.NewRangeUniform(cfg.Topology.MemServers, keyspace)
	}

	dep, err := deploy.Build(fab, fab.SetupEndpoint(), deploy.Options{
		Design:    cfg.Design,
		PageBytes: cfg.PageBytes,
		Part:      part(),
		Replicas:  cfg.Replicas,
		VisitNS:   simCfg.VisitNS,
		Telemetry: rec,
		Tracer:    tracer,
		// Replies piggyback the handler pool's utilization so adaptive
		// clients see the server-CPU signal.
		LoadProbe: fab.ServerCoreLoad,
	}, spec)
	if err != nil {
		return Result{}, err
	}
	if LiveMetrics != nil {
		metrics = LiveMetrics.Get(cfg.Design.Name(), dep.Catalog.Partitions())
	}
	var caches []*cache.Mem
	var engines []*policy.Engine
	newClient := func(id int, p *sim.Proc) (deploy.Client, error) {
		o := deploy.ClientOptions{
			ID:          id,
			Ep:          fab.Endpoint(id, p),
			Env:         fab.ClientEnv(p),
			Telemetry:   rec,
			Clock:       p,
			Tracer:      tracer,
			Log:         clientLog(id, p),
			CachePages:  cfg.CachePages,
			LegacyReads: cfg.LegacyReads,
			Inflight:    cfg.Pipeline,
		}
		switch cfg.Traverse {
		case "onesided":
			o.Decider = policy.Static(policy.StrategyOneSided)
		case "adaptive":
			// Per-client engine and window, timed by the client's own
			// virtual clock: decisions use measured virtual-ns costs, so the
			// crossover tracks the simulated fabric, not the host. The dwell
			// is 2ms virtual — a few hundred operations at typical simulated
			// rates, long enough that a borderline partition holds rather
			// than flaps.
			pcfg := policy.Defaults(cfg.Topology.MemServers)
			pcfg.MinDwell = 2_000_000
			win := policy.NewWindow(cfg.Topology.MemServers)
			eng := policy.NewEngine(pcfg, win, p)
			engines = append(engines, eng)
			o.Decider, o.Feed, o.FeedClock = eng, win, p
		}
		cl, err := dep.Client(o)
		if cl.Cache != nil {
			caches = append(caches, cl.Cache)
		}
		return cl, err
	}

	wlCfg := workload.Config{
		Mix:          cfg.Mix,
		DataSize:     keyspace,
		Selectivity:  cfg.Selectivity,
		Dist:         cfg.Dist,
		Seed:         cfg.Seed,
		Clients:      cfg.Topology.Clients(),
		InsertAppend: cfg.InsertAppend,
	}
	if err := wlCfg.Validate(); err != nil {
		return Result{}, err
	}

	res := Result{
		Latency: &stats.Histogram{},
		LatencyByKind: map[workload.OpKind]*stats.Histogram{
			workload.PointQuery: {},
			workload.RangeQuery: {},
			workload.Insert:     {},
		},
	}
	var ops atomic.Int64
	var firstErr atomic.Value
	measureStart := cfg.WarmupNS
	measureEnd := cfg.WarmupNS + cfg.MeasureNS

	// Byte counters snapshotted at the window edges.
	var bytesAtStart, bytesAtEnd int64
	var perStart, perEnd []int64
	snapshot := func() int64 {
		return fab.BytesIn.Total() + fab.BytesOut.Total()
	}
	perSnapshot := func() []int64 {
		in, out := fab.BytesIn.Snapshot(), fab.BytesOut.Snapshot()
		res := make([]int64, len(in))
		for i := range in {
			res[i] = in[i] + out[i]
		}
		return res
	}
	var busySnap []sim.Time
	s.At(measureStart, func() { bytesAtStart = snapshot(); perStart = perSnapshot(); busySnap = fab.BusySnapshot() })
	s.At(measureEnd, func() {
		bytesAtEnd = snapshot()
		perEnd = perSnapshot()
		res.Util = fab.UtilizationSince(busySnap, measureStart)
	})

	for c := 0; c < cfg.Topology.Clients(); c++ {
		c := c
		s.Spawn(fmt.Sprintf("client%d", c), func(p *sim.Proc) {
			gen, err := workload.NewGenerator(wlCfg, c)
			if err != nil {
				firstErr.CompareAndSwap(nil, err)
				return
			}
			// record accounts one completed operation and reports whether the
			// client should keep submitting.
			record := func(kind workload.OpKind, start, end int64, err error) bool {
				if err != nil {
					firstErr.CompareAndSwap(nil, fmt.Errorf("client %d: %w", c, err))
					return false
				}
				if tracer != nil {
					tracer.Span(0, c, kind.String(), "op", start, end)
				}
				if end > measureStart && end <= measureEnd {
					ops.Add(1)
					res.Latency.Record(end - start)
					res.LatencyByKind[kind].Record(end - start)
				}
				return end <= measureEnd
			}
			cl, err := newClient(c, p)
			if err != nil {
				firstErr.CompareAndSwap(nil, err)
				return
			}
			if pc := cl.Pipelined; pc != nil {
				// Async dataplane: keep the submission window full. A point
				// operation's latency spans admission to completion: waiting
				// for a slot is the previous operation's service time, and
				// charging it again would count every slot's latency twice
				// (by Little's law, mean latency would read inflight+1 ops
				// per client over throughput). A range drains the window
				// first, and that wait is its own.
				stop := false
				for !stop {
					op := gen.Next()
					kind := op.Kind
					if kind != workload.RangeQuery {
						pc.Admit()
					}
					start := p.Now()
					switch kind {
					case workload.PointQuery:
						pc.Lookup(op.Key, func(_ []uint64, err error) {
							if !record(kind, start, p.Now(), err) {
								stop = true
							}
						})
					case workload.RangeQuery:
						err := pc.Range(op.Key, op.EndKey, func(uint64, uint64) bool { return true })
						if !record(kind, start, p.Now(), err) {
							stop = true
						}
					case workload.Insert:
						pc.Insert(op.Key, op.Value, func(err error) {
							if !record(kind, start, p.Now(), err) {
								stop = true
							}
						})
					}
				}
				pc.Drain()
				return
			}
			idx := cl.Serial
			for {
				op := gen.Next()
				start := p.Now()
				var err error
				switch op.Kind {
				case workload.PointQuery:
					_, err = idx.Lookup(op.Key)
				case workload.RangeQuery:
					err = idx.Range(op.Key, op.EndKey, func(uint64, uint64) bool { return true })
				case workload.Insert:
					err = idx.Insert(op.Key, op.Value)
				}
				if !record(op.Kind, start, p.Now(), err) {
					return
				}
			}
		})
	}
	s.RunUntil(measureEnd)
	s.Shutdown()
	if LiveEvents != nil {
		LiveEvents.Add(s.Events())
	}

	if e, ok := firstErr.Load().(error); ok && e != nil {
		res.Err = e
		return res, e
	}
	res.Ops = ops.Load()
	for _, cm := range caches {
		res.CacheHits += cm.Stats.Hits
		res.CacheMisses += cm.Stats.Misses
	}
	for _, eng := range engines {
		res.PolicySwitches += eng.Switches()
	}
	if rec != nil {
		res.Telemetry = rec
		if LiveRecorder != nil {
			LiveRecorder.Merge(rec)
		}
	}
	secs := float64(cfg.MeasureNS) / 1e9
	res.Throughput = float64(res.Ops) / secs
	res.NetGBps = float64(bytesAtEnd-bytesAtStart) / secs / 1e9
	if perEnd != nil && perStart != nil {
		for i := range perEnd {
			res.PerServerGBps = append(res.PerServerGBps, float64(perEnd[i]-perStart[i])/secs/1e9)
		}
	}
	return res, nil
}
