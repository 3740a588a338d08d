package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"github.com/namdb/rdmatree/internal/core/fine"
	"github.com/namdb/rdmatree/internal/workload"
)

// hostSpec describes one of the three host-clock workloads: a deployment, a
// single closed-loop client, a modified-YCSB mix over uniform keys.
type hostSpec struct {
	name string
	keys int
	mix  workload.Mix
	// rangeKeys is the number of keys a range scan covers.
	rangeKeys int
	// batchOps is the fixed size of a throughput batch: batch i holds the
	// same operations in every run with the same seed. Batches are short
	// (5-50 ms on the calibration box) so that a burst of time stolen from
	// the virtual machine lands in a few of a run's thousands of batches and
	// leaves the median batch alone; a pipelined batch has to be long enough
	// for the drain at its end not to matter (<1 %).
	batchOps int
	deploy   func(keys int, log *spanLog) (*deployment, error)
}

// warmupShare of the measuring time is run first and discarded.
const warmupShare = 0.05

var hostSpecs = []hostSpec{
	{
		name: "tcp-serial", keys: 1_000_000, rangeKeys: 100, batchOps: 250,
		mix:    workload.Mix{Name: "80/10/10", PointPct: 80, RangePct: 10, InsertPct: 10},
		deploy: func(keys int, log *spanLog) (*deployment, error) { return deployTCP(keys, 0, log) },
	},
	{
		name: "tcp-pipe8", keys: 1_000_000, rangeKeys: 100, batchOps: 1000,
		mix:    workload.Mix{Name: "85/5/10", PointPct: 85, RangePct: 5, InsertPct: 10},
		deploy: func(keys int, log *spanLog) (*deployment, error) { return deployTCP(keys, 8, log) },
	},
	{
		name: "direct-hybrid", keys: 1_000_000, rangeKeys: 100, batchOps: 2500,
		mix:    workload.Mix{Name: "80/10/10", PointPct: 80, RangePct: 10, InsertPct: 10},
		deploy: deployDirect,
	},
}

func hostSpecByName(name string) *hostSpec {
	for i := range hostSpecs {
		if hostSpecs[i].name == name {
			return &hostSpecs[i]
		}
	}
	return nil
}

// scaled returns the spec shrunk for the smoke test: fewer keys, smaller
// batches.
func (s hostSpec) scaled(div int) hostSpec {
	s.keys /= div
	if s.batchOps /= div; s.batchOps < 20 {
		s.batchOps = 20
	}
	return s
}

// hostRun is what one measured pass over a host workload yields.
type hostRun struct {
	setupS    []float64 // every cold set-up, in order
	attempted int64
	failed    int64
	firstErr  string

	ops      int64
	elapsed  time.Duration // measured phase, warm-up excluded
	batchNS  []float64
	batchOps int
	lat      [3]latHist // by workload.OpKind
	mallocs  uint64
	wire     int64
	cpuNS    int64 // getrusage user+sys over the measured phase
	// retries and recoveries are the client stack's own counters; both are 0
	// on a run without faults.
	retries, recoveries int64
}

// coldSetups sets the deployment up n times and keeps the last; the earlier
// ones are torn down. Set-up time is listen + dial + region allocation +
// bulk load (+ handler install).
func coldSetups(spec hostSpec, n int, log *spanLog) (*deployment, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		// Collect the previous deployment's regions and hand them back to
		// the OS outside the timer, so every set-up allocates its regions
		// the same way.
		debug.FreeOSMemory()
		t0 := time.Now()
		d, err := spec.deploy(spec.keys, log)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: set-up %d: %w", spec.name, i+1, err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == n-1 {
			return d, times, nil
		}
		d.close()
	}
}

func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// runHost measures one host workload for the given duration. With a non-nil
// log the deployment carries the span shims and every operation is a span.
func runHost(spec hostSpec, seed int64, dur time.Duration, setups int, log *spanLog) (*hostRun, error) {
	d, setupS, err := coldSetups(spec, setups, log)
	if err != nil {
		return nil, err
	}
	defer d.close()

	gen, err := workload.NewGenerator(workload.Config{
		Mix:         spec.mix,
		DataSize:    uint64(spec.keys),
		Selectivity: float64(spec.rangeKeys) / float64(spec.keys),
		Seed:        seed,
		Clients:     1,
	}, 0)
	if err != nil {
		return nil, err
	}
	run := &hostRun{setupS: setupS, batchOps: spec.batchOps}
	c := &hostClient{spec: spec, d: d, gen: gen, oracle: newOracle(spec.keys), run: run, log: log}
	c.countEmit = func(uint64, uint64) bool { c.emitted++; return true }
	if log != nil {
		c.opLayers = [3]layerID{log.layer("op.point"), log.layer("op.range"), log.layer("op.insert")}
	}
	if d.pipe != nil {
		c.initPipe(d.pipe)
	}

	start := time.Now()
	warmEnd := time.Duration(float64(dur) * warmupShare)
	for time.Since(start) < warmEnd {
		c.batch(false)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	wire0, cpu0 := d.wireBytes(), cpuNS()
	measureStart := time.Now()
	for {
		t0 := time.Now()
		c.batch(true)
		run.batchNS = append(run.batchNS, float64(time.Since(t0)))
		if time.Since(start) >= dur {
			break
		}
	}
	run.elapsed = time.Since(measureStart)
	run.cpuNS = cpuNS() - cpu0
	run.wire = d.wireBytes() - wire0
	runtime.ReadMemStats(&ms1)
	run.mallocs = ms1.Mallocs - ms0.Mallocs
	run.ops = int64(len(run.batchNS)) * int64(spec.batchOps)
	run.retries, run.recoveries = d.rec.Retries(), d.rec.OpRecoveries()

	// Final check, outside the timers: a full scan must count the preload
	// plus every acknowledged insert (warm-up inserts included).
	run.attempted++
	if log != nil {
		log.off = true // the scan is a check, not a measured operation
	}
	want := int64(spec.keys) + c.oracle.inserts
	c.emitted = 0
	if err := c.scanAll(c.countEmit); err != nil {
		c.fail("final scan: %v", err)
	} else if c.emitted != want {
		c.fail("final scan counted %d entries, want %d (preload %d + %d acked inserts)", c.emitted, want, spec.keys, c.oracle.inserts)
	}
	return run, nil
}

// hostClient is the single closed-loop client of a host workload.
type hostClient struct {
	spec   hostSpec
	d      *deployment
	gen    *workload.Generator
	oracle *oracle
	run    *hostRun
	log    *spanLog

	opLayers [3]layerID
	clock    time.Time // base of the pipelined path's timestamps
	measured bool

	// emitted counts a range scan's entries through countEmit, a callback
	// bound once so a scan allocates no closure here.
	emitted   int64
	countEmit func(k, v uint64) bool

	// Pipelined path: a free list of operation contexts whose callbacks are
	// bound once, so submitting an operation allocates nothing here.
	pipe *fine.PipelinedClient
	free []*pipeOp
}

type pipeOp struct {
	c        *hostClient
	kind     workload.OpKind
	key      uint64
	start    int64
	opID     int64
	onLookup func([]uint64, error)
	onInsert func(error)
}

func (c *hostClient) fail(format string, args ...any) {
	c.run.failed++
	if c.run.firstErr == "" {
		c.run.firstErr = fmt.Sprintf(format, args...)
	}
}

func (c *hostClient) scanAll(emit func(k, v uint64) bool) error {
	if c.pipe != nil {
		return c.pipe.Range(0, ^uint64(0), emit)
	}
	return c.d.idx.Range(0, ^uint64(0), emit)
}

// next draws the client's next operation. A range scan's end key is moved
// up to the next key that has no inserted duplicate: at this commit
// btree.Scan stops at a leaf whose high key equals the end key and so misses
// duplicates of the end key that a split moved to the right sibling (about
// one scan in 800 on direct-hybrid). The benchmark's workloads are chosen so
// that no operation fails, so they end scans where that cannot happen; every
// scan is still checked for its exact entry count.
func (c *hostClient) next() workload.Op {
	op := c.gen.Next()
	if op.Kind == workload.RangeQuery {
		op.EndKey = c.oracle.undupedFrom(op.EndKey)
	}
	return op
}

// batch runs spec.batchOps operations; measured batches record latencies and
// count as attempted.
func (c *hostClient) batch(measured bool) {
	c.measured = measured
	if c.pipe != nil {
		c.batchPipelined()
		return
	}
	idx := c.d.idx
	for i := 0; i < c.spec.batchOps; i++ {
		op := c.next()
		if c.log != nil {
			c.log.op++
			c.log.begin(c.opLayers[op.Kind])
		}
		t0 := time.Now()
		var err error
		var vals []uint64
		switch op.Kind {
		case workload.PointQuery:
			vals, err = idx.Lookup(op.Key)
		case workload.RangeQuery:
			c.emitted = 0
			err = idx.Range(op.Key, op.EndKey, c.countEmit)
		case workload.Insert:
			err = idx.Insert(op.Key, op.Value)
		}
		lat := time.Since(t0)
		if c.log != nil {
			c.log.end()
		}
		c.account(op.Kind, int64(lat))
		// Single client, so the oracle's answer is exact.
		switch {
		case err != nil:
			c.fail("%s %d: %v", op.Kind, op.Key, err)
		case op.Kind == workload.PointQuery:
			if why := c.oracle.checkLookup(op.Key, vals); why != "" {
				c.fail("lookup %d: %s", op.Key, why)
			}
		case op.Kind == workload.RangeQuery:
			if want := c.oracle.rangeCount(op.Key, op.EndKey); c.emitted != want {
				c.fail("range [%d,%d]: %d entries, want %d", op.Key, op.EndKey, c.emitted, want)
			}
		case op.Kind == workload.Insert:
			c.oracle.insert(op.Key, op.Value)
		}
	}
}

func (c *hostClient) account(kind workload.OpKind, latNS int64) {
	if c.measured {
		c.run.attempted++
		c.run.lat[kind].record(latNS)
	}
}

func (c *hostClient) initPipe(p *fine.PipelinedClient) {
	c.pipe = p
	c.clock = time.Now()
	// One context more than slots: a context is free again as soon as its
	// callback ran, which is before the engine reuses the slot.
	for i := 0; i <= p.Inflight(); i++ {
		o := &pipeOp{c: c}
		o.onLookup = o.lookupDone
		o.onInsert = o.insertDone
		c.free = append(c.free, o)
	}
}

func (c *hostClient) take(op workload.Op) *pipeOp {
	o := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	o.kind, o.key = op.Kind, op.Key
	if c.log != nil {
		c.log.op++
		o.opID = c.log.op
	}
	o.start = int64(time.Since(c.clock))
	return o
}

func (o *pipeOp) done(err error) {
	c := o.c
	end := int64(time.Since(c.clock))
	if c.log != nil {
		c.log.retro(c.opLayers[o.kind], o.opID, o.start, end)
	}
	c.account(o.kind, end-o.start)
	if err != nil {
		c.fail("%s %d: %v", o.kind, o.key, err)
	}
	c.free = append(c.free, o)
}

// lookupDone checks a pipelined lookup. Operations in flight overlap, so an
// insert of the same key may or may not be visible yet: the check is that
// the preloaded value is there and nothing foreign is.
func (o *pipeOp) lookupDone(vals []uint64, err error) {
	if err == nil {
		if why := o.c.oracle.checkLookupLoose(o.key, vals); why != "" {
			o.c.fail("lookup %d: %s", o.key, why)
		}
	}
	o.done(err)
}

func (o *pipeOp) insertDone(err error) { o.done(err) }

// batchPipelined keeps the submission window full and drains at the batch
// boundary, so a batch's wall time covers exactly its own operations.
// Latency runs from submission to completion: waiting for a free slot is
// charged to the operation, the closed-loop view.
func (c *hostClient) batchPipelined() {
	for i := 0; i < c.spec.batchOps; i++ {
		op := c.next()
		switch op.Kind {
		case workload.PointQuery:
			o := c.take(op)
			c.pipe.Lookup(op.Key, o.onLookup)
		case workload.Insert:
			// Recorded at submission: a later lookup may already see it.
			c.oracle.insert(op.Key, op.Value)
			o := c.take(op)
			c.pipe.Insert(op.Key, op.Value, o.onInsert)
		case workload.RangeQuery:
			// Engine.Range drains the pipeline first, so by the time the scan
			// runs every earlier insert is applied and the count is exact.
			o := c.take(op)
			c.emitted = 0
			err := c.pipe.Range(op.Key, op.EndKey, c.countEmit)
			o.done(err)
			if want := c.oracle.rangeCount(op.Key, op.EndKey); err == nil && c.emitted != want {
				c.fail("range [%d,%d]: %d entries, want %d", op.Key, op.EndKey, c.emitted, want)
			}
		}
	}
	c.pipe.Drain()
}
