package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/namdb/rdmatree/internal/bench"
	"github.com/namdb/rdmatree/internal/btree"
	"github.com/namdb/rdmatree/internal/cache"
	"github.com/namdb/rdmatree/internal/core"
	"github.com/namdb/rdmatree/internal/core/coarse"
	"github.com/namdb/rdmatree/internal/core/fine"
	"github.com/namdb/rdmatree/internal/core/hybrid"
	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/obs"
	"github.com/namdb/rdmatree/internal/partition"
	"github.com/namdb/rdmatree/internal/policy"
	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/rdma/direct"
	"github.com/namdb/rdmatree/internal/rdma/faultnet"
	"github.com/namdb/rdmatree/internal/rdma/repl"
	"github.com/namdb/rdmatree/internal/rdma/retry"
	"github.com/namdb/rdmatree/internal/rdma/tcpnet"
	"github.com/namdb/rdmatree/internal/sim"
	"github.com/namdb/rdmatree/internal/stats"
	"github.com/namdb/rdmatree/internal/telemetry"
	"github.com/namdb/rdmatree/internal/workload"
)

// The isolated layer drivers: each calls one module's public functions in a
// loop and reports the median of layerReps repetitions. They are the same
// for every workload — a layer's cost does not depend on which workload's
// traced run they are printed beside.
const layerReps = 5

// layerBench carries the drivers' shared knobs and collects their metrics.
type layerBench struct {
	m map[string]metric
	// div shrinks key counts and iteration counts (1 in real runs).
	div int
}

func (b *layerBench) put(name string, v float64, unit string) { b.m[name] = metric{v, unit} }

func (b *layerBench) keys() int { return 200_000 / b.div }

// iters scales an iteration count, keeping enough for a median to mean
// something.
func (b *layerBench) iters(n int) int {
	if n /= b.div; n < 20 {
		n = 20
	}
	return n
}

// nsPer runs fn(iters) layerReps times and returns the median nanoseconds
// per iteration.
func nsPer(iters int, fn func(n int)) float64 {
	var per []float64
	for r := 0; r < layerReps; r++ {
		t0 := time.Now()
		fn(iters)
		per = append(per, float64(time.Since(t0))/float64(iters))
	}
	return median(per)
}

// mallocsPer returns the heap allocations per iteration of one fn(iters)
// call, whole process.
func mallocsPer(iters int, fn func(n int)) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn(iters)
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(iters)
}

// keep receives the results of timed calls that have no other use, so the
// compiler cannot drop the calls.
var keep uint64

// firstErr keeps the first error a driver loop saw.
type firstErr struct{ err error }

func (f *firstErr) note(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

// keyStream is a cheap deterministic key sequence for driver loops.
type keyStream struct {
	x, n uint64
}

func (k *keyStream) next() uint64 {
	k.x = k.x*6364136223846793005 + 1442695040888963407
	return (k.x >> 20) % k.n
}

// fineOnDirect builds a fine-grained index of keys keys on a fresh direct
// fabric with four servers.
func fineOnDirect(keys, replicas int) (*direct.Fabric, *nam.Catalog, nam.ReplicaLayout, error) {
	const servers = 4
	region := regionBytes(keys, 1) // per server; generous, replicas share it
	fab := direct.New(servers, region, int(nam.ReplReservedBytes(servers)))
	opts := fine.Options{Layout: layout.New(pageBytes)}
	var lay nam.ReplicaLayout
	if replicas >= 2 {
		lay = nam.NewReplicaLayout(servers, replicas, uint64(region))
		for i := 0; i < servers; i++ {
			fab.Server(i).Alloc = rdma.NewAllocator(lay.SlabLo(i), lay.SlabHi(i))
		}
		opts.Replicas, opts.RegionBytes = replicas, uint64(region)
	}
	cat, err := fine.Build(fab.Endpoint(), opts, buildSpec(keys))
	if err != nil {
		return nil, nil, lay, fmt.Errorf("building fine index of %d keys on direct: %w", keys, err)
	}
	if replicas >= 2 {
		repl.SyncReplicas(lay, fab.Server)
	}
	return fab, cat, lay, nil
}

// runLayerDrivers runs every isolated driver.
func (b *layerBench) runLayerDrivers(seed int64) error {
	for _, d := range []struct {
		name string
		fn   func(seed int64) error
	}{
		{"tcpnet", b.tcpnetLayer},
		{"pipeline", b.pipelineLayer},
		{"btree", b.btreeLayer},
		{"layout", b.layoutLayer},
		{"nam", b.namLayer},
		{"core", b.coreLayer},
		{"ring", b.ringLayer},
		{"repl", b.replLayer},
		{"cache", b.cacheLayer},
		{"policy", b.policyLayer},
		{"sim", b.simLayer},
		{"simnet", b.simnetLayer},
		{"workload+stats", b.harnessLayer},
	} {
		if err := d.fn(seed); err != nil {
			return fmt.Errorf("layer driver %s: %w", d.name, err)
		}
	}
	return nil
}

// --- tcpnet ---------------------------------------------------------------

func (b *layerBench) tcpnetLayer(int64) error {
	echo := func(_ rdma.Env, _ int, req []byte) ([]byte, rdma.Work) { return req, rdma.Work{} }
	cluster, err := startTCPCluster(2, minRegionBytes, echo)
	if err != nil {
		return err
	}
	defer cluster.stop()
	ep := tcpnet.Dial(cluster.addrs)
	defer ep.Close()

	page, err := ep.Alloc(0, pageBytes)
	if err != nil {
		return err
	}
	words := pageBytes / 8
	buf := make([]uint64, words)
	ver := make([]uint64, 1)
	var fe firstErr
	iters := b.iters(3000)

	readLoop := func(n int) {
		for i := 0; i < n; i++ {
			fe.note(ep.Read(page, buf))
		}
	}
	readLoop(iters) // warm the connection and both sides' buffers
	b.put("tcpnet.read_page_rtt_us", nsPer(iters, readLoop)/1e3, "us")
	wire0 := cluster.bytes.Load()
	b.put("tcpnet.allocs_per_verb", mallocsPer(iters, readLoop), "count")
	b.put("tcpnet.wire_overhead_bytes_per_verb", float64(cluster.bytes.Load()-wire0)/float64(iters)-pageBytes, "B")

	ptrs := []rdma.RemotePtr{page, page}
	dsts := [][]uint64{buf, ver}
	b.put("tcpnet.readmulti2_rtt_us", nsPer(iters, func(n int) {
		for i := 0; i < n; i++ {
			fe.note(ep.ReadMulti(ptrs, dsts))
		}
	})/1e3, "us")

	b.put("tcpnet.write_page_rtt_us", nsPer(iters, func(n int) {
		for i := 0; i < n; i++ {
			fe.note(ep.Write(page, buf))
		}
	})/1e3, "us")

	// The page's first word as a counter: every CAS must find the value the
	// previous one left.
	fe.note(ep.Write(page, ver))
	word := ver[0]
	b.put("tcpnet.cas_rtt_us", nsPer(iters, func(n int) {
		for i := 0; i < n; i++ {
			prev, err := ep.CompareAndSwap(page, word, word+1)
			fe.note(err)
			if prev != word {
				fe.note(fmt.Errorf("cas saw %d, want %d", prev, word))
			}
			word++
		}
	})/1e3, "us")

	req := make([]byte, 42) // a nam.Request's size
	b.put("tcpnet.call_rtt_us", nsPer(iters, func(n int) {
		for i := 0; i < n; i++ {
			_, err := ep.Call(0, req)
			fe.note(err)
		}
	})/1e3, "us")

	// One pipelined round as pipeline.Engine issues it: eight posted reads,
	// one doorbell, one poll.
	bufs := make([][]uint64, 8)
	for i := range bufs {
		bufs[i] = make([]uint64, words)
	}
	var comps []rdma.Completion
	b.put("tcpnet.flush8_round_us", nsPer(b.iters(1000), func(n int) {
		for i := 0; i < n; i++ {
			for _, dst := range bufs {
				ep.PostRead(page, dst)
			}
			ep.Flush()
			comps = ep.Poll(comps[:0])
			for _, c := range comps {
				fe.note(c.Err)
			}
		}
	})/1e3, "us")
	return fe.err
}

// tcpnetFromTrace derives the two tcpnet metrics that need a whole index
// operation around the verbs, from a traced tcp-serial pass.
func (b *layerBench) tcpnetFromTrace(log *spanLog) {
	_, ops := log.selfNS("op.")
	self, verbs := log.selfNS("tcpnet.")
	b.put("tcpnet.self_us_per_op", float64(self)/1e3/float64(ops), "us")
	b.put("tcpnet.verbs_per_op", float64(verbs)/float64(ops), "count")
}

// --- pipeline -------------------------------------------------------------

func (b *layerBench) pipelineLayer(int64) error {
	fab, cat, _, err := fineOnDirect(b.keys(), 0)
	if err != nil {
		return err
	}
	var fe firstErr
	cb := func(_ []uint64, err error) { fe.note(err) }
	ks := keyStream{n: uint64(b.keys())}
	lookups := func(c *fine.PipelinedClient) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				c.Lookup(ks.next(), cb)
			}
			c.Drain()
		}
	}
	iters := b.iters(40_000)

	// Pipeline shape as the repo's own recorder sees it.
	rec := telemetry.NewRecorder(fab.NumServers())
	shaped := fine.NewPipelinedClient(telemetry.Wrap(fab.Endpoint(), rec, nil), direct.Env{}, cat, 0, 8)
	shaped.SetRecorder(rec)
	lookups(shaped)(iters)
	b.put("pipeline.coalescing_ratio", rec.CoalescingRatio(), "count")
	b.put("pipeline.avg_inflight", rec.AvgInflight(), "count")

	for _, inflight := range []int{1, 8} {
		c := fine.NewPipelinedClient(fab.Endpoint(), direct.Env{}, cat, 0, inflight)
		run := lookups(c)
		run(iters / 10) // warm slots and scratch buffers
		b.put(fmt.Sprintf("pipeline.direct_lookup_ns_inflight%d", inflight), nsPer(iters, run), "ns")
		if inflight == 8 {
			b.put("pipeline.allocs_per_op", mallocsPer(iters, run), "count")
		}
	}
	return fe.err
}

// --- btree ----------------------------------------------------------------

// asyncSink posts a traversal's verbs straight into an async endpoint, as
// pipeline.Engine does for one slot.
type asyncSink struct{ ep rdma.AsyncEndpoint }

func (s asyncSink) PostRead(p rdma.RemotePtr, dst []uint64)     { s.ep.PostRead(p, dst) }
func (s asyncSink) PostWrite(p rdma.RemotePtr, src []uint64)    { s.ep.PostWrite(p, src) }
func (s asyncSink) PostCAS(p rdma.RemotePtr, old, new uint64)   { s.ep.PostCAS(p, old, new) }
func (s asyncSink) PostFetchAdd(p rdma.RemotePtr, delta uint64) { s.ep.PostFetchAdd(p, delta) }

func (b *layerBench) btreeLayer(int64) error {
	fab, cat, _, err := fineOnDirect(b.keys(), 0)
	if err != nil {
		return err
	}
	env := direct.Env{}
	t := fine.NewClient(fab.Endpoint(), env, cat, 0).Tree()
	ks := keyStream{n: uint64(b.keys())}
	var fe firstErr
	var st btree.Stats
	iters := b.iters(50_000)

	lookup := func(n int) {
		for i := 0; i < n; i++ {
			_, s, err := t.Lookup(env, ks.next())
			fe.note(err)
			st.Add(s)
		}
	}
	lookup(iters / 10)
	st = btree.Stats{}
	b.put("btree.lookup_ns", nsPer(iters, lookup), "ns")
	b.put("btree.rtts_per_lookup", float64(st.ExposedRTTs)/float64(layerReps*iters), "count")
	b.put("btree.lookup_allocs", mallocsPer(iters, lookup), "count")

	emitted := 0
	emit := func(uint64, uint64) bool { emitted++; return true }
	scanIters := b.iters(5000)
	scan := func(n int) {
		for i := 0; i < n; i++ {
			lo := ks.next()
			_, err := t.Scan(env, lo, lo+99, emit)
			fe.note(err)
		}
	}
	b.put("btree.scan100_ns", nsPer(scanIters, scan), "ns")
	b.put("btree.scan_allocs", mallocsPer(scanIters, scan), "count")

	// The same lookup through the resumable state machine, one traversal at
	// a time over direct's post/poll surface.
	aep := rdma.Async(fab.Endpoint())
	tr := btree.NewTraversal(t, env)
	sink := asyncSink{aep}
	var comps []rdma.Completion
	b.put("btree.traversal_lookup_ns", nsPer(iters, func(n int) {
		for i := 0; i < n; i++ {
			tr.Begin(btree.TravLookup, ks.next(), 0)
			res := tr.Step(nil, sink)
			for res.Status == btree.StepRunning {
				aep.Flush()
				comps = aep.Poll(comps[:0])
				res = tr.Step(comps, sink)
			}
			if res.Status != btree.StepDone {
				fe.note(fmt.Errorf("traversal ended with status %d: %v", res.Status, res.Err))
			}
		}
	}), "ns")

	// Inserts last: they grow the tree the loops above read.
	st = btree.Stats{}
	insIters := b.iters(50_000)
	value := uint64(1) << 40
	b.put("btree.insert_ns", nsPer(insIters, func(n int) {
		for i := 0; i < n; i++ {
			value++
			s, err := t.Insert(env, ks.next(), value)
			fe.note(err)
			st.Add(s)
		}
	}), "ns")
	inserts := float64(layerReps * insIters)
	b.put("btree.rtts_per_insert", float64(st.ExposedRTTs)/inserts, "count")
	b.put("btree.restarts_per_kop", 1000*float64(st.Restarts)/inserts, "count")
	b.put("btree.splits_per_kop", 1000*float64(st.Splits)/inserts, "count")
	return fe.err
}

// --- layout ---------------------------------------------------------------

func (b *layerBench) layoutLayer(int64) error {
	l := layout.New(pageBytes)
	inner := l.NewNode()
	inner.InitInner(1)
	for i := 0; i < l.InnerCap; i++ {
		inner.InnerAppend(uint64(i)*10+9, rdma.MakePtr(0, uint64(64+i*pageBytes)))
	}
	leaf := l.NewNode()
	leaf.InitLeaf()
	half := l.LeafCap / 2
	for i := 0; i < half; i++ {
		leaf.LeafAppend(uint64(i)*10, uint64(i))
	}
	ks := keyStream{n: uint64(l.InnerCap) * 10}
	iters := b.iters(2_000_000)
	b.put("layout.inner_route_ns", nsPer(iters, func(n int) {
		for i := 0; i < n; i++ {
			p, _ := inner.InnerRoute(ks.next())
			keep ^= uint64(p)
		}
	}), "ns")
	lk := keyStream{n: uint64(half) * 10}
	b.put("layout.leaf_lower_bound_ns", nsPer(iters, func(n int) {
		for i := 0; i < n; i++ {
			keep += uint64(leaf.LeafLowerBound(lk.next()))
		}
	}), "ns")
	// Fill a half-full leaf to the brim, then restore it from the template:
	// one page copy per LeafCap/2 inserts.
	scratch := l.NewNode()
	b.put("layout.leaf_insert_ns", nsPer(iters/4, func(n int) {
		for i := 0; i < n; {
			copy(scratch.W, leaf.W)
			for ; i < n && scratch.LeafInsert(lk.next(), uint64(i)); i++ {
			}
		}
	}), "ns")
	return nil
}

// --- nam ------------------------------------------------------------------

func (b *layerBench) namLayer(int64) error {
	var fe firstErr
	iters := b.iters(500_000)
	req := nam.Request{Op: nam.OpTraverse, Key: 123456}
	reqCodec := func(n int) {
		for i := 0; i < n; i++ {
			req.Key++
			got, err := nam.DecodeRequest(req.Encode())
			fe.note(err)
			if got.Key != req.Key {
				fe.note(fmt.Errorf("request round trip lost the key"))
			}
		}
	}
	resp := nam.Response{Ptr: rdma.MakePtr(1, 4096), Values: []uint64{7}}
	respCodec := func(n int) {
		for i := 0; i < n; i++ {
			got, err := nam.DecodeResponse(resp.Encode())
			fe.note(err)
			if got.Ptr != resp.Ptr {
				fe.note(fmt.Errorf("response round trip lost the pointer"))
			}
		}
	}
	b.put("nam.request_codec_ns", nsPer(iters, reqCodec), "ns")
	b.put("nam.response_codec_ns", nsPer(iters, respCodec), "ns")
	b.put("nam.allocs_per_rpc", mallocsPer(iters, reqCodec)+mallocsPer(iters, respCodec), "count")
	return fe.err
}

// --- core/hybrid, core/coarse, core/fine ----------------------------------

// timedHandler wraps an RPC handler from outside, as SetHandler allows, and
// accumulates the time spent inside it.
type timedHandler struct {
	ns, calls int64
}

func (t *timedHandler) wrap(h rdma.Handler) rdma.Handler {
	return func(env rdma.Env, server int, req []byte) ([]byte, rdma.Work) {
		t0 := time.Now()
		resp, w := h(env, server, req)
		t.ns += int64(time.Since(t0))
		t.calls++
		return resp, w
	}
}

func (b *layerBench) coreLayer(int64) error {
	const servers = 4
	keys := b.keys()
	l := layout.New(pageBytes)
	part := partition.NewRangeUniform(servers, uint64(keys))
	ks := keyStream{n: uint64(keys)}
	var fe firstErr
	iters := b.iters(50_000)
	lookups := func(idx core.Index) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				_, err := idx.Lookup(ks.next())
				fe.note(err)
			}
		}
	}

	hfab := direct.New(servers, regionBytes(keys, servers), nam.SuperblockBytes)
	hsrv := hybrid.NewServer(hfab, hybrid.Options{Layout: l, Part: part})
	hcat, err := hsrv.Build(hfab.Endpoint(), buildSpec(keys))
	if err != nil {
		return err
	}
	var ht timedHandler
	hfab.SetHandler(ht.wrap(hsrv.Handler()))
	hrun := lookups(hybrid.NewClient(hfab.Endpoint(), direct.Env{}, hcat, 0))
	hrun(iters / 10)
	ht = timedHandler{}
	total := nsPer(iters, hrun)
	ops := float64(layerReps * iters)
	b.put("hybrid.handler_ns_per_call", float64(ht.ns)/float64(ht.calls), "ns")
	b.put("hybrid.calls_per_op", float64(ht.calls)/ops, "count")
	b.put("hybrid.client_self_ns_per_op", total-float64(ht.ns)/ops, "ns")

	cfab := direct.New(servers, regionBytes(keys, servers), nam.SuperblockBytes)
	csrv := coarse.NewServer(cfab, coarse.Options{Layout: l, Part: part})
	ccat, err := csrv.Build(buildSpec(keys))
	if err != nil {
		return err
	}
	var ct timedHandler
	cfab.SetHandler(ct.wrap(csrv.Handler()))
	crun := lookups(coarse.NewClient(cfab.Endpoint(), direct.Env{}, ccat))
	crun(iters / 10)
	ct = timedHandler{}
	nsPer(iters, crun)
	b.put("coarse.handler_ns_per_call", float64(ct.ns)/float64(ct.calls), "ns")

	// On direct a verb is a bounds check and a copy, so a fine-grained
	// lookup's time is the client's own.
	ffab, fcat, _, err := fineOnDirect(keys, 0)
	if err != nil {
		return err
	}
	frun := lookups(fine.NewClient(ffab.Endpoint(), direct.Env{}, fcat, 0))
	frun(iters / 10)
	b.put("fine.client_self_ns_per_op", nsPer(iters, frun), "ns")
	return fe.err
}

// --- the onion: one ring at a time ----------------------------------------

// ringNames are the rings in the order they are added; each stack is the
// previous one plus one ring (telemetry_on replaces telemetry_off).
var ringNames = []string{"bare", "telemetry_off", "telemetry_on", "retry", "faultnet_nofault", "repl_router", "obs_log", "recovered"}

// ringStack builds the client onion up to and including ring level on a
// replicated fine-grained deployment, rings in their deployed order:
// transport → telemetry → faultnet → repl.Router → retry → client (+obs) →
// core.Recovered.
func ringStack(level int, fab *direct.Fabric, cat *nam.Catalog, lay nam.ReplicaLayout) core.Index {
	var ep rdma.Endpoint = fab.Endpoint()
	switch {
	case level >= 2:
		ep = telemetry.Wrap(ep, telemetry.NewRecorder(fab.NumServers()), nil)
	case level >= 1:
		ep = telemetry.Wrap(ep, nil, nil)
	}
	if level >= 4 {
		ep = faultnet.New(faultnet.Schedule{}, nil).Endpoint(ep, 0)
	}
	if level >= 5 {
		ep = repl.NewRouter(ep, lay, nil, nil)
	}
	if level >= 3 {
		ep = retry.Wrap(ep, &retry.Policy{})
	}
	client := fine.NewClient(ep, direct.Env{}, cat, 0)
	if level >= 6 {
		client.SetOpLog(obs.NewLog(0, obs.Wall))
	}
	if level >= 7 {
		return core.Recover(client, 0, nil)
	}
	return client
}

func (b *layerBench) ringLayer(int64) error {
	fab, cat, lay, err := fineOnDirect(b.keys(), 2)
	if err != nil {
		return err
	}
	var fe firstErr
	iters := b.iters(20_000)
	stacks := make([]core.Index, len(ringNames))
	streams := make([]keyStream, len(ringNames))
	for i := range stacks {
		stacks[i] = ringStack(i, fab, cat, lay)
		streams[i] = keyStream{n: uint64(b.keys())} // every stack looks up the same keys
	}
	run := func(i, n int) {
		for j := 0; j < n; j++ {
			_, err := stacks[i].Lookup(streams[i].next())
			fe.note(err)
		}
	}
	// Interleave the stacks inside every repetition, so drift in the box's
	// speed hits all of them alike and cancels in the differences.
	per := make([][]float64, len(stacks))
	for r := 0; r < layerReps+2; r++ {
		for i := range stacks {
			t0 := time.Now()
			run(i, iters)
			if r >= 2 { // the first two rounds warm caches and buffers
				per[i] = append(per[i], float64(time.Since(t0))/float64(iters))
			}
		}
	}
	var prevNS, prevAllocs float64
	for i, name := range ringNames {
		ns := median(per[i])
		allocs := mallocsPer(iters, func(n int) { run(i, n) })
		b.put("ring."+name+"_ns", ns-prevNS, "ns")
		b.put("ring."+name+"_allocs", allocs-prevAllocs, "count")
		prevNS, prevAllocs = ns, allocs
	}

	log := obs.NewLog(0, &obs.TickClock{})
	b.put("obs.record_event_ns", nsPer(b.iters(2_000_000), func(n int) {
		for i := 0; i < n; i++ {
			log.Event(obs.EvCacheHit, uint64(i), 0)
		}
	}), "ns")
	return fe.err
}

// --- repl -----------------------------------------------------------------

func (b *layerBench) replLayer(int64) error {
	var fe firstErr
	iters := b.iters(20_000)
	// verbsPerInsert counts blocking verbs below the router — each is one
	// round trip — per insert, with or without the mirrorer.
	verbsPerInsert := func(mirror bool) (float64, error) {
		fab, cat, lay, err := fineOnDirect(b.keys(), 2)
		if err != nil {
			return 0, err
		}
		ep, counter := wrapEndpoint(fab.Endpoint(), nil, "direct")
		router := repl.NewRouter(ep, lay, nil, nil)
		c := fine.NewClient(router, direct.Env{}, cat, 0)
		if mirror {
			c.SetReplicator(repl.NewMirrorer(router, direct.Env{}, nil))
		}
		ks := keyStream{n: uint64(b.keys())}
		for i := 0; i < iters; i++ {
			fe.note(c.Insert(ks.next(), uint64(1)<<40|uint64(i)))
		}
		return float64(counter.verbs) / float64(iters), nil
	}
	with, err := verbsPerInsert(true)
	if err != nil {
		return err
	}
	without, err := verbsPerInsert(false)
	if err != nil {
		return err
	}
	b.put("repl.rtts_per_insert", with, "count")
	b.put("repl.mirror_verbs_per_insert", with-without, "count")
	return fe.err
}

// --- cache ----------------------------------------------------------------

func (b *layerBench) cacheLayer(seed int64) error {
	fab, cat, _, err := fineOnDirect(b.keys(), 0)
	if err != nil {
		return err
	}
	var fe firstErr
	iters := b.iters(50_000)
	lookups := func(c *fine.Client, next func() uint64) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				_, err := c.Lookup(next())
				fe.note(err)
			}
		}
	}
	cached := func(pages int) (*fine.Client, *cache.Mem) {
		return fine.NewCachedClient(fab.Endpoint(), direct.Env{}, cat, 0, pages)
	}

	zipf, err := workload.NewGenerator(workload.Config{
		Mix: workload.WorkloadA, DataSize: uint64(b.keys()), Dist: workload.Zipfian, Seed: seed,
	}, 0)
	if err != nil {
		return err
	}
	zc, zm := cached(1000)
	lookups(zc, func() uint64 { return zipf.Next().Key })(iters)
	b.put("cache.hit_rate_zipf_1k_pages", zm.HitRate(), "count")

	// One key over and over: after the first lookup every level hits.
	hc, _ := cached(1000)
	hot := lookups(hc, func() uint64 { return 42 })
	hot(100)
	b.put("cache.hit_ns", nsPer(iters, hot), "ns")

	// Uniform keys: the inner levels fit in the cache and hit, almost every
	// leaf misses. What the cache adds on that path is the cached client's
	// time over the plain client's.
	ks := keyStream{n: uint64(b.keys())}
	mc, _ := cached(1000)
	miss := lookups(mc, ks.next)
	plain := lookups(fine.NewClient(fab.Endpoint(), direct.Env{}, cat, 0), ks.next)
	miss(iters / 5)
	plain(iters / 5)
	b.put("cache.miss_added_ns", nsPer(iters, miss)-nsPer(iters, plain), "ns")
	return fe.err
}

// --- policy ---------------------------------------------------------------

func (b *layerBench) policyLayer(int64) error {
	const parts = 4
	win := policy.NewWindow(parts)
	eng := policy.NewEngine(policy.Defaults(parts), win, &obs.TickClock{})
	iters := b.iters(1_000_000)
	b.put("policy.observe_traverse_ns", nsPer(iters, func(n int) {
		for i := 0; i < n; i++ {
			win.ObserveTraverse(i%parts, policy.StrategyRPC, int64(2000+i%64), 3)
		}
	}), "ns")
	b.put("policy.strategy_ns", nsPer(iters, func(n int) {
		for i := 0; i < n; i++ {
			keep += uint64(eng.Strategy(i % parts))
		}
	}), "ns")
	return nil
}

// --- sim ------------------------------------------------------------------

func (b *layerBench) simLayer(int64) error {
	iters := b.iters(200_000)
	sleeper := func(n int) {
		s := sim.New()
		s.Spawn("sleeper", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(1)
			}
		})
		s.Run()
		s.Shutdown()
	}
	b.put("sim.sleep_wakeup_ns", nsPer(iters, sleeper), "ns")
	b.put("sim.sleep_wakeup_allocs", mallocsPer(iters, sleeper), "count")

	// Two processes taking turns on a one-slot resource: every Acquire but
	// the first waits for the other's Release.
	b.put("sim.resource_handoff_ns", nsPer(iters, func(n int) {
		s := sim.New()
		r := sim.NewResource(s, 1)
		for w := 0; w < 2; w++ {
			s.Spawn("worker", func(p *sim.Proc) {
				for i := 0; i < n/2; i++ {
					r.Acquire(p)
					p.Sleep(1)
					r.Release()
				}
			})
		}
		s.Run()
		s.Shutdown()
	}), "ns")

	b.put("sim.queue_put_get_ns", nsPer(iters, func(n int) {
		s := sim.New()
		q := sim.NewQueue(s)
		s.Spawn("consumer", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				q.Get(p)
			}
		})
		s.Spawn("producer", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				q.Put(i)
				p.Sleep(1)
			}
		})
		s.Run()
		s.Shutdown()
	}), "ns")
	return nil
}

// --- simnet ---------------------------------------------------------------

func (b *layerBench) simnetLayer(seed int64) error {
	panel, err := runPanel(miniPanel.scaledKeys(b.div), seed, func(c *bench.Config) { c.Telemetry = true })
	if err != nil {
		return err
	}
	var verbs int64
	var nic, cores float64
	for i := range panel.res {
		if rec := panel.res[i].Telemetry; rec != nil {
			verbs += rec.TotalOps()
		}
		for _, u := range panel.res[i].Util.ServerNIC {
			nic = max(nic, u)
		}
		for _, u := range panel.res[i].Util.Cores {
			cores = max(cores, u)
		}
	}
	if verbs == 0 {
		return fmt.Errorf("telemetry-enabled panel recorded no verbs")
	}
	b.put("simnet.host_us_per_verb", panel.hostSeconds()*1e6/float64(verbs), "us")
	b.put("simnet.rtts_per_op_fig8_fine", panel.res[ptFig8Fine].Telemetry.RTTsPerOp(), "count")
	b.put("simnet.rtts_per_op_repl2_insert", panel.res[ptRepl2Insert].Telemetry.RTTsPerOp(), "count")
	b.put("simnet.nic_util_max", nic, "count")
	b.put("simnet.core_util_max", cores, "count")
	b.put("simnet.net_gbps_fig8_fine", panel.res[ptFig8Fine].NetGBps, "GB/s")
	return nil
}

// --- workload, stats: the harness's own overhead --------------------------

func (b *layerBench) harnessLayer(seed int64) error {
	gen, err := workload.NewGenerator(workload.Config{
		Mix: hostSpecs[0].mix, DataSize: 1_000_000, Selectivity: 1e-4, Seed: seed, Clients: 1,
	}, 0)
	if err != nil {
		return err
	}
	iters := b.iters(2_000_000)
	b.put("workload.next_ns", nsPer(iters, func(n int) {
		for i := 0; i < n; i++ {
			keep += gen.Next().Key
		}
	}), "ns")
	var h stats.Histogram
	b.put("stats.record_ns", nsPer(iters, func(n int) {
		for i := 0; i < n; i++ {
			h.Record(30_000 + int64(i&0x3fff)) // spread over a few buckets, like real latencies
		}
	}), "ns")
	return nil
}
