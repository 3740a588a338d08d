// Package hybrid implements Design 3 of the paper (Section 5): the hybrid
// index.
//
// The upper levels (root and inner nodes) are partitioned coarse-grained:
// each memory server owns the inner levels for its key range and traverses
// them on behalf of clients via an RPC that returns a *remote pointer to the
// responsible leaf*. The leaf level is distributed fine-grained: leaves are
// placed round-robin across all memory servers and accessed by compute
// servers with the one-sided protocol, including head-node prefetching for
// range scans. A leaf split is performed one-sided by the compute server,
// which then reports the new separator upstairs with a second RPC; the
// owning memory server installs it into its local inner levels (Listing 1's
// second phase).
package hybrid

import (
	"errors"
	"fmt"

	"github.com/namdb/rdmatree/internal/btree"
	"github.com/namdb/rdmatree/internal/core"
	"github.com/namdb/rdmatree/internal/core/rpc"
	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/obs"
	"github.com/namdb/rdmatree/internal/partition"
	"github.com/namdb/rdmatree/internal/pipeline"
	"github.com/namdb/rdmatree/internal/policy"
	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/telemetry"
)

// Options configures the design (rpc.Options).
type Options = rpc.Options

// Server is the server side: per-server upper-level trees.
type Server struct {
	rpc *rpc.Server
}

// SetLoadProbe installs one CPU-utilization probe per server, made by probe
// and shared by the server's handlers. Replies then carry the load signal
// the adaptive traversal policy consumes: the crossover between RPC offload
// and one-sided traversal moves with server load. The deployment supplies
// the probes (simnet.Fabric.ServerCoreLoad), keeping this package free of
// any dependency on the fabric's implementation.
func (s *Server) SetLoadProbe(probe func(server int) func() float64) {
	s.rpc.Load = make([]func() float64, s.rpc.Fab.NumServers())
	for i := range s.rpc.Load {
		s.rpc.Load[i] = probe(i)
	}
}

// NewServer wires the design's server side onto a fabric.
func NewServer(fab rdma.Fabric, opts Options) *Server {
	return &Server{rpc: rpc.NewServer(fab, nam.Hybrid, opts)}
}

// Build bulk-loads the index: for every server's partition, the leaf level
// (with head nodes) is placed round-robin across *all* servers through
// setupEp, while the inner levels stay on the owning server. Partitions are
// guaranteed an inner root even when tiny, so server-side traversal never
// touches a foreign leaf.
func (s *Server) Build(setupEp rdma.Endpoint, spec core.BuildSpec) (*nam.Catalog, error) {
	for srv := 0; srv < s.rpc.Fab.NumServers(); srv++ {
		if err := s.BuildServer(setupEp, srv, spec); err != nil {
			return nil, err
		}
	}
	return s.rpc.Cat, nil
}

// BuildServer bulk-loads one partition only: its leaves are spread over all
// servers (written through setupEp, which must reach the whole cluster — on
// a distributed deployment this is a TCP endpoint to the peers), its inner
// levels stay on the owning server. Distributed deployments (cmd/namserver
// -design hybrid) call this with their own server ID after all peers are
// listening; the spec must be identical on every process.
func (s *Server) BuildServer(setupEp rdma.Endpoint, srv int, spec core.BuildSpec) error {
	servers := s.rpc.Fab.NumServers()
	rr := srv // stagger leaf placement across independently-built partitions
	place := func(level int) int {
		if level == 0 {
			p := rr
			rr = (rr + 1) % servers
			return p
		}
		return srv
	}
	t := btree.New(s.rpc.Layout, &btree.EndpointMem{Ep: setupEp, Place: place}, s.rpc.Cat.RootWords[srv])
	count, at := rpc.Partition(spec, s.rpc.Part, srv)
	cfg := btree.BuildConfig{Fill: spec.Fill, HeadEvery: spec.HeadEvery}
	if count == 0 {
		if err := t.Init(rdma.NopEnv{}); err != nil { //rdmavet:allow nopenv -- bootstrap: runs once before timed traffic
			return err
		}
	} else if _, err := t.Build(rdma.NopEnv{}, cfg, count, at); err != nil { //rdmavet:allow nopenv -- bulk load is an untimed setup path
		return fmt.Errorf("hybrid: building server %d: %w", srv, err)
	}
	// Guarantee the root is an inner node on the owning server: wrap a
	// single-leaf tree in a one-entry inner root.
	return ensureInnerRoot(setupEp, s.rpc.Layout, srv, s.rpc.Cat.RootWords[srv])
}

// Catalog returns the catalog describing this deployment. It depends only
// on the options, so every process of a distributed deployment serves the
// same one whichever partitions it built.
func (s *Server) Catalog() *nam.Catalog { return s.rpc.Cat }

// ensureInnerRoot wraps a leaf root in a local inner root (the hybrid
// invariant: server-side traversal only touches local inner nodes).
func ensureInnerRoot(ep rdma.Endpoint, l layout.Layout, srv int, rootWord rdma.RemotePtr) error {
	var w [1]uint64
	if err := ep.Read(rootWord, w[:]); err != nil {
		return err
	}
	rootPtr := rdma.RemotePtr(w[0])
	buf := make([]uint64, l.Words)
	if err := ep.Read(rootPtr, buf); err != nil {
		return err
	}
	n := l.Wrap(buf)
	if !n.IsLeaf() {
		if rootPtr.Server() != srv {
			return fmt.Errorf("hybrid: inner root of server %d placed on server %d", srv, rootPtr.Server())
		}
		return nil
	}
	innerPtr, err := ep.Alloc(srv, l.PageBytes)
	if err != nil {
		return err
	}
	inner := l.NewNode()
	inner.InitInner(1)
	inner.InnerAppend(layout.MaxKey, rootPtr)
	if err := ep.Write(innerPtr, inner.W); err != nil {
		return err
	}
	return ep.Write(rootWord, []uint64{uint64(innerPtr)})
}

// Handler returns the RPC handler serving OpTraverse, OpInstall and
// OpCatalog.
func (s *Server) Handler() rdma.Handler { return s.rpc.Handler(serve) }

// serve executes a traverse or an install on t. Handlers only ever touch
// inner nodes, which are all local.
func serve(env rdma.Env, t *btree.Tree, req nam.Request) (resp nam.Response, st btree.Stats) {
	var err error
	switch req.Op {
	case nam.OpTraverse:
		resp.Ptr, st, err = t.FindLeaf(env, req.Key)
	case nam.OpInstall:
		st, err = t.Install(env, 1, req.End, req.Left, req.Right)
	default:
		return *nam.ErrResponse(fmt.Errorf("hybrid: bad op %d", req.Op)), st
	}
	if err != nil {
		return rpc.ErrResponse(err), st
	}
	resp.Status = nam.StatusOK
	return resp, st
}

// CheckInvariants verifies every partition's tree through a global view
// (tests only) and returns total live entries.
func (s *Server) CheckInvariants(ep rdma.Endpoint) (int, error) {
	total := 0
	for i := 0; i < s.rpc.Fab.NumServers(); i++ {
		t := btree.New(s.rpc.Layout, &btree.EndpointMem{Ep: ep, Place: btree.Fixed(i)}, s.rpc.Cat.RootWords[i])
		n, err := t.CheckInvariants(rdma.NopEnv{}) //rdmavet:allow nopenv -- test-only invariant sweep, never on the timed path
		if err != nil {
			return 0, fmt.Errorf("server %d: %w", i, err)
		}
		total += n
	}
	return total, nil
}

// GC is the hybrid design's split garbage collection (Section 5): a global
// thread on a compute server compacts the fine-grained leaf level through
// the one-sided protocol, while each memory server compacts nothing locally
// (upper levels hold no delete bits; separator removal is not needed because
// merges are left to the global thread too, which reports them upstairs just
// like splits). This implementation performs leaf compaction per partition.
type GC struct {
	c *Client
}

// NewGC creates the global garbage collector driving the index through
// client c.
func NewGC(c *Client) *GC { return &GC{c: c} }

// RunEpoch compacts delete-bit entries in every partition's leaf chain and
// returns the number of entries removed.
func (g *GC) RunEpoch() (removed int, err error) {
	for srv := 0; srv < g.c.rpc.Cat.Servers; srv++ {
		leaf, err := g.c.traverse(srv, 0)
		if err != nil {
			return removed, err
		}
		r, _, err := g.c.leaf.CompactFrom(g.c.env, leaf)
		if err != nil {
			return removed, err
		}
		removed += r
	}
	return removed, nil
}

// Client is one compute thread's handle onto a hybrid index. Like its
// endpoint, a Client is owned by a single goroutine.
type Client struct {
	rpc  rpc.Client
	env  rdma.Env
	part partition.Partitioner
	// leaf drives the one-sided leaf-level protocol over leafMem, whose
	// placement policy spreads split pages round-robin (leaves stay
	// fine-grained).
	leaf    *btree.Tree
	leafMem *btree.EndpointMem
	rec     *telemetry.Recorder

	// dec, when non-nil, selects the traversal strategy per operation
	// (policy.Decider); upper[srv] is the client-side handle onto server
	// srv's inner levels for one-sided traversal, built on SetDecider.
	dec    policy.Decider
	upper  []*btree.Tree
	feed   policy.Feed
	pclock policy.Clock
}

// Mirrorer is the client-side replication engine (repl.Mirrorer): the leaf
// tree mirrors its own one-sided commits through the btree.Replicator half,
// and server-captured post-images from traverse/install RPCs are replayed
// through the Push half.
type Mirrorer interface {
	btree.Replicator
	nam.DirtyPusher
}

var _ core.Index = (*Client)(nil)

// NewClient binds a client to an endpoint; rrStart staggers split placement.
func NewClient(ep rdma.Endpoint, env rdma.Env, cat *nam.Catalog, rrStart int) *Client {
	m := &btree.EndpointMem{Ep: ep, Place: btree.RoundRobin(cat.Servers, rrStart)}
	return &Client{
		rpc:     rpc.Client{Ep: ep, Cat: cat},
		env:     env,
		part:    cat.Partitioner(),
		leaf:    btree.New(layout.New(cat.PageBytes), m, rdma.NullPtr),
		leafMem: m,
	}
}

// Pipeline returns an engine that keeps up to inflight of c's operations
// outstanding at once, their traverse RPCs sharing doorbell batches
// (DESIGN.md §11); inflight <= 0 selects pipeline.DefaultInflight. Each slot
// runs c's two halves of an operation. The upper-level traversal is either a
// posted traverse RPC, the call that dominates the exposed latency and that
// the engine pipelines, or, when the decider picks one-sided, the
// client-side descent, run with blocking fused reads in the machine's first
// step. The leaf half (the one-sided leaf access, and a split's install
// RPC) then runs with blocking verbs in the same step; splits are rare, and
// pipelining the leaf half would buy little and complicate the exactly-once
// argument. The engine calls machines only outside a Flush..Poll window,
// where the rdma.AsyncEndpoint contract allows blocking verbs next to other
// slots' unflushed posts, so from here on c's leaf level runs its publish
// pair as two blocking verbs rather than posting it
// (btree.EndpointMem.Borrowed). The engine's Range drains it and runs c's.
// internal/deploy refuses a pipelined client on a replicated catalog: the
// replica router has no Post/Flush/Poll, so the engine would fall back to
// blocking verbs.
func (c *Client) Pipeline(inflight int) *pipeline.Engine {
	c.leafMem.Borrowed = true
	return pipeline.New(pipeline.Config{
		Ep:         c.rpc.Ep,
		Env:        c.env,
		Inflight:   inflight,
		Index:      c,
		NewMachine: func() pipeline.Machine { return &machine{c: c} },
	})
}

// machine is the hybrid design's pipeline.Machine.
type machine struct {
	c          *Client
	op         btree.TraversalOp
	key, value uint64
	t0         int64 // policy-clock posting time of the traverse RPC
	out        pipeline.Outcome
}

func (m *machine) Begin(op btree.TraversalOp, key, value uint64) {
	m.op, m.key, m.value = op, key, value
	m.out = pipeline.Outcome{Part: m.c.part.Server(key)}
}

// Step locates the leaf — by the traverse RPC's completion, or on the first
// step by a one-sided descent when the decider picks it — and runs the leaf
// half. A QP error on the RPC blocks the slot for a reconnect; errors of the
// blocking verbs fail the attempt into the engine's operation-level
// recovery.
func (m *machine) Step(comps []rdma.Completion, sink pipeline.Sink) btree.StepResult {
	srv := m.out.Part
	var leaf rdma.RemotePtr
	var err error
	if comps != nil {
		leaf, err = m.c.traversed(srv, m.t0, comps[0].Resp, comps[0].Err)
		if errors.Is(err, rdma.ErrQPError) {
			return btree.StepResult{Status: btree.StepBlocked, Server: srv, Err: err}
		}
	} else if m.c.oneSided(srv) {
		leaf, err = m.c.traverseOneSided(srv, m.key)
	} else {
		return m.Redo(sink)
	}
	if err == nil {
		m.out.Values, m.out.Found, err = m.c.leafOp(srv, m.op, leaf, m.key, m.value)
	}
	if err != nil {
		return btree.StepResult{Status: btree.StepFailed, Err: err}
	}
	return btree.StepResult{Status: btree.StepDone}
}

// Redo posts the traverse RPC; a failed call never executed (DESIGN.md §9),
// so reposting it is safe.
func (m *machine) Redo(sink pipeline.Sink) btree.StepResult {
	if m.c.feed != nil {
		m.t0 = m.c.pclock.Now()
	}
	req := nam.Request{Op: nam.OpTraverse, Key: m.key}
	sink.PostCall(m.out.Part, m.c.rpc.Encode(m.out.Part, &req))
	return btree.StepResult{Status: btree.StepRunning}
}

func (m *machine) Abort(err error) btree.StepResult {
	return btree.StepResult{Status: btree.StepFailed, Err: err}
}

func (m *machine) TakePause() bool { return false }

func (m *machine) Outcome() pipeline.Outcome { return m.out }

// SetRecorder directs the client-side (one-sided leaf level) protocol
// counters into rec. The server-side traversal counters are recorded by the
// handler through Options.Telemetry.
func (c *Client) SetRecorder(rec *telemetry.Recorder) { c.rec = rec }

// SetOpLog threads the per-operation span tracer through the client: op
// boundaries carry the partition owning the key's inner levels, traverse and
// install RPCs record their destination and outcome, and the one-sided leaf
// engine's memory accesses are decorated into the flight recorder. A nil log
// disables tracing.
func (c *Client) SetOpLog(log *obs.Log) {
	c.rpc.Log = log
	c.leaf.M = obs.WrapMem(c.leaf.M, log)
	for _, t := range c.upper {
		t.M = obs.WrapMem(t.M, log)
	}
}

// SetDecider installs the traversal-policy hook consulted once per operation:
// policy.StrategyOneSided routes the upper-level descent through one-sided
// fused reads of the owner's inner nodes (the B-link right-links make that
// correct against concurrent handler-side installs), policy.StrategyRPC keeps
// the traverse offloaded. Splits always report upstairs via the install RPC
// regardless of strategy — only the read path is policy-driven. A nil d
// restores the static RPC design.
func (c *Client) SetDecider(d policy.Decider) {
	c.dec = d
	if d == nil {
		return
	}
	if c.upper == nil {
		cat := c.rpc.Cat
		l := layout.New(cat.PageBytes)
		c.upper = make([]*btree.Tree, cat.Servers)
		for srv := range c.upper {
			t := btree.New(l, &btree.EndpointMem{Ep: c.rpc.Ep, Place: btree.Fixed(srv)}, cat.RootWords[srv])
			t.SpinBudget = c.leaf.SpinBudget
			if c.rpc.Log != nil {
				t.M = obs.WrapMem(t.M, c.rpc.Log)
			}
			c.upper[srv] = t
		}
	}
}

// SetSignalFeed directs per-traversal and per-leaf-access observations into
// f, timestamped off clock — the measurement half of the adaptive loop (the
// decision half is SetDecider). Both must be non-nil, or both nil.
func (c *Client) SetSignalFeed(f policy.Feed, clock policy.Clock) {
	c.feed, c.pclock = f, clock
}

// InvalidateRoot implements core.RootInvalidator. The hybrid client caches
// no descent state itself (every operation starts from a traversal RPC), but
// the one-sided leaf engine — and, adaptive, each upper-level handle — keeps
// the usual root-word cache; drop them so a post-fault retry starts from
// fresh state.
func (c *Client) InvalidateRoot() {
	c.leaf.InvalidateRoot()
	for _, t := range c.upper {
		t.InvalidateRoot()
	}
}

// SetSpinBudget bounds the leaf engine's consistency restarts per operation
// (btree.Tree.SpinBudget); clients running under fault injection set it so a
// stuck leaf lock surfaces as btree.ErrSpinBudget instead of a hang.
func (c *Client) SetSpinBudget(n int) {
	c.leaf.SpinBudget = n
	for _, t := range c.upper {
		t.SpinBudget = n
	}
}

func (c *Client) record(st btree.Stats) {
	if c.rec != nil {
		c.rec.RecordIndexOp(st)
	}
}

// SetMirrorer installs the client's replication engine: both the one-sided
// leaf level and the handler-committed inner pages mirror through it before
// any operation acks. A nil m disables replication.
func (c *Client) SetMirrorer(m Mirrorer) {
	if m == nil {
		c.rpc.Mir = nil
		c.leaf.Repl = nil
		return
	}
	c.rpc.Mir = m
	c.leaf.Repl = m
}

// oneSided consults the decider: whether this traversal of server's upper
// levels runs client-side.
func (c *Client) oneSided(server int) bool {
	return c.dec != nil && c.dec.Strategy(server) == policy.StrategyOneSided
}

// traverse locates the leaf responsible for key: an RPC to the partition
// owner, or — when the policy engine says the crossover favors it — a
// one-sided descent of the owner's inner levels.
func (c *Client) traverse(server int, key uint64) (rdma.RemotePtr, error) {
	if c.oneSided(server) {
		return c.traverseOneSided(server, key)
	}
	var t0 int64
	if c.feed != nil {
		t0 = c.pclock.Now()
	}
	req := nam.Request{Op: nam.OpTraverse, Key: key}
	raw, err := c.rpc.Send(server, &req)
	return c.traversed(server, t0, raw, err)
}

// traversed finishes a traverse RPC to server issued at policy-clock time t0.
func (c *Client) traversed(server int, t0 int64, raw []byte, err error) (rdma.RemotePtr, error) {
	resp, err := c.rpc.Response(server, nam.OpTraverse, raw, err)
	if err != nil {
		return rdma.NullPtr, err
	}
	if c.feed != nil {
		c.feed.ObserveTraverse(server, policy.StrategyRPC, c.pclock.Now()-t0, 0)
		c.feed.ObserveCPU(server, float64(resp.Load)/100)
	}
	if resp.Ptr.IsNull() {
		return rdma.NullPtr, fmt.Errorf("hybrid: traverse returned null leaf")
	}
	return resp.Ptr, nil
}

// traverseOneSided walks server's upper levels with fused reads. The descent
// is read-only (inner-level writes happen only in the owner's install
// handlers), so it needs no mirroring; under replication c.rpc.Ep is
// already the group-routing endpoint and the group root word resolves to
// the acting primary.
func (c *Client) traverseOneSided(server int, key uint64) (rdma.RemotePtr, error) {
	var t0 int64
	if c.feed != nil {
		t0 = c.pclock.Now()
	}
	leaf, st, err := c.upper[server].FindLeaf(c.env, key)
	c.record(st)
	if err != nil {
		return rdma.NullPtr, err
	}
	if c.feed != nil {
		c.feed.ObserveTraverse(server, policy.StrategyOneSided, c.pclock.Now()-t0, st.Depth)
	}
	if leaf.IsNull() {
		return rdma.NullPtr, fmt.Errorf("hybrid: traverse returned null leaf")
	}
	return leaf, nil
}

// leafOp is the leaf half of a point operation on key, whose partition
// server's upper levels located leaf: the one-sided leaf access and, when an
// insert split the leaf, the install RPC reporting the separator upstairs.
// It reports a lookup's values and whether a delete marked an entry.
func (c *Client) leafOp(server int, op btree.TraversalOp, leaf rdma.RemotePtr, key, value uint64) ([]uint64, bool, error) {
	var t0 int64
	if c.feed != nil {
		t0 = c.pclock.Now()
	}
	var (
		vals  []uint64
		found bool
		sp    *btree.Split
		st    btree.Stats
		err   error
	)
	bytes := 8
	switch op {
	case btree.TravLookup:
		vals, st, err = c.leaf.LeafLookup(c.env, leaf, key)
		bytes = 8 * len(vals)
	case btree.TravInsert:
		sp, st, err = c.leaf.LeafInsertAt(c.env, leaf, key, value)
	default:
		found, st, err = c.leaf.LeafDeleteAt(c.env, leaf, key, value)
	}
	c.record(st)
	if c.feed != nil && err == nil {
		c.feed.ObserveLeaf(server, c.pclock.Now()-t0, st.ExposedRTTs, bytes)
	}
	if err == nil && sp != nil {
		_, err = c.rpc.Call(server, &nam.Request{Op: nam.OpInstall, End: sp.Sep, Left: sp.Left, Right: sp.Right})
	}
	return vals, found, err
}

// Lookup implements core.Index: RPC traversal + one-sided leaf read.
func (c *Client) Lookup(key uint64) ([]uint64, error) {
	c.rpc.Log.BeginOp(obs.OpLookup, key, c.part.Server(key))
	vals, _, err := c.point(btree.TravLookup, key, 0)
	c.rpc.Log.EndOp(err)
	return vals, err
}

// point runs a point operation: the upper-level traversal of key's
// partition, then the leaf half.
func (c *Client) point(op btree.TraversalOp, key, value uint64) ([]uint64, bool, error) {
	srv := c.part.Server(key)
	leaf, err := c.traverse(srv, key)
	if err != nil {
		return nil, false, err
	}
	return c.leafOp(srv, op, leaf, key, value)
}

// Range implements core.Index: per intersecting partition, RPC traversal to
// the start leaf, then a one-sided leaf-level scan with head-node prefetch.
func (c *Client) Range(lo, hi uint64, emit func(k, v uint64) bool) error {
	c.rpc.Log.BeginOp(obs.OpRange, lo, -1)
	err := c.doRange(lo, hi, emit)
	c.rpc.Log.EndOp(err)
	return err
}

func (c *Client) doRange(lo, hi uint64, emit func(k, v uint64) bool) error {
	stopped := false
	emitted := 0
	wrapped := func(k, v uint64) bool {
		if !emit(k, v) {
			stopped = true
			return false
		}
		emitted++
		return true
	}
	for _, srv := range c.part.CoversRange(lo, hi) {
		leaf, err := c.traverse(srv, lo)
		if err != nil {
			return err
		}
		var t0 int64
		if c.feed != nil {
			t0 = c.pclock.Now()
			emitted = 0
		}
		st, err := c.leaf.LeafScan(c.env, leaf, lo, hi, wrapped)
		c.record(st)
		if c.feed != nil && err == nil {
			c.feed.ObserveLeaf(srv, c.pclock.Now()-t0, st.ExposedRTTs, 16*emitted)
		}
		if err != nil {
			return err
		}
		if stopped {
			return nil
		}
	}
	return nil
}

// Insert implements core.Index: RPC traversal, one-sided leaf insert/split,
// and — on split — a second RPC installing the separator upstairs.
func (c *Client) Insert(key, value uint64) error {
	c.rpc.Log.BeginOp(obs.OpInsert, key, c.part.Server(key))
	_, _, err := c.point(btree.TravInsert, key, value)
	c.rpc.Log.EndOp(err)
	return err
}

// Delete implements core.Index.
func (c *Client) Delete(key, value uint64) (bool, error) {
	c.rpc.Log.BeginOp(obs.OpDelete, key, c.part.Server(key))
	_, ok, err := c.point(btree.TravDelete, key, value)
	c.rpc.Log.EndOp(err)
	return ok, err
}
