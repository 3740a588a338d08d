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
	"sync"

	"github.com/namdb/rdmatree/internal/btree"
	"github.com/namdb/rdmatree/internal/core"
	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/obs"
	"github.com/namdb/rdmatree/internal/partition"
	"github.com/namdb/rdmatree/internal/policy"
	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/rdma/repl"
	"github.com/namdb/rdmatree/internal/telemetry"
)

// Options configures the hybrid design.
type Options struct {
	// Layout is the page layout (page size P).
	Layout layout.Layout
	// Part partitions the key space across the servers owning upper levels.
	Part partition.Partitioner
	// VisitNS is the CPU time an RPC handler charges per page visited
	// (performance model of the simulated fabric).
	VisitNS int64
	// Telemetry, when non-nil, receives the per-operation protocol counters
	// of the handler-executed traversals and installs.
	Telemetry *telemetry.Recorder
	// Replicas is the page-replication factor k (0 and 1 both mean
	// unreplicated). Replicated deployments must configure the fabric with
	// the nam.ReplicaLayout slab allocators before building; install
	// handlers then capture committed post-images into the response's Dirty
	// trailer for the client to mirror.
	Replicas int
	// RegionBytes is the uniform registered-region size; required (and
	// recorded in the catalog) when Replicas >= 2.
	RegionBytes uint64
	// SpinBudget bounds each handler-executed tree operation's consistency
	// restarts (btree.Tree.SpinBudget); 0 leaves the waits unbounded.
	// Fault-injected replicated deployments must set it: an install that
	// waits for split state lost with a crashed primary otherwise spins
	// forever (the writer it waits for is dead). With a budget the handler
	// fails the RPC with a StatusRetry response instead, and the client
	// re-runs the operation — the half-split leaf stays reachable through
	// its right link, so the re-run's presence check can ack it.
	SpinBudget int
}

// Server is the server side: per-server upper-level trees.
type Server struct {
	opts    Options
	fab     rdma.Fabric
	catalog *nam.Catalog
	handles sync.Pool // *btree.Tree handles, recycled across handler calls
	// load, when non-nil, holds each server's handler-CPU utilization probe
	// ([0,1]), piggybacked on every reply (nam.Response.Load).
	load []func() float64
}

// SetLoadProbe installs one CPU-utilization probe per server, made by probe
// and shared by the server's handlers. Replies then carry the load signal
// the adaptive traversal policy consumes: the crossover between RPC offload
// and one-sided traversal moves with server load. The deployment supplies
// the probes (simnet.Fabric.ServerCoreLoad), keeping this package free of
// any dependency on the fabric's implementation.
func (s *Server) SetLoadProbe(probe func(server int) func() float64) {
	s.load = make([]func() float64, s.fab.NumServers())
	for i := range s.load {
		s.load[i] = probe(i)
	}
}

// NewServer wires the design's server side onto a fabric.
func NewServer(fab rdma.Fabric, opts Options) *Server {
	if opts.Part.Servers() != fab.NumServers() {
		panic("hybrid: partitioner/fabric server count mismatch")
	}
	cat := nam.NewCatalog(nam.Hybrid, opts.Layout.PageBytes, fab.NumServers(), opts.Replicas, opts.RegionBytes, opts.Part)
	return &Server{opts: opts, fab: fab, catalog: cat}
}

// tree returns a fresh server-side handle for one server's upper levels.
// Handlers only ever touch inner nodes, which are all local.
func (s *Server) tree(server int) *btree.Tree { return s.treeFor(server, server) }

// treeFor returns the handle serving group's upper levels on server. Before
// a failover group == server; afterwards the handler traverses the foreign
// group's mirrored inner nodes out of its own region (identity-offset
// replicas), allocating any new inner pages from its own slab.
func (s *Server) treeFor(server, group int) *btree.Tree {
	var m btree.Mem = btree.LocalMem{Srv: s.fab.Server(server)}
	if group != server {
		m = btree.ReplicaLocalMem{Srv: s.fab.Server(server), Home: group}
	}
	t, ok := s.handles.Get().(*btree.Tree)
	if !ok {
		t = btree.New(s.opts.Layout, nil, rdma.NullPtr)
		t.VisitNS = s.opts.VisitNS
		t.SpinBudget = s.opts.SpinBudget
	}
	t.M, t.RootWord, t.Repl = m, s.catalog.RootWords[group], nil
	t.InvalidateRoot()
	return t
}

// Build bulk-loads the index: for every server's partition, the leaf level
// (with head nodes) is placed round-robin across *all* servers through
// setupEp, while the inner levels stay on the owning server. Partitions are
// guaranteed an inner root even when tiny, so server-side traversal never
// touches a foreign leaf.
func (s *Server) Build(setupEp rdma.Endpoint, spec core.BuildSpec) (*nam.Catalog, error) {
	for srv := 0; srv < s.fab.NumServers(); srv++ {
		if err := s.BuildServer(setupEp, srv, spec); err != nil {
			return nil, err
		}
	}
	return s.catalog, nil
}

// BuildServer bulk-loads one partition only: its leaves are spread over all
// servers (written through setupEp, which must reach the whole cluster — on
// a distributed deployment this is a TCP endpoint to the peers), its inner
// levels stay on the owning server. Distributed deployments (cmd/namserver
// -design hybrid) call this with their own server ID after all peers are
// listening; the spec must be identical on every process.
func (s *Server) BuildServer(setupEp rdma.Endpoint, srv int, spec core.BuildSpec) error {
	servers := s.fab.NumServers()
	rr := srv // stagger leaf placement across independently-built partitions
	place := func(level int) int {
		if level == 0 {
			p := rr
			rr = (rr + 1) % servers
			return p
		}
		return srv
	}
	t := btree.New(s.opts.Layout, &btree.EndpointMem{Ep: setupEp, Place: place}, s.catalog.RootWords[srv])
	count := 0
	for i := 0; i < spec.N; i++ {
		k, _ := spec.At(i)
		if s.opts.Part.Server(k) == srv {
			count++
		}
	}
	cursor := 0
	at := func(int) (uint64, uint64) {
		for {
			k, v := spec.At(cursor)
			cursor++
			if s.opts.Part.Server(k) == srv {
				return k, v
			}
		}
	}
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
	return ensureInnerRoot(setupEp, s.opts.Layout, srv, s.catalog.RootWords[srv])
}

// Catalog returns the catalog describing this deployment. It depends only
// on the options, so every process of a distributed deployment serves the
// same one whichever partitions it built.
func (s *Server) Catalog() *nam.Catalog { return s.catalog }

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

// respErr classifies a handler-side tree failure: spin-budget exhaustion is
// op-recoverable at the client (StatusRetry — fence, re-traverse, re-run),
// anything else aborts the operation.
func respErr(err error) *nam.Response {
	if errors.Is(err, btree.ErrSpinBudget) {
		return nam.RetryResponse(err)
	}
	return nam.ErrResponse(err)
}

// Handler returns the RPC handler serving OpTraverse, OpInstall and
// OpCatalog.
func (s *Server) Handler() rdma.Handler {
	return func(env rdma.Env, server int, reqBytes []byte) ([]byte, rdma.Work) {
		req, err := nam.DecodeRequest(reqBytes)
		if err != nil {
			return nam.ErrResponse(err).Encode(), rdma.Work{}
		}
		group := server
		if s.catalog.Replicated() {
			group = int(req.Group)
		}
		t := s.treeFor(server, group)
		defer s.handles.Put(t)
		var capt *repl.Capture
		if s.catalog.Replicated() {
			// Servers are passive toward each other (NAM): committed inner
			// pages are captured and shipped back for the client to mirror.
			capt = &repl.Capture{}
			t.Repl = capt
		}
		var resp *nam.Response
		var st btree.Stats
		switch req.Op {
		case nam.OpTraverse:
			leaf, stats, err := t.FindLeaf(env, req.Key)
			st = stats
			if err != nil {
				resp = respErr(err)
			} else {
				resp = &nam.Response{Status: nam.StatusOK, Ptr: leaf}
			}
		case nam.OpInstall:
			stats, err := t.Install(env, 1, req.End, req.Left, req.Right)
			st = stats
			if err != nil {
				resp = respErr(err)
			} else {
				resp = &nam.Response{Status: nam.StatusOK}
			}
		case nam.OpCatalog:
			resp = &nam.Response{Status: nam.StatusOK, Pairs: nam.PackBytes(s.catalog.Encode())}
		default:
			resp = nam.ErrResponse(fmt.Errorf("hybrid: bad op %d", req.Op))
		}
		if s.opts.Telemetry != nil && st.Ops() > 0 {
			s.opts.Telemetry.RecordIndexOp(st)
		}
		if capt != nil && len(capt.Pages) > 0 {
			// Error responses carry the trailer too: an install that
			// committed pages before failing still needs them mirrored.
			resp.Dirty = capt.Pages
		}
		if s.load != nil {
			if u := s.load[server](); u > 0 {
				if u > 1 {
					u = 1
				}
				resp.Load = uint8(u*100 + 0.5)
			}
		}
		return resp.Encode(), rdma.Work{PagesTouched: st.PageReads + st.PageWrites}
	}
}

// CheckInvariants verifies every partition's tree through a global view
// (tests only) and returns total live entries.
func (s *Server) CheckInvariants(ep rdma.Endpoint) (int, error) {
	total := 0
	for i := 0; i < s.fab.NumServers(); i++ {
		t := btree.New(s.opts.Layout, &btree.EndpointMem{Ep: ep, Place: btree.Fixed(i)}, s.catalog.RootWords[i])
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
	for srv := 0; srv < g.c.cat.Servers; srv++ {
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

// Client is one compute thread's handle onto a hybrid index.
type Client struct {
	ep   rdma.Endpoint
	env  rdma.Env
	cat  *nam.Catalog
	part partition.Partitioner
	// leaf drives the one-sided leaf-level protocol; its placement policy
	// spreads split pages round-robin (leaves stay fine-grained).
	leaf *btree.Tree
	rec  *telemetry.Recorder
	log  *obs.Log
	mir  nam.DirtyPusher

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
	return newClient(ep, env, cat, rrStart, false)
}

// newClient builds a client whose leaf level borrows ep's post/poll surface
// from a pipelined engine when borrowed is set (btree.EndpointMem.Borrowed).
func newClient(ep rdma.Endpoint, env rdma.Env, cat *nam.Catalog, rrStart int, borrowed bool) *Client {
	l := layout.New(cat.PageBytes)
	leaf := btree.New(l, &btree.EndpointMem{
		Ep:       ep,
		Place:    btree.RoundRobin(cat.Servers, rrStart),
		Borrowed: borrowed,
	}, rdma.NullPtr)
	return &Client{ep: ep, env: env, cat: cat, part: cat.Partitioner(), leaf: leaf}
}

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
	c.log = log
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
		l := layout.New(c.cat.PageBytes)
		c.upper = make([]*btree.Tree, c.cat.Servers)
		for srv := range c.upper {
			t := btree.New(l, &btree.EndpointMem{Ep: c.ep, Place: btree.Fixed(srv)}, c.cat.RootWords[srv])
			t.SpinBudget = c.leaf.SpinBudget
			if c.log != nil {
				t.M = obs.WrapMem(t.M, c.log)
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
		c.mir = nil
		c.leaf.Repl = nil
		return
	}
	c.mir = m
	c.leaf.Repl = m
}

func (c *Client) call(server int, req *nam.Request) (*nam.Response, error) {
	raw, err := c.ep.Call(server, c.encode(server, req))
	return c.response(server, req.Op, raw, err)
}

// encode addresses req to server's replica group on replicated deployments
// and encodes it.
func (c *Client) encode(server int, req *nam.Request) []byte {
	if c.cat.Replicated() {
		req.Group = uint8(server)
	}
	return req.Encode()
}

// response finishes an RPC of type op to server that returned raw or failed
// with err, serial or pipelined alike.
func (c *Client) response(server int, op uint8, raw []byte, err error) (*nam.Response, error) {
	if err != nil {
		c.log.RPCEvent(server, op, err)
		return nil, err
	}
	resp, err := nam.DecodeResponse(raw)
	if err == nil && c.mir != nil && len(resp.Dirty) > 0 {
		// Mirror the handler's committed pages before acking; a failed push
		// leaves the op un-acked (mirror-before-ack is the acked-data
		// durability invariant).
		if perr := c.mir.Push(resp.Dirty); perr != nil {
			c.log.RPCEvent(server, op, perr)
			return nil, perr
		}
	}
	if err == nil {
		err = resp.AsError()
	}
	c.log.RPCEvent(server, op, err)
	if err != nil {
		return nil, err
	}
	return &resp, nil
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
	raw, err := c.ep.Call(server, c.encode(server, &req))
	return c.traversed(server, t0, raw, err)
}

// traversed finishes a traverse RPC to server issued at policy-clock time t0.
func (c *Client) traversed(server int, t0 int64, raw []byte, err error) (rdma.RemotePtr, error) {
	resp, err := c.response(server, nam.OpTraverse, raw, err)
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
// handlers), so it needs no mirroring; under replication c.ep is already the
// group-routing endpoint and the group root word resolves to the acting
// primary.
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
		_, err = c.call(server, &nam.Request{Op: nam.OpInstall, End: sp.Sep, Left: sp.Left, Right: sp.Right})
	}
	return vals, found, err
}

// Lookup implements core.Index: RPC traversal + one-sided leaf read.
func (c *Client) Lookup(key uint64) ([]uint64, error) {
	c.log.BeginOp(obs.OpLookup, key, c.part.Server(key))
	vals, _, err := c.point(btree.TravLookup, key, 0)
	c.log.EndOp(err)
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
	c.log.BeginOp(obs.OpRange, lo, -1)
	err := c.doRange(lo, hi, emit)
	c.log.EndOp(err)
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
	c.log.BeginOp(obs.OpInsert, key, c.part.Server(key))
	_, _, err := c.point(btree.TravInsert, key, value)
	c.log.EndOp(err)
	return err
}

// Delete implements core.Index.
func (c *Client) Delete(key, value uint64) (bool, error) {
	c.log.BeginOp(obs.OpDelete, key, c.part.Server(key))
	_, ok, err := c.point(btree.TravDelete, key, value)
	c.log.EndOp(err)
	return ok, err
}
