// Package coarse implements Design 1 of the paper (Section 3): the
// coarse-grained / two-sided index.
//
// The key space is partitioned (range- or hash-based) across the memory
// servers; each server holds a complete local B-link tree for its partition.
// Compute servers access the index exclusively through an RPC protocol over
// two-sided verbs (SEND/RECEIVE on reliable connections, dispatched from
// shared receive queues); the server-side handlers traverse their local tree
// with optimistic lock coupling (Listing 1).
package coarse

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
	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/rdma/repl"
	"github.com/namdb/rdmatree/internal/telemetry"
)

// Options configures the coarse-grained design.
type Options struct {
	// Layout is the page layout (page size P).
	Layout layout.Layout
	// Part partitions keys across memory servers.
	Part partition.Partitioner
	// VisitNS is the CPU time an RPC handler charges per page visited
	// (performance model of the simulated fabric; 0 elsewhere).
	VisitNS int64
	// Telemetry, when non-nil, receives the per-operation protocol counters
	// of every handler-executed index operation.
	Telemetry *telemetry.Recorder
	// Replicas is the page-replication factor k (0 and 1 both mean
	// unreplicated). Replicated deployments must configure the fabric with
	// the nam.ReplicaLayout slab allocators before building, and their
	// handlers capture committed post-images into the response's Dirty
	// trailer for the client to mirror.
	Replicas int
	// RegionBytes is the uniform registered-region size; required (and
	// recorded in the catalog) when Replicas >= 2.
	RegionBytes uint64
	// SpinBudget bounds each handler-executed tree operation's consistency
	// restarts (btree.Tree.SpinBudget); 0 leaves the waits unbounded.
	// Fault-injected replicated deployments must set it: a handler waiting
	// on tree state lost with a crashed primary otherwise spins forever.
	// With a budget the handler fails the RPC with a StatusRetry response
	// and the client's op-level recovery re-runs the operation.
	SpinBudget int
}

// Server is the server-side state: one local tree per memory server.
type Server struct {
	opts    Options
	fab     rdma.Fabric
	catalog *nam.Catalog
	handles sync.Pool // *btree.Tree handles, recycled across handler calls
}

// NewServer wires the design's server side onto a fabric. Call Build (or
// Init) before installing the handler.
func NewServer(fab rdma.Fabric, opts Options) *Server {
	if opts.Part.Servers() != fab.NumServers() {
		panic("coarse: partitioner/fabric server count mismatch")
	}
	cat := nam.NewCatalog(nam.CoarseGrained, opts.Layout.PageBytes, fab.NumServers(), opts.Replicas, opts.RegionBytes, opts.Part)
	return &Server{opts: opts, fab: fab, catalog: cat}
}

// tree returns a tree handle for one server (handles are cheap and
// per-goroutine; the shared state lives in the region).
func (s *Server) tree(server int) *btree.Tree { return s.treeFor(server, server) }

// treeFor returns the tree handle serving group on server. Before a failover
// group == server and the plain local tree is used; afterwards the handler
// serves a foreign group's mirrored pages out of its own region
// (identity-offset replicas), allocating any new pages from its own slab.
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

// Init creates empty trees on every server and returns the catalog.
func (s *Server) Init() (*nam.Catalog, error) {
	for i := 0; i < s.fab.NumServers(); i++ {
		if err := s.InitServer(i); err != nil {
			return nil, err
		}
	}
	return s.catalog, nil
}

// InitServer creates one server's empty tree (distributed deployments).
func (s *Server) InitServer(srv int) error {
	return s.tree(srv).Init(rdma.NopEnv{}) //rdmavet:allow nopenv -- bootstrap: runs once before the fabric serves timed traffic
}

// Build bulk-loads the partitioned trees and returns the catalog. spec.At is
// consumed sequentially once per server (filtered streaming), so hash
// partitioning needs no materialization.
func (s *Server) Build(spec core.BuildSpec) (*nam.Catalog, error) {
	for srv := 0; srv < s.fab.NumServers(); srv++ {
		if err := s.BuildServer(srv, spec); err != nil {
			return nil, err
		}
	}
	return s.catalog, nil
}

// BuildServer bulk-loads one server's partition only. Distributed
// deployments (one process per memory server, e.g. cmd/namserver over a
// SingleServerFabric) call this with their own server ID; the spec must be
// identical on every process.
func (s *Server) BuildServer(srv int, spec core.BuildSpec) error {
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
	cfg := btree.BuildConfig{Fill: spec.Fill}
	//rdmavet:allow nopenv -- bulk load is an untimed setup path; experiments measure the prebuilt tree
	if _, err := s.tree(srv).Build(rdma.NopEnv{}, cfg, count, at); err != nil {
		return fmt.Errorf("coarse: building server %d: %w", srv, err)
	}
	return nil
}

// Catalog returns the catalog describing this deployment. It depends only
// on the options, so every process of a distributed deployment serves the
// same one whichever servers it built.
func (s *Server) Catalog() *nam.Catalog { return s.catalog }

// respErr classifies a handler-side tree failure: spin-budget exhaustion is
// op-recoverable at the client (StatusRetry — fence, re-run), anything else
// aborts the operation.
func respErr(err error) *nam.Response {
	if errors.Is(err, btree.ErrSpinBudget) {
		return nam.RetryResponse(err)
	}
	return nam.ErrResponse(err)
}

// Handler returns the RPC handler executing index operations on the local
// trees; install it with fabric.SetHandler.
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
		defer s.handles.Put(t) // after the response, which may alias t, is encoded
		var capt *repl.Capture
		if s.catalog.Replicated() {
			// Memory servers cannot reach each other (NAM keeps them
			// passive): committed post-images are captured and shipped back
			// for the *client* to mirror before it acks.
			capt = &repl.Capture{}
			t.Repl = capt
		}
		var resp *nam.Response
		var st btree.Stats
		switch req.Op {
		case nam.OpLookup:
			vals, stats, err := t.Lookup(env, req.Key)
			st = stats
			switch {
			case err != nil:
				resp = respErr(err)
			case len(vals) == 0:
				resp = &nam.Response{Status: nam.StatusNotFound}
			default:
				resp = &nam.Response{Status: nam.StatusOK, Values: vals}
			}
		case nam.OpRange:
			var pairs []uint64
			stats, err := t.Scan(env, req.Key, req.End, func(k layout.Key, v uint64) bool {
				pairs = append(pairs, k, v)
				return true
			})
			st = stats
			if err != nil {
				resp = respErr(err)
			} else {
				resp = &nam.Response{Status: nam.StatusOK, Pairs: pairs}
			}
		case nam.OpInsert:
			stats, err := t.Insert(env, req.Key, req.Value)
			st = stats
			if err != nil {
				resp = respErr(err)
			} else {
				resp = &nam.Response{Status: nam.StatusOK}
			}
		case nam.OpDelete:
			ok, stats, err := t.Delete(env, req.Key, req.Value)
			st = stats
			switch {
			case err != nil:
				resp = respErr(err)
			case ok:
				resp = &nam.Response{Status: nam.StatusOK}
			default:
				resp = &nam.Response{Status: nam.StatusNotFound}
			}
		case nam.OpCatalog:
			resp = &nam.Response{Status: nam.StatusOK, Pairs: bytesToWords(s.catalog.Encode())}
		default:
			resp = nam.ErrResponse(fmt.Errorf("coarse: bad op %d", req.Op))
		}
		if s.opts.Telemetry != nil && st.Ops() > 0 {
			s.opts.Telemetry.RecordIndexOp(st)
		}
		if capt != nil && len(capt.Pages) > 0 {
			// Error responses carry the trailer too: a handler that
			// committed pages and then failed still needs them mirrored.
			resp.Dirty = capt.Pages
		}
		return resp.Encode(), rdma.Work{PagesTouched: st.PageReads + st.PageWrites}
	}
}

// bytesToWords packs a byte payload into the Pairs field (length-prefixed).
func bytesToWords(b []byte) []uint64 { return nam.PackBytes(b) }

// WordsToBytes unpacks a payload packed by bytesToWords.
func WordsToBytes(w []uint64) []byte { return nam.UnpackBytes(w) }

// CheckInvariants verifies every server-local tree (tests only) and returns
// the total number of live entries.
func (s *Server) CheckInvariants() (int, error) {
	total := 0
	for i := 0; i < s.fab.NumServers(); i++ {
		n, err := s.tree(i).CheckInvariants(rdma.NopEnv{}) //rdmavet:allow nopenv -- test-only invariant sweep, never on the timed path
		if err != nil {
			return 0, fmt.Errorf("server %d: %w", i, err)
		}
		total += n
	}
	return total, nil
}

// Compact runs the per-server epoch GC pass (Section 3.2), executed locally
// on each memory server.
func (s *Server) Compact() (removed int, err error) {
	for i := 0; i < s.fab.NumServers(); i++ {
		r, _, err := s.tree(i).Compact(rdma.NopEnv{}) //rdmavet:allow nopenv -- maintenance entry point invoked outside the simulated run (no handler Env in scope)
		if err != nil {
			return removed, err
		}
		removed += r
	}
	return removed, nil
}

// Client is one compute thread's handle onto a coarse-grained index.
type Client struct {
	ep   rdma.Endpoint
	env  rdma.Env
	cat  *nam.Catalog
	part partition.Partitioner
	log  *obs.Log
	mir  nam.DirtyPusher
}

var _ core.Index = (*Client)(nil)

// NewClient binds a client to an endpoint. env is the client's execution
// environment (rdma.NopEnv on real transports).
func NewClient(ep rdma.Endpoint, env rdma.Env, cat *nam.Catalog) *Client {
	return &Client{ep: ep, env: env, cat: cat, part: cat.Partitioner()}
}

// SetOpLog threads the per-operation span tracer through the client: op
// boundaries carry the owning partition (the coarse design routes every op
// to its key's partition server) and every RPC records its destination and
// outcome. A nil log disables tracing.
func (c *Client) SetOpLog(log *obs.Log) { c.log = log }

// SetMirrorer installs the client's replication pusher (repl.Mirrorer):
// post-images the handler committed on the partition's acting primary are
// replayed onto the group's backups before the operation acks. A nil m
// disables pushing (unreplicated deployments).
func (c *Client) SetMirrorer(m nam.DirtyPusher) { c.mir = m }

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

// Lookup implements core.Index: one RPC to the partition owner.
func (c *Client) Lookup(key uint64) ([]uint64, error) {
	c.log.BeginOp(obs.OpLookup, key, c.part.Server(key))
	resp, err := c.call(c.part.Server(key), &nam.Request{Op: nam.OpLookup, Key: key})
	c.log.EndOp(err)
	if err != nil {
		return nil, err
	}
	return resp.Values, nil
}

// Range implements core.Index: one RPC per partition intersecting [lo, hi].
// With hash partitioning every server must be queried (Table 2) and results
// arrive in per-server runs rather than globally sorted.
func (c *Client) Range(lo, hi uint64, emit func(k, v uint64) bool) error {
	c.log.BeginOp(obs.OpRange, lo, -1)
	err := c.doRange(lo, hi, emit)
	c.log.EndOp(err)
	return err
}

func (c *Client) doRange(lo, hi uint64, emit func(k, v uint64) bool) error {
	for _, srv := range c.part.CoversRange(lo, hi) {
		resp, err := c.call(srv, &nam.Request{Op: nam.OpRange, Key: lo, End: hi})
		if err != nil {
			return err
		}
		for i := 0; i+1 < len(resp.Pairs); i += 2 {
			if !emit(resp.Pairs[i], resp.Pairs[i+1]) {
				return nil
			}
		}
	}
	return nil
}

// Insert implements core.Index.
func (c *Client) Insert(key, value uint64) error {
	c.log.BeginOp(obs.OpInsert, key, c.part.Server(key))
	_, err := c.call(c.part.Server(key), &nam.Request{Op: nam.OpInsert, Key: key, Value: value})
	c.log.EndOp(err)
	return err
}

// Delete implements core.Index.
func (c *Client) Delete(key, value uint64) (bool, error) {
	c.log.BeginOp(obs.OpDelete, key, c.part.Server(key))
	resp, err := c.call(c.part.Server(key), &nam.Request{Op: nam.OpDelete, Key: key, Value: value})
	c.log.EndOp(err)
	if err != nil {
		return false, err
	}
	return resp.Status == nam.StatusOK, nil
}
