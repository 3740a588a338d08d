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

	"github.com/namdb/rdmatree/internal/btree"
	"github.com/namdb/rdmatree/internal/core"
	"github.com/namdb/rdmatree/internal/core/rpc"
	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/obs"
	"github.com/namdb/rdmatree/internal/partition"
	"github.com/namdb/rdmatree/internal/pipeline"
	"github.com/namdb/rdmatree/internal/rdma"
)

// Options configures the design (rpc.Options).
type Options = rpc.Options

// Server is the server-side state: one local tree per memory server.
type Server struct {
	rpc *rpc.Server
}

// NewServer wires the design's server side onto a fabric. Call Build (or
// Init) before installing the handler.
func NewServer(fab rdma.Fabric, opts Options) *Server {
	return &Server{rpc: rpc.NewServer(fab, nam.CoarseGrained, opts)}
}

// tree returns a tree handle for one server.
func (s *Server) tree(server int) *btree.Tree { return s.rpc.Tree(server, server) }

// Init creates empty trees on every server and returns the catalog.
func (s *Server) Init() (*nam.Catalog, error) {
	for i := 0; i < s.rpc.Fab.NumServers(); i++ {
		if err := s.InitServer(i); err != nil {
			return nil, err
		}
	}
	return s.rpc.Cat, nil
}

// InitServer creates one server's empty tree (distributed deployments).
func (s *Server) InitServer(srv int) error {
	return s.tree(srv).Init(rdma.NopEnv{}) //rdmavet:allow nopenv -- bootstrap: runs once before the fabric serves timed traffic
}

// Build bulk-loads the partitioned trees and returns the catalog. spec.At is
// consumed sequentially once per server (filtered streaming), so hash
// partitioning needs no materialization.
func (s *Server) Build(spec core.BuildSpec) (*nam.Catalog, error) {
	for srv := 0; srv < s.rpc.Fab.NumServers(); srv++ {
		if err := s.BuildServer(srv, spec); err != nil {
			return nil, err
		}
	}
	return s.rpc.Cat, nil
}

// BuildServer bulk-loads one server's partition only. Distributed
// deployments (one process per memory server, e.g. cmd/namserver over a
// SingleServerFabric) call this with their own server ID; the spec must be
// identical on every process.
func (s *Server) BuildServer(srv int, spec core.BuildSpec) error {
	count, at := rpc.Partition(spec, s.rpc.Part, srv)
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
func (s *Server) Catalog() *nam.Catalog { return s.rpc.Cat }

// Handler returns the RPC handler executing index operations on the local
// trees; install it with fabric.SetHandler.
func (s *Server) Handler() rdma.Handler { return s.rpc.Handler(serve) }

// serve executes one index operation on t.
func serve(env rdma.Env, t *btree.Tree, req nam.Request) (resp nam.Response, st btree.Stats) {
	var err error
	switch req.Op {
	case nam.OpLookup:
		var vals []uint64
		vals, st, err = t.Lookup(env, req.Key)
		resp = nam.Response{Status: nam.StatusOK, Values: vals}
		if len(vals) == 0 {
			resp.Status = nam.StatusNotFound
		}
	case nam.OpRange:
		var pairs []uint64
		st, err = t.Scan(env, req.Key, req.End, func(k layout.Key, v uint64) bool {
			pairs = append(pairs, k, v)
			return true
		})
		resp = nam.Response{Status: nam.StatusOK, Pairs: pairs}
	case nam.OpInsert:
		st, err = t.Insert(env, req.Key, req.Value)
		resp = nam.Response{Status: nam.StatusOK}
	case nam.OpDelete:
		var ok bool
		ok, st, err = t.Delete(env, req.Key, req.Value)
		resp = nam.Response{Status: nam.StatusOK}
		if !ok {
			resp.Status = nam.StatusNotFound
		}
	default:
		return *nam.ErrResponse(fmt.Errorf("coarse: bad op %d", req.Op)), st
	}
	if err != nil {
		return rpc.ErrResponse(err), st
	}
	return resp, st
}

// WordsToBytes unpacks a payload packed by nam.PackBytes.
func WordsToBytes(w []uint64) []byte { return nam.UnpackBytes(w) }

// CheckInvariants verifies every server-local tree (tests only) and returns
// the total number of live entries.
func (s *Server) CheckInvariants() (int, error) {
	total := 0
	for i := 0; i < s.rpc.Fab.NumServers(); i++ {
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
	for i := 0; i < s.rpc.Fab.NumServers(); i++ {
		r, _, err := s.tree(i).Compact(rdma.NopEnv{}) //rdmavet:allow nopenv -- maintenance entry point invoked outside the simulated run (no handler Env in scope)
		if err != nil {
			return removed, err
		}
		removed += r
	}
	return removed, nil
}

// Client is one compute thread's handle onto a coarse-grained index. Like
// its endpoint, a Client is owned by a single goroutine.
type Client struct {
	rpc  rpc.Client
	env  rdma.Env
	part partition.Partitioner
}

var _ core.Index = (*Client)(nil)

// NewClient binds a client to an endpoint. env is the client's execution
// environment (rdma.NopEnv on real transports).
func NewClient(ep rdma.Endpoint, env rdma.Env, cat *nam.Catalog) *Client {
	return &Client{rpc: rpc.Client{Ep: ep, Cat: cat}, env: env, part: cat.Partitioner()}
}

// SetOpLog threads the per-operation span tracer through the client: op
// boundaries carry the owning partition (the coarse design routes every op
// to its key's partition server) and every RPC records its destination and
// outcome. A nil log disables tracing.
func (c *Client) SetOpLog(log *obs.Log) { c.rpc.Log = log }

// SetMirrorer installs the client's replication pusher (repl.Mirrorer):
// post-images the handler committed on the partition's acting primary are
// replayed onto the group's backups before the operation acks. A nil m
// disables pushing (unreplicated deployments).
func (c *Client) SetMirrorer(m nam.DirtyPusher) { c.rpc.Mir = m }

// Pipeline returns an engine that keeps up to inflight of c's operations
// outstanding at once, their SENDs sharing doorbell batches (DESIGN.md §11);
// inflight <= 0 selects pipeline.DefaultInflight. Each slot runs one RPC to
// the key's partition owner through c's call path, replica-group addressing
// and mirror push included, so RPCs to different servers overlap their round
// trips. The engine's Range drains it and runs c's. internal/deploy refuses
// a pipelined client on a replicated catalog: the replica router has no
// Post/Flush/Poll, so the engine would fall back to blocking verbs.
func (c *Client) Pipeline(inflight int) *pipeline.Engine {
	return pipeline.New(pipeline.Config{
		Ep:         c.rpc.Ep,
		Env:        c.env,
		Inflight:   inflight,
		Index:      c,
		NewMachine: func() pipeline.Machine { return &request{c: c} },
	})
}

// rpcOps maps an engine operation to its RPC op code.
var rpcOps = [...]uint8{btree.TravLookup: nam.OpLookup, btree.TravInsert: nam.OpInsert, btree.TravDelete: nam.OpDelete}

// request is the coarse design's pipeline.Machine: one RPC.
type request struct {
	c      *Client
	req    nam.Request
	server int
	out    pipeline.Outcome
}

func (m *request) Begin(op btree.TraversalOp, key, value uint64) {
	m.server = m.c.part.Server(key)
	m.req = nam.Request{Op: rpcOps[op], Key: key, Value: value}
	m.out = pipeline.Outcome{Part: m.server}
}

func (m *request) Step(comps []rdma.Completion, sink pipeline.Sink) btree.StepResult {
	if comps == nil {
		return m.Redo(sink)
	}
	resp, err := m.c.rpc.Response(m.server, m.req.Op, comps[0].Resp, comps[0].Err)
	switch {
	case errors.Is(err, rdma.ErrQPError):
		return btree.StepResult{Status: btree.StepBlocked, Server: m.server, Err: err}
	case err != nil:
		return btree.StepResult{Status: btree.StepFailed, Err: err}
	}
	m.out.Values = resp.Values
	m.out.Found = resp.Status == nam.StatusOK
	return btree.StepResult{Status: btree.StepDone}
}

// Redo posts the call; a failed call never executed (DESIGN.md §9), so
// reposting it is safe.
func (m *request) Redo(sink pipeline.Sink) btree.StepResult {
	sink.PostCall(m.server, m.c.rpc.Encode(m.server, &m.req))
	return btree.StepResult{Status: btree.StepRunning}
}

func (m *request) Abort(err error) btree.StepResult {
	return btree.StepResult{Status: btree.StepFailed, Err: err}
}

func (m *request) TakePause() bool { return false }

func (m *request) Outcome() pipeline.Outcome { return m.out }

// Lookup implements core.Index: one RPC to the partition owner.
func (c *Client) Lookup(key uint64) ([]uint64, error) {
	c.rpc.Log.BeginOp(obs.OpLookup, key, c.part.Server(key))
	resp, err := c.rpc.Call(c.part.Server(key), &nam.Request{Op: nam.OpLookup, Key: key})
	c.rpc.Log.EndOp(err)
	if err != nil {
		return nil, err
	}
	return resp.Values, nil
}

// Range implements core.Index: one RPC per partition intersecting [lo, hi].
// With hash partitioning every server must be queried (Table 2) and results
// arrive in per-server runs rather than globally sorted.
func (c *Client) Range(lo, hi uint64, emit func(k, v uint64) bool) error {
	c.rpc.Log.BeginOp(obs.OpRange, lo, -1)
	err := c.doRange(lo, hi, emit)
	c.rpc.Log.EndOp(err)
	return err
}

func (c *Client) doRange(lo, hi uint64, emit func(k, v uint64) bool) error {
	for _, srv := range c.part.CoversRange(lo, hi) {
		resp, err := c.rpc.Call(srv, &nam.Request{Op: nam.OpRange, Key: lo, End: hi})
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
	c.rpc.Log.BeginOp(obs.OpInsert, key, c.part.Server(key))
	_, err := c.rpc.Call(c.part.Server(key), &nam.Request{Op: nam.OpInsert, Key: key, Value: value})
	c.rpc.Log.EndOp(err)
	return err
}

// Delete implements core.Index.
func (c *Client) Delete(key, value uint64) (bool, error) {
	c.rpc.Log.BeginOp(obs.OpDelete, key, c.part.Server(key))
	resp, err := c.rpc.Call(c.part.Server(key), &nam.Request{Op: nam.OpDelete, Key: key, Value: value})
	c.rpc.Log.EndOp(err)
	if err != nil {
		return false, err
	}
	return resp.Status == nam.StatusOK, nil
}
