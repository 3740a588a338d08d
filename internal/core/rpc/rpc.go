// Package rpc is the two-sided plumbing the coarse-grained and hybrid
// designs share: a client's call path, a server's tree handles and handler,
// the classification of handler-side failures and the partition filter
// their bulk loads stream through.
package rpc

import (
	"errors"
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

// Client is the call path of an RPC design's client.
type Client struct {
	Ep  rdma.Endpoint
	Cat *nam.Catalog
	// Log records every call's destination and outcome; nil disables it.
	Log *obs.Log
	// Mir replays the post-images a replicated handler committed onto the
	// group's backups before the operation acks; nil on unreplicated
	// deployments.
	Mir nam.DirtyPusher
}

// Call issues req to server and finishes it.
func (c *Client) Call(server int, req *nam.Request) (*nam.Response, error) {
	raw, err := c.Ep.Call(server, c.Encode(server, req))
	return c.Response(server, req.Op, raw, err)
}

// Encode addresses req to server's replica group on replicated deployments
// and encodes it.
func (c *Client) Encode(server int, req *nam.Request) []byte {
	if c.Cat.Replicated() {
		req.Group = uint8(server)
	}
	return req.Encode()
}

// Response finishes an RPC of type op to server that returned raw or failed
// with err, serial or pipelined alike.
func (c *Client) Response(server int, op uint8, raw []byte, err error) (*nam.Response, error) {
	if err != nil {
		c.Log.RPCEvent(server, op, err)
		return nil, err
	}
	resp, err := nam.DecodeResponse(raw)
	if err == nil && c.Mir != nil && len(resp.Dirty) > 0 {
		// Mirror the handler's committed pages before acking; a failed push
		// leaves the op un-acked (mirror-before-ack is the acked-data
		// durability invariant).
		if perr := c.Mir.Push(resp.Dirty); perr != nil {
			c.Log.RPCEvent(server, op, perr)
			return nil, perr
		}
	}
	if err == nil {
		err = resp.AsError()
	}
	c.Log.RPCEvent(server, op, err)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// Options configures an RPC design: coarse.Options and hybrid.Options are
// this type.
type Options struct {
	// Layout is the page layout (page size P).
	Layout layout.Layout
	// Part partitions keys across the memory servers: each owns its
	// partition's tree (coarse) or its partition's upper levels (hybrid).
	Part partition.Partitioner
	// VisitNS is the CPU time an RPC handler charges per page visited
	// (performance model of the simulated fabric; 0 elsewhere).
	VisitNS int64
	// Telemetry, when non-nil, receives the per-operation protocol counters
	// of every handler-executed operation.
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
	// on tree state lost with a crashed primary (a hybrid install waiting
	// for a dead writer's split, say) otherwise spins forever. With a
	// budget the handler fails the RPC with a StatusRetry response and the
	// client's op-level recovery re-runs the operation; a hybrid half-split
	// leaf stays reachable through its right link, so the re-run's presence
	// check can ack it.
	SpinBudget int
}

// Server is the server side an RPC design shares: its options and catalog,
// each memory server's tree handles, recycled across handler calls, and the
// handler around the design's operations.
type Server struct {
	Options
	Fab rdma.Fabric
	Cat *nam.Catalog
	// Load, when non-nil, holds each server's handler-CPU utilization probe
	// ([0,1]), piggybacked on every reply (nam.Response.Load).
	Load []func() float64
	pool sync.Pool
}

// NewServer wires design's server side onto a fabric.
func NewServer(fab rdma.Fabric, design nam.Design, opts Options) *Server {
	if opts.Part.Servers() != fab.NumServers() {
		panic(design.Name() + ": partitioner/fabric server count mismatch")
	}
	cat := nam.NewCatalog(design, opts.Layout.PageBytes, fab.NumServers(), opts.Replicas, opts.RegionBytes, opts.Part)
	return &Server{Options: opts, Fab: fab, Cat: cat}
}

// Tree returns a handle onto group's tree on server; Handler recycles the
// handles it takes. A handle is cheap and belongs to one goroutine; the
// shared state lives in the region. Before a failover group == server and
// the plain local tree is used; afterwards the handler serves a foreign
// group's mirrored pages out of its own region (identity-offset replicas),
// allocating any new pages from its own slab.
func (s *Server) Tree(server, group int) *btree.Tree {
	var m btree.Mem = btree.LocalMem{Srv: s.Fab.Server(server)}
	if group != server {
		m = btree.ReplicaLocalMem{Srv: s.Fab.Server(server), Home: group}
	}
	t, ok := s.pool.Get().(*btree.Tree)
	if !ok {
		t = btree.New(s.Layout, nil, rdma.NullPtr)
		t.VisitNS = s.VisitNS
		t.SpinBudget = s.SpinBudget
	}
	t.M, t.RootWord, t.Repl = m, s.Cat.RootWords[group], nil
	t.InvalidateRoot()
	return t
}

// Handler returns the RPC handler that decodes each request and serves
// OpCatalog itself. Every other op runs through serve on the tree of the
// request's replica group, which reports the response and the operation's
// protocol counters. On replicated deployments the committed post-images
// ride back in the response's Dirty trailer: memory servers cannot reach
// each other (NAM keeps them passive), so the client mirrors them before
// it acks.
func (s *Server) Handler(serve func(env rdma.Env, t *btree.Tree, req nam.Request) (nam.Response, btree.Stats)) rdma.Handler {
	return func(env rdma.Env, server int, reqBytes []byte) ([]byte, rdma.Work) {
		req, err := nam.DecodeRequest(reqBytes)
		if err != nil {
			return nam.ErrResponse(err).Encode(), rdma.Work{}
		}
		group := server
		if s.Cat.Replicated() {
			group = int(req.Group)
		}
		t := s.Tree(server, group)
		defer s.pool.Put(t) // after the response, which may alias t, is encoded
		var capt *repl.Capture
		if s.Cat.Replicated() {
			capt = &repl.Capture{}
			t.Repl = capt
		}
		var resp nam.Response
		var st btree.Stats
		if req.Op == nam.OpCatalog {
			resp = nam.Response{Status: nam.StatusOK, Pairs: nam.PackBytes(s.Cat.Encode())}
		} else {
			resp, st = serve(env, t, req)
		}
		if s.Telemetry != nil && st.Ops() > 0 {
			s.Telemetry.RecordIndexOp(st)
		}
		if capt != nil && len(capt.Pages) > 0 {
			// Error responses carry the trailer too: a handler that
			// committed pages and then failed still needs them mirrored.
			resp.Dirty = capt.Pages
		}
		if s.Load != nil {
			if u := s.Load[server](); u > 0 {
				if u > 1 {
					u = 1
				}
				resp.Load = uint8(u*100 + 0.5)
			}
		}
		return resp.Encode(), rdma.Work{PagesTouched: st.PageReads + st.PageWrites}
	}
}

// ErrResponse classifies a handler-side tree failure: spin-budget
// exhaustion is op-recoverable at the client (StatusRetry — fence, re-run),
// anything else aborts the operation.
func ErrResponse(err error) nam.Response {
	if errors.Is(err, btree.ErrSpinBudget) {
		return *nam.RetryResponse(err)
	}
	return *nam.ErrResponse(err)
}

// Partition filters spec down to the items part places on srv: their count,
// and an At that streams them in order. The returned At ignores its
// argument and must be called sequentially, once per item, as bulk loads
// do. spec.At is read sequentially, once to count and once to stream, so
// hash partitioning needs no materialization.
func Partition(spec core.BuildSpec, part partition.Partitioner, srv int) (int, func(int) (uint64, uint64)) {
	count := 0
	for i := 0; i < spec.N; i++ {
		k, _ := spec.At(i)
		if part.Server(k) == srv {
			count++
		}
	}
	cursor := 0
	return count, func(int) (uint64, uint64) {
		for {
			k, v := spec.At(cursor)
			cursor++
			if part.Server(k) == srv {
				return k, v
			}
		}
	}
}
