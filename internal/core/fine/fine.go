// Package fine implements Design 2 of the paper (Section 4): the
// fine-grained / one-sided index.
//
// A single global B-link tree spans the whole key space; its pages (inner
// nodes, leaves, and the head nodes of the Section 4.3 prefetch
// optimization) are distributed round-robin across all memory servers and
// connected by remote pointers. Compute servers execute every operation
// themselves with one-sided verbs only (READ, WRITE, CAS, FETCH_AND_ADD,
// RDMA_ALLOC) — the memory servers' CPUs are never involved (Listing 2/4).
package fine

import (
	"github.com/namdb/rdmatree/internal/btree"
	"github.com/namdb/rdmatree/internal/cache"
	"github.com/namdb/rdmatree/internal/core"
	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/obs"
	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/telemetry"
)

// Options configures the fine-grained design.
type Options struct {
	// Layout is the page layout (page size P).
	Layout layout.Layout
	// Replicas is the page-replication factor k (0 and 1 both mean
	// unreplicated). Replicated deployments must configure the fabric with
	// the nam.ReplicaLayout slab allocators before building.
	Replicas int
	// RegionBytes is the uniform registered-region size; required (and
	// recorded in the catalog) when Replicas >= 2.
	RegionBytes uint64
}

// Build bulk-loads the global tree through setupEp (an untimed endpoint on
// the simulated fabric) with round-robin page placement, and returns the
// catalog. The root-pointer word lives in server 0's superblock —
// replicated deployments use group 0's root word in the reserved replica
// prefix instead, so the word itself survives a failover of server 0.
func Build(setupEp rdma.Endpoint, opts Options, spec core.BuildSpec) (*nam.Catalog, error) {
	cat := nam.NewCatalog(nam.FineGrained, opts.Layout.PageBytes, setupEp.NumServers(), opts.Replicas, opts.RegionBytes, nil)
	t := btree.New(opts.Layout, PageMem(setupEp, cat, 0), cat.RootWords[0])
	cfg := btree.BuildConfig{Fill: spec.Fill, HeadEvery: spec.HeadEvery}
	if spec.N == 0 {
		if err := t.Init(rdma.NopEnv{}); err != nil { //rdmavet:allow nopenv -- bootstrap: runs once before timed traffic
			return nil, err
		}
	} else if _, err := t.Build(rdma.NopEnv{}, cfg, spec.N, spec.At); err != nil { //rdmavet:allow nopenv -- bulk load is an untimed setup path
		return nil, err
	}
	return cat, nil
}

// Client is one compute thread's handle onto the fine-grained index. All
// operations run on the client over one-sided verbs.
type Client struct {
	tree *btree.Tree
	env  rdma.Env
	rec  *telemetry.Recorder
	log  *obs.Log
}

var _ core.Index = (*Client)(nil)

// NewClient binds a client to an endpoint. rrStart staggers the round-robin
// placement of pages the client allocates on splits (pass the client ID).
func NewClient(ep rdma.Endpoint, env rdma.Env, cat *nam.Catalog, rrStart int) *Client {
	return NewClientOn(PageMem(ep, cat, rrStart), env, cat)
}

// PageMem is the design's page access path over ep: fused one-sided reads,
// and round-robin placement of split pages staggered by rrStart. Set its
// Unbatched field for the paper's original Listing-2 reads (two blocking
// READs per level, the measured baseline of the doorbell-batching
// experiment), or put a page cache in front of it.
func PageMem(ep rdma.Endpoint, cat *nam.Catalog, rrStart int) *btree.EndpointMem {
	return &btree.EndpointMem{Ep: ep, Place: btree.RoundRobin(cat.Servers, rrStart)}
}

// NewClientOn binds a client to a page access path: a PageMem, or a
// decorator of one such as a page cache.
func NewClientOn(m btree.Mem, env rdma.Env, cat *nam.Catalog) *Client {
	return &Client{tree: btree.New(layout.New(cat.PageBytes), m, cat.RootWords[0]), env: env}
}

// SetRecorder directs the client's per-operation protocol counters
// (traversal depth, restarts, splits, ...) into rec. A nil rec disables
// recording.
func (c *Client) SetRecorder(rec *telemetry.Recorder) { c.rec = rec }

// SetOpLog threads the per-operation span tracer through the client: every
// op records its boundaries into log and the tree's memory accesses are
// decorated so each level read, CAS, and unlock lands in the flight
// recorder. The fine design has no key partitioning (pages are spread
// round-robin), so op spans carry no partition. A nil log disables tracing.
func (c *Client) SetOpLog(log *obs.Log) {
	c.log = log
	c.tree.M = obs.WrapMem(c.tree.M, log)
}

func (c *Client) record(st btree.Stats) {
	if c.rec != nil {
		c.rec.RecordIndexOp(st)
	}
}

// Lookup implements core.Index (Listing 2's remoteLookup).
func (c *Client) Lookup(key uint64) ([]uint64, error) {
	c.log.BeginOp(obs.OpLookup, key, -1)
	vals, st, err := c.tree.Lookup(c.env, key)
	c.record(st)
	c.log.EndOp(err)
	return vals, err
}

// Range implements core.Index: a one-sided leaf-level scan with head-node
// prefetching.
func (c *Client) Range(lo, hi uint64, emit func(k, v uint64) bool) error {
	c.log.BeginOp(obs.OpRange, lo, -1)
	st, err := c.tree.Scan(c.env, lo, hi, emit)
	c.record(st)
	c.log.EndOp(err)
	return err
}

// Insert implements core.Index (Listing 2's remoteInsert; splits install new
// pages with RDMA_ALLOC + WRITE and propagate separators with the same
// one-sided protocol).
func (c *Client) Insert(key, value uint64) error {
	c.log.BeginOp(obs.OpInsert, key, -1)
	st, err := c.tree.Insert(c.env, key, value)
	c.record(st)
	c.log.EndOp(err)
	return err
}

// Delete implements core.Index: the delete bit is set through the one-sided
// write protocol; physical removal is the global garbage collector's job.
func (c *Client) Delete(key, value uint64) (bool, error) {
	c.log.BeginOp(obs.OpDelete, key, -1)
	ok, st, err := c.tree.Delete(c.env, key, value)
	c.record(st)
	c.log.EndOp(err)
	return ok, err
}

// Tree exposes the underlying engine (stats, invariant checks).
func (c *Client) Tree() *btree.Tree { return c.tree }

// SetReplicator installs the client's replication engine (repl.Mirrorer):
// every page the tree commits is pushed to the page's group backups before
// the operation acks. A nil r disables replication.
func (c *Client) SetReplicator(r btree.Replicator) { c.tree.Repl = r }

// InvalidateRoot implements core.RootInvalidator: operation-level fault
// recovery drops the cached root pointer before an epoch-fenced
// re-traversal.
func (c *Client) InvalidateRoot() { c.tree.InvalidateRoot() }

// SetSpinBudget bounds the tree's consistency restarts per operation
// (btree.Tree.SpinBudget); clients running under fault injection set it so a
// stuck page lock surfaces as btree.ErrSpinBudget instead of a hang.
func (c *Client) SetSpinBudget(n int) { c.tree.SpinBudget = n }

// NewCachedClient is NewClient with a compute-side page cache of maxPages
// pages in front of the one-sided reads (the Appendix A.4 extension). The
// returned cache exposes hit/miss statistics.
func NewCachedClient(ep rdma.Endpoint, env rdma.Env, cat *nam.Catalog, rrStart, maxPages int) (*Client, *cache.Mem) {
	cm := cache.New(PageMem(ep, cat, rrStart), layout.New(cat.PageBytes), maxPages)
	return NewClientOn(cm, env, cat), cm
}

// GC is the global epoch garbage collector of the fine-grained design: it
// runs on a compute server (Section 4.2 — it must use the same one-sided
// protocol as writers, since mixing remote atomics with server-local atomics
// would break atomicity) and periodically compacts delete-bit entries and
// refreshes head nodes.
type GC struct {
	c *Client
	// HeadEvery is the head-node spacing to maintain; 0 disables head
	// maintenance.
	HeadEvery int
	retired   []rdma.RemotePtr
}

// NewGC creates a garbage collector driving the index through client c.
func NewGC(c *Client, headEvery int) *GC {
	return &GC{c: c, HeadEvery: headEvery}
}

// RunEpoch performs one epoch: frees pages retired in the previous epoch (no
// reader can still hold them), compacts deleted entries, merges underfull
// leaves, and rebuilds head nodes. It returns the number of entries
// physically removed.
func (g *GC) RunEpoch() (removed int, err error) {
	// Pages retired an epoch ago are now unreachable by any reader.
	if err := g.c.tree.FreeRetired(g.retired); err != nil {
		return 0, err
	}
	g.retired = nil
	removed, _, err = g.c.tree.Compact(g.c.env)
	if err != nil {
		return removed, err
	}
	_, tombstones, _, err := g.c.tree.Rebalance(g.c.env, -1)
	if err != nil {
		return removed, err
	}
	g.retired = append(g.retired, tombstones...)
	if g.HeadEvery > 1 {
		heads, _, err := g.c.tree.RebuildHeads(g.c.env, g.HeadEvery)
		if err != nil {
			return removed, err
		}
		g.retired = append(g.retired, heads...)
	}
	return removed, nil
}
