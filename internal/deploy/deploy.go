// Package deploy is the one place that stands up the paper's index designs:
// it bulk-loads a design onto a fabric's memory servers, replicated or not,
// and builds client stacks from the catalog, always in the same ring order:
//
//	transport → [telemetry] → [repl.Router] → [retry] → design client → [core.Recover]
//
// Each design has one client type; with operations in flight, its Pipeline
// engine drives it. DESIGN.md §15 says why each ring sits where it does and
// which combinations are rejected.
package deploy

import (
	"errors"
	"fmt"

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
	"github.com/namdb/rdmatree/internal/pipeline"
	"github.com/namdb/rdmatree/internal/policy"
	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/rdma/repl"
	"github.com/namdb/rdmatree/internal/rdma/retry"
	"github.com/namdb/rdmatree/internal/telemetry"
)

// Options configures the server side of a deployment.
type Options struct {
	// Design selects the index design.
	Design nam.Design
	// PageBytes is the index page size P.
	PageBytes int
	// Part partitions keys across the memory servers (coarse-grained and
	// hybrid designs).
	Part partition.Partitioner
	// Replicas is the page-replication factor k (DESIGN.md §13); 0 and 1
	// both mean unreplicated.
	Replicas int
	// VisitNS is the handler CPU time charged per page visited (simnet).
	VisitNS int64
	// SpinBudget bounds every tree operation's consistency restarts, in the
	// handlers and the clients alike (btree.Tree.SpinBudget; 0: unbounded),
	// so that a lock abandoned by a crashed writer surfaces as an error.
	SpinBudget int
	// Telemetry, when non-nil, receives the handlers' index counters, and
	// the handler is instrumented (telemetry.Instrument) with Tracer.
	Telemetry *telemetry.Recorder
	Tracer    *telemetry.Tracer
	// LoadProbe, when non-nil, returns a probe of server's handler-CPU
	// utilization; hybrid replies piggyback it for adaptive clients.
	LoadProbe func(server int) func() float64
}

// Deployment is one design deployed on a set of memory servers.
type Deployment struct {
	// Catalog describes the deployed index.
	Catalog *nam.Catalog
	spin    int
}

// Build bulk-loads the design onto fab's memory servers through setup (an
// untimed endpoint reaching every server). The designs with server-side
// logic then install their handler and start the fabric, if it has handler
// processes to start (simnet).
func Build(fab rdma.Fabric, setup rdma.Endpoint, o Options, spec core.BuildSpec) (*Deployment, error) {
	servers := fab.NumServers()
	if o.Replicas > servers {
		return nil, fmt.Errorf("deploy: %d replicas exceed %d memory servers", o.Replicas, servers)
	}
	l := layout.New(o.PageBytes)
	var lay nam.ReplicaLayout
	var regionBytes uint64
	if o.Replicas >= 2 {
		// Confine every server's allocator to its own slab, so a page's
		// backups live at the page's own offset on the group's other members.
		regionBytes = fab.Server(0).Region.Size()
		lay = nam.NewReplicaLayout(servers, o.Replicas, regionBytes)
		for i := 0; i < servers; i++ {
			fab.Server(i).Alloc = rdma.NewAllocator(lay.SlabLo(i), lay.SlabHi(i))
		}
	}
	var cat *nam.Catalog
	var handler rdma.Handler
	var err error
	switch o.Design {
	case nam.CoarseGrained:
		srv := coarse.NewServer(fab, coarse.Options{
			Layout: l, Part: o.Part, VisitNS: o.VisitNS, Telemetry: o.Telemetry,
			Replicas: o.Replicas, RegionBytes: regionBytes, SpinBudget: o.SpinBudget,
		})
		cat, err = srv.Build(spec)
		handler = srv.Handler()
	case nam.FineGrained:
		cat, err = fine.Build(setup, fine.Options{Layout: l, Replicas: o.Replicas, RegionBytes: regionBytes}, spec)
	case nam.Hybrid:
		srv := hybrid.NewServer(fab, hybrid.Options{
			Layout: l, Part: o.Part, VisitNS: o.VisitNS, Telemetry: o.Telemetry,
			Replicas: o.Replicas, RegionBytes: regionBytes, SpinBudget: o.SpinBudget,
		})
		cat, err = srv.Build(setup, spec)
		if o.LoadProbe != nil {
			srv.SetLoadProbe(o.LoadProbe)
		}
		handler = srv.Handler()
	default:
		return nil, fmt.Errorf("deploy: unknown design %v", o.Design)
	}
	if err != nil {
		return nil, err
	}
	if o.Replicas >= 2 {
		// The bulk load wrote primaries only; mirror-before-ack covers only
		// pages written after the clients start.
		repl.SyncReplicas(lay, fab.Server)
	}
	if handler != nil {
		if o.Telemetry != nil {
			handler = telemetry.Instrument(handler, o.Telemetry, o.Tracer)
		}
		fab.SetHandler(handler)
		if f, ok := fab.(interface{ Start() }); ok {
			f.Start()
		}
	}
	return &Deployment{Catalog: cat, spin: o.SpinBudget}, nil
}

// Attach returns the deployment cat describes, deployed by another process.
func Attach(cat *nam.Catalog) *Deployment { return &Deployment{Catalog: cat} }

// Connect attaches to the index on the memory servers ep reaches. The
// designs with server-side logic serve their catalog; the fine-grained
// design's passive servers cannot, so its catalog is the one an unreplicated
// bulk load of pageBytes pages writes.
func Connect(ep rdma.Endpoint, design nam.Design, pageBytes int) (*Deployment, error) {
	if design == nam.FineGrained {
		return Attach(nam.NewCatalog(design, pageBytes, ep.NumServers(), 0, 0, nil)), nil
	}
	cat, err := nam.FetchCatalog(ep, 0)
	if err != nil {
		return nil, fmt.Errorf("deploy: fetching the %s catalog: %w", design.Name(), err)
	}
	if cat.Design != design {
		return nil, fmt.Errorf("deploy: servers run the %s design, not %s", cat.Design.Name(), design.Name())
	}
	return Attach(cat), nil
}

// Client is one built client stack: the design client (Serial), or the
// engine driving it when operations are in flight (Pipelined). Cache is a
// cached client's page cache, for its hit and miss statistics.
type Client struct {
	Serial    core.Index
	Pipelined *pipeline.Engine
	Cache     *cache.Mem
}

// ClientOptions configures one client stack. Ep is required; every other
// field may be left zero.
type ClientOptions struct {
	// ID staggers split-page placement and names the trace track.
	ID int
	// Ep is the transport endpoint (a fault-injecting decorator counts as
	// transport); Env is the client's execution environment.
	Ep  rdma.Endpoint
	Env rdma.Env

	// Telemetry, when non-nil, wraps the transport in a telemetry.Endpoint
	// timed by Clock (nil: the wall clock) and traced into Tracer, and
	// receives the design client's index counters and the page cache's.
	Telemetry *telemetry.Recorder
	Clock     telemetry.Clock
	Tracer    *telemetry.Tracer

	// RouterPolicy and MirrorPolicy are the replication rings' own retry
	// policies, so that promotion and mirror verbs survive faults without
	// spending the failing operation's budget.
	RouterPolicy, MirrorPolicy *retry.Policy
	// Retry, when non-nil, wraps the endpoint under the design client in
	// the shared verb retry policy. A pipelined client's engine posts
	// through it: the retry ring forwards the post/poll surface.
	Retry *retry.Policy

	// CachePages > 0 puts a page cache in front of the fine-grained
	// client's reads; LegacyReads reads with the paper's Listing-2 protocol,
	// two blocking READs per level (btree.EndpointMem.Unbatched).
	CachePages  int
	LegacyReads bool
	// Decider picks the hybrid client's traversal strategy per partition;
	// Feed, timed by FeedClock, receives its signals. A Decider that can
	// reset a partition (policy.Engine) is reset on every promotion and
	// group move the replica router observes.
	Decider   policy.Decider
	Feed      policy.Feed
	FeedClock policy.Clock
	// Log is the client's flight recorder.
	Log *obs.Log

	// Recover wraps a serial client in operation-level recovery
	// (core.Recover) running each operation at most MaxOpAttempts times (0:
	// core.DefaultMaxOpAttempts), counted into Counters.
	Recover       bool
	MaxOpAttempts int
	Counters      core.RecoveryCounters

	// Inflight > 0 drives the design client through its Pipeline engine
	// with that many operations in flight; the engine retries steps and
	// re-runs operations itself.
	Inflight int
}

// ErrPipelinedReplicated rejects a pipelined client on a replicated
// deployment.
var ErrPipelinedReplicated = errors.New("deploy: pipelined clients cannot run on a replicated deployment: " +
	"repl.Router has no Post/Flush/Poll for the engine to batch on")

// check rejects the combinations no client stack exists for.
func (d *Deployment) check(o ClientOptions) error {
	design := d.Catalog.Design
	if o.Inflight > 0 {
		if d.Catalog.Replicated() {
			return ErrPipelinedReplicated
		}
		if o.Recover {
			return errors.New("deploy: pipelined clients take no Recover ring: " +
				"pipeline.Engine re-runs operations itself")
		}
	}
	if (o.CachePages > 0 || o.LegacyReads) && (design != nam.FineGrained || o.Inflight > 0) {
		return errors.New("deploy: CachePages and LegacyReads select the read path of the serial fine-grained client; " +
			"pipelined clients post fused reads and the other designs have no such option")
	}
	if (o.Decider != nil || o.Feed != nil) && !d.TakesDecider() {
		return fmt.Errorf("deploy: the %s design has no traversal policy (Decider requires the hybrid design)", design.Name())
	}
	return nil
}

// TakesDecider reports whether the design's clients take a traversal-policy
// Decider: only hybrid clients choose how to traverse the upper levels.
func (d *Deployment) TakesDecider() bool { return d.Catalog.Design == nam.Hybrid }

// Client builds one client stack in ring order. Like its endpoint, the
// client belongs to a single goroutine.
func (d *Deployment) Client(o ClientOptions) (Client, error) {
	if err := d.check(o); err != nil {
		return Client{}, err
	}
	// Telemetry sits on the transport, so it measures every verb the rings
	// above issue, mirror pushes and retries included.
	ep := o.Ep
	if o.Telemetry != nil {
		te := telemetry.Wrap(ep, o.Telemetry, o.Clock)
		if o.Tracer != nil {
			te.WithTrace(o.Tracer, 0, o.ID)
		}
		ep = te
	}
	// The router sits below the retry ring, so every retried attempt is
	// re-routed to the acting copy; the mirrorer shares the router's view.
	var mir *repl.Mirrorer
	if d.Catalog.Replicated() {
		router := repl.NewRouter(ep, d.Catalog.Layout(), nil, o.RouterPolicy)
		mir = repl.NewMirrorer(router, o.Env, o.MirrorPolicy)
		if r, ok := o.Decider.(partitionResetter); ok {
			router.Events = &resetEvents{log: o.Log, r: r}
		} else if o.Log != nil {
			router.Events = o.Log
		}
		if o.Log != nil {
			mir.Events = o.Log
		}
		ep = router
	}
	if o.Retry != nil {
		ep = retry.Wrap(ep, o.Retry)
	}
	c, cm := d.designClient(ep, o, mir)
	if o.Inflight > 0 {
		eng := c.Pipeline(o.Inflight)
		eng.SetRecorder(o.Telemetry)
		eng.SetLog(o.Log)
		return Client{Pipelined: eng}, nil
	}
	var idx core.Index = c
	if o.Recover {
		r := core.Recover(idx, o.MaxOpAttempts, o.Counters)
		if mir != nil {
			r = r.WithResync(mir)
		}
		if o.Log != nil {
			r = r.WithEvents(o.Log)
		}
		idx = r
	}
	return Client{Serial: idx, Cache: cm}, nil
}

// designIndex is what the builder needs of every design's client.
type designIndex interface {
	core.Index
	SetOpLog(*obs.Log)
	Pipeline(inflight int) *pipeline.Engine
}

// designClient builds the design client over ep with the settings it takes.
func (d *Deployment) designClient(ep rdma.Endpoint, o ClientOptions, mir *repl.Mirrorer) (designIndex, *cache.Mem) {
	cat := d.Catalog
	var c designIndex
	var cm *cache.Mem
	switch cat.Design {
	case nam.CoarseGrained:
		cc := coarse.NewClient(ep, o.Env, cat)
		if mir != nil {
			cc.SetMirrorer(mir)
		}
		c = cc
	case nam.FineGrained:
		pm := fine.PageMem(ep, cat, o.ID)
		pm.Unbatched = o.LegacyReads
		var m btree.Mem = pm
		if o.CachePages > 0 {
			cm = cache.New(pm, layout.New(cat.PageBytes), o.CachePages)
			if o.Telemetry != nil {
				cm.Tel = o.Telemetry
			}
			if o.Log != nil {
				cm.Events = o.Log
			}
			m = cm
		}
		fc := fine.NewClientOn(m, o.Env, cat)
		if mir != nil {
			fc.SetReplicator(mir)
		}
		fc.SetSpinBudget(d.spin)
		fc.SetRecorder(o.Telemetry)
		c = fc
	default:
		hc := hybrid.NewClient(ep, o.Env, cat, o.ID)
		if mir != nil {
			hc.SetMirrorer(mir)
		}
		hc.SetSpinBudget(d.spin)
		hc.SetRecorder(o.Telemetry)
		if o.Decider != nil {
			hc.SetDecider(o.Decider)
		}
		if o.Feed != nil {
			hc.SetSignalFeed(o.Feed, o.FeedClock)
		}
		c = hc
	}
	c.SetOpLog(o.Log)
	return c, cm
}

// sweep runs f over every tree of the index through ep — the global tree,
// or each partition's — and sums its counts. Sweeps must run quiesced.
func (d *Deployment) sweep(ep rdma.Endpoint, f func(*btree.Tree) (int, error)) (int, error) {
	l := layout.New(d.Catalog.PageBytes)
	total := 0
	for i, w := range d.Catalog.RootWords {
		n, err := f(btree.New(l, &btree.EndpointMem{Ep: ep, Place: btree.Fixed(i)}, w))
		if err != nil {
			return total, fmt.Errorf("tree %d: %w", i, err)
		}
		total += n
	}
	return total, nil
}

// CheckInvariants verifies every tree through ep (a bare endpoint, or a
// repl.Router re-targeting home addresses to the acting copies) and returns
// the number of live entries.
func (d *Deployment) CheckInvariants(ep rdma.Endpoint) (int, error) {
	return d.sweep(ep, func(t *btree.Tree) (int, error) { return t.CheckInvariants(rdma.NopEnv{}) })
}

// AbandonsLocks reports whether an interrupted client can leave a page lock
// behind. The coarse-grained design cannot: its handlers take and release
// every lock within one RPC, and a failed Call never executed. (An
// interrupted mirror push can leave a backup copy locked, but the sweeps
// read acting copies only, and a rebuild recopies backups wholesale.)
func (d *Deployment) AbandonsLocks() bool { return d.Catalog.Design != nam.CoarseGrained }

// RecoverLocks releases, through ep, the page locks abandoned by clients
// interrupted mid-operation, and returns how many it cleared. Run it before
// the validating sweeps, which would spin on such a lock.
func (d *Deployment) RecoverLocks(ep rdma.Endpoint) (int, error) {
	return d.sweep(ep, (*btree.Tree).RecoverLocks)
}

// Scan visits every live entry through ep, used as it is.
func (d *Deployment) Scan(ep rdma.Endpoint, emit func(k, v uint64) bool) error {
	c, _ := d.designClient(ep, ClientOptions{Env: rdma.NopEnv{}}, nil)
	return c.Range(0, ^uint64(0)>>1, emit)
}

// partitionResetter is a Decider with per-partition state (policy.Engine).
type partitionResetter interface {
	ResetPartition(partition int)
}

// resetEvents fans replication events out to the flight recorder and the
// policy engine: after a promotion or group move the partition's signals
// describe the old acting server, so the engine resets its window rather
// than feed the estimator stale samples.
type resetEvents struct {
	log *obs.Log // nil-safe
	r   partitionResetter
}

var _ repl.Events = (*resetEvents)(nil)

func (e *resetEvents) PromotionEvent(home int, epoch uint64, acting int) {
	e.log.PromotionEvent(home, epoch, acting)
	e.r.ResetPartition(home)
}

func (e *resetEvents) GroupMovedEvent(home int, epoch uint64) {
	e.log.GroupMovedEvent(home, epoch)
	e.r.ResetPartition(home)
}

func (e *resetEvents) MemberDeadEvent(home, member int) {
	e.log.MemberDeadEvent(home, member)
}
