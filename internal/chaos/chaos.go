// Package chaos is the fault-injection harness: it deploys one of the three
// index designs on an in-process cluster, runs concurrent client load
// through the full robustness stack (faultnet fault injection → shared retry
// policy → operation-level epoch-fenced recovery), and verifies the
// survivor invariants afterwards through bare, fault-free endpoints:
//
//   - every acked insert is present exactly once (no lost acks, no
//     duplicated retries, no torn pages);
//   - no (key, value) pair appears twice anywhere in the tree;
//   - the tree is structurally well-formed (the engine's CheckInvariants
//     sweep);
//   - per-operation recovery latency stayed bounded;
//   - the injected-fault and retry counts are exported through the
//     telemetry counters.
//
// The per-endpoint fault streams and the scripted crash schedule are
// deterministic for a fixed Schedule.Seed (see faultnet); goroutine
// interleaving on the direct transport is not, so two runs inject the same
// fault pattern per client but may interleave operations differently.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/namdb/rdmatree/internal/core"
	"github.com/namdb/rdmatree/internal/deploy"
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
	"github.com/namdb/rdmatree/internal/telemetry"
)

// Config parameterizes one chaos run.
type Config struct {
	// Design is "coarse", "fine", or "hybrid".
	Design string
	// Servers is the memory-server count (default 4).
	Servers int
	// PageBytes is the index page size (default 512).
	PageBytes int
	// Preload is the number of bulk-loaded entries (default 2000).
	Preload int
	// Clients is the number of concurrent client goroutines (default 6).
	Clients int
	// OpsPerClient is the operation count per client (default 400).
	OpsPerClient int
	// Keyspace bounds the random keys (default 4 * Preload).
	Keyspace uint64
	// Schedule is the fault schedule executed by faultnet.
	Schedule faultnet.Schedule
	// SpinBudget bounds per-operation consistency restarts (default 20000).
	SpinBudget int
	// MaxOpAttempts bounds the operation-level recovery loop (default 8).
	MaxOpAttempts int
	// Recorder receives verb, fault, retry, and recovery counters. Nil
	// allocates a private one (exposed on the Report).
	Recorder *telemetry.Recorder
	// Obs enables the per-client flight recorders: every client's op spans,
	// level reads, retries, reconnects, and epoch fences are recorded into a
	// per-client obs.Log under a deterministic tick clock, and triggered
	// dumps (ErrServerLost, SLO breach, invariant failure) surface on the
	// Report.
	Obs bool
	// SLOTicks, when > 0 with Obs, is the per-op latency SLO in tick-clock
	// units (every recorded event is one tick); an op exceeding it triggers
	// a flight-recorder dump.
	SLOTicks int64
	// Replicas is the page-replication factor k (0 and 1 both mean
	// unreplicated). With k >= 2 every client runs the full replication
	// stack (repl.Router failover re-targeting + repl.Mirrorer
	// mirror-before-ack pushes), a scripted region loss physically wipes
	// the server's region, and the post-run phase promotes, verifies
	// through the surviving copies, and rebuilds the wiped members.
	Replicas int
	// SkipVerify skips the post-run verification and rebuild phases. It is
	// for scenarios asserting genuine unrecoverable loss (every member of a
	// replica group wiped): the surviving state is incomplete by
	// construction, so the invariant sweep is meaningless.
	SkipVerify bool
	// Adaptive runs each hybrid client under its own traversal-policy engine
	// (internal/policy): per-partition strategy decisions fed by the client's
	// own signal window, with promotions and group moves resetting the
	// affected partition's window. Ignored for the other designs.
	Adaptive bool
}

func (c *Config) defaults() {
	if c.Servers == 0 {
		c.Servers = 4
	}
	if c.PageBytes == 0 {
		c.PageBytes = 512
	}
	if c.Preload == 0 {
		c.Preload = 2000
	}
	if c.Clients == 0 {
		c.Clients = 6
	}
	if c.OpsPerClient == 0 {
		c.OpsPerClient = 400
	}
	if c.Keyspace == 0 {
		c.Keyspace = uint64(4 * c.Preload)
	}
	if c.SpinBudget == 0 {
		c.SpinBudget = 20000
	}
	if c.MaxOpAttempts == 0 {
		c.MaxOpAttempts = 8
	}
}

// Report is the outcome of one chaos run.
type Report struct {
	Design string

	// Client-side outcome.
	AckedInserts  int // inserts acked to clients
	FailedInserts int // inserts surfacing an error (not acked)
	Lookups       int
	FailedOps     int // all operations surfacing an error
	ServerLostOps int // operations that surfaced rdma.ErrServerLost
	MaxOpNS       int64

	// Post-run verification through bare endpoints.
	LocksCleared   int  // abandoned page locks released before verification
	LiveEntries    int  // CheckInvariants' live-entry count
	AckedPresent   bool // every acked insert found exactly once
	NoDuplicates   bool // no (key, value) pair appears twice anywhere
	PreloadIntact  bool // every preloaded entry still present
	MissingAcked   int
	DuplicatePairs int
	MissingPreload int

	// Verified reports whether the post-run verification phase ran (false
	// only under Config.SkipVerify); the invariant verdicts above are
	// meaningful only when it did.
	Verified bool

	// Replication (Config.Replicas >= 2 only).
	Wiped        []int    // servers whose region was lost and wiped mid-run
	GroupEpochs  []uint64 // post-run authoritative epoch per group
	RebuiltWords int      // words recopied into wiped members by the rebuild
	RebuildClean bool     // every rebuilt member byte-identical to its authority

	// Telemetry (the run's Recorder, for counter assertions and reports).
	Recorder *telemetry.Recorder

	// Flight-recorder dumps (Config.Obs only), in client order: triggered
	// during the run by ErrServerLost or SLO breach, and forced for every
	// client when a post-run invariant fails.
	Dumps []obs.Dump
	// ObsEvents is the total number of events recorded across all clients.
	ObsEvents uint64

	// Traversal policy (Config.Adaptive on the hybrid design only).
	PolicySwitches int64 // strategy switches decided across all clients
	PolicyResets   int64 // promotion/group-move window resets across all clients
	// PolicyTrace concatenates every client's rendered decision trace in
	// client order. Decision timestamps come from the injected tick clocks,
	// so single-client runs of the same schedule render byte-identical
	// traces — the replayability contract CI diffs.
	PolicyTrace string
}

// Summary renders the report on a few lines.
func (r *Report) Summary() string {
	s := fmt.Sprintf(
		"design=%s acked_inserts=%d failed_inserts=%d failed_ops=%d server_lost_ops=%d max_op=%s locks_cleared=%d live=%d acked_present=%v no_duplicates=%v preload_intact=%v\n",
		r.Design, r.AckedInserts, r.FailedInserts, r.FailedOps, r.ServerLostOps,
		time.Duration(r.MaxOpNS), r.LocksCleared, r.LiveEntries, r.AckedPresent, r.NoDuplicates, r.PreloadIntact)
	if len(r.Wiped) > 0 {
		s += fmt.Sprintf("wiped=%v group_epochs=%v rebuilt_words=%d rebuild_clean=%v\n",
			r.Wiped, r.GroupEpochs, r.RebuiltWords, r.RebuildClean)
	}
	if r.PolicySwitches > 0 || r.PolicyResets > 0 {
		s += fmt.Sprintf("policy_switches=%d policy_resets=%d\n", r.PolicySwitches, r.PolicyResets)
	}
	return s
}

// kv is one (key, value) pair.
type kv struct{ k, v uint64 }

// regionBytes sizes a server's region from the run: four times a half-full
// leaf's share per key (inner levels, heads, leaked split halves, headroom),
// one slab per server when replicated, 4 MiB at least.
func regionBytes(cfg *Config) int {
	keys := cfg.Preload + cfg.Clients*cfg.OpsPerClient
	b := keys * 8 * cfg.PageBytes / layout.New(cfg.PageBytes).LeafCap / cfg.Servers
	if cfg.Replicas >= 2 {
		b *= cfg.Servers
	}
	return max(b, 4<<20) &^ 7
}

// deployDesign deploys cfg's design on a direct fabric.
func deployDesign(cfg *Config) (*direct.Fabric, *deploy.Deployment, error) {
	design, err := nam.ParseDesign(cfg.Design)
	if err != nil {
		return nil, nil, err
	}
	fab := direct.New(cfg.Servers, regionBytes(cfg), nam.SuperblockBytes)
	spec := core.BuildSpec{
		N: cfg.Preload,
		At: func(i int) (uint64, uint64) {
			step := cfg.Keyspace / uint64(cfg.Preload)
			if step == 0 {
				step = 1
			}
			return uint64(i) * step, uint64(i)
		},
		HeadEvery: 6,
	}
	dep, err := deploy.Build(fab, fab.Endpoint(), deploy.Options{
		Design:     design,
		PageBytes:  cfg.PageBytes,
		Part:       partition.NewRangeUniform(cfg.Servers, cfg.Keyspace),
		Replicas:   cfg.Replicas,
		SpinBudget: cfg.SpinBudget,
	}, spec)
	return fab, dep, err
}

// chaosPolicyConfig is the engine configuration chaos clients run under:
// Defaults plus a dwell horizon in the client's clock units. With a shared
// flight-recorder tick clock every recorded event is one tick, so 600 ticks
// is roughly 40-100 operations; without one the engine's private TickClock
// advances only at decision points, so the dwell is counted in decisions.
func chaosPolicyConfig(servers int, sharedClock bool) policy.Config {
	cfg := policy.Defaults(servers)
	if sharedClock {
		cfg.MinDwell = 600
	} else {
		cfg.MinDwell = 4
	}
	return cfg
}

// clientResult is one client goroutine's outcome.
type clientResult struct {
	acked      []kv
	lookups    int
	failedIns  int
	failedOps  int
	serverLost int
	maxOpNS    int64
	err        error // the client stack could not be built
}

// Run executes one chaos run and verifies the post-run invariants. A non-nil
// error means the harness itself failed (deployment, verification scan); the
// invariant verdicts are on the Report.
func Run(cfg Config) (*Report, error) {
	cfg.defaults()
	fab, dep, err := deployDesign(&cfg)
	if err != nil {
		return nil, err
	}
	rec := cfg.Recorder
	if rec == nil {
		rec = telemetry.NewRecorder(cfg.Servers)
	}
	net := faultnet.New(cfg.Schedule, rec)

	// Region loss becomes real under replication: a scripted Lose zeroes the
	// region's bytes, so recovery must come from the group's surviving
	// copies. (k=1 keeps the legacy lost-registration-only model, where the
	// post-run sweep still sees the old bytes through a bare endpoint.)
	var wipedMu sync.Mutex
	var wiped []int
	replicated := dep.Catalog.Replicated()
	var lay nam.ReplicaLayout
	if replicated {
		lay = dep.Catalog.Layout()
		net.OnLose = func(s int) {
			fab.Server(s).Region.Zero()
			wipedMu.Lock()
			wiped = append(wiped, s)
			wipedMu.Unlock()
		}
	}

	// Per-client flight recorders. Each Log is owned by its client goroutine
	// (like the endpoint); the tick clock makes recorded traces a pure causal
	// order, so a single-client run under a fixed seed dumps byte-identical
	// text on every execution.
	var logs []*obs.Log
	if cfg.Obs {
		logs = make([]*obs.Log, cfg.Clients)
		for c := range logs {
			logs[c] = obs.NewLog(0, &obs.TickClock{})
			logs[c].ClientID = c
			logs[c].SLONS = cfg.SLOTicks
		}
	}

	adaptive := cfg.Adaptive && dep.TakesDecider()
	var engines []*policy.Engine
	if adaptive {
		engines = make([]*policy.Engine, cfg.Clients)
	}

	results := make([]clientResult, cfg.Clients)
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var log *obs.Log // nil unless cfg.Obs; nil disables recording
			if logs != nil {
				log = logs[c]
			}
			// The client's policy engine and signal window, sharing the
			// flight recorder's tick clock when one exists so decision
			// timestamps interleave causally with the recorded events.
			var eng *policy.Engine
			var win *policy.Window
			var pclk policy.Clock
			if adaptive {
				pclk = &obs.TickClock{}
				if log != nil {
					pclk = log.Clock
				}
				win = policy.NewWindow(cfg.Servers)
				eng = policy.NewEngine(chaosPolicyConfig(cfg.Servers, log != nil), win, pclk)
				if log != nil {
					eng.Events = log
				}
				engines[c] = eng
			}
			// The full robustness stack, built inside the owning goroutine:
			// transport endpoint → fault injection → [replica router] →
			// shared retry policy → design client → operation-level
			// recovery. The replication rings retry under their own seeds.
			seeded := func(offset int64) *retry.Policy {
				return &retry.Policy{Seed: cfg.Schedule.Seed + offset + int64(c), Counters: rec}
			}
			o := deploy.ClientOptions{
				ID: c, Ep: net.Endpoint(fab.Endpoint(), c), Env: direct.Env{},
				RouterPolicy: seeded(1_000), MirrorPolicy: seeded(2_000), Retry: seeded(0),
				Log: log, Recover: true, MaxOpAttempts: cfg.MaxOpAttempts, Counters: rec,
			}
			if log != nil {
				o.Retry.Events = log
			}
			if eng != nil {
				o.Decider, o.Feed, o.FeedClock = eng, win, pclk
			}
			res := &results[c]
			cl, err := dep.Client(o)
			if err != nil {
				res.err = err
				return
			}
			idx := cl.Serial
			rng := rand.New(rand.NewSource(cfg.Schedule.Seed*101 + int64(c)))
			for i := 0; i < cfg.OpsPerClient; i++ {
				k := rng.Uint64() % cfg.Keyspace
				start := time.Now()
				if i%4 == 3 {
					// The harness owns the op span: retries, reconnects, and
					// epoch fences of the recovery wrapper land inside it (the
					// design client's own Begin/End nests).
					log.BeginOp(obs.OpLookup, k, -1)
					_, err := idx.Lookup(k)
					log.EndOp(err)
					res.lookups++
					if err != nil {
						res.failedOps++
						if errors.Is(err, rdma.ErrServerLost) {
							res.serverLost++
						}
					}
				} else {
					// Values are unique per logical insert — the idempotence
					// token the exactly-once recovery contract needs.
					v := uint64(1)<<40 | uint64(c)<<32 | uint64(i)
					log.BeginOp(obs.OpInsert, k, -1)
					err := idx.Insert(k, v)
					log.EndOp(err)
					if err == nil {
						res.acked = append(res.acked, kv{k, v})
					} else {
						res.failedIns++
						res.failedOps++
						if errors.Is(err, rdma.ErrServerLost) {
							res.serverLost++
						}
					}
				}
				if d := time.Since(start).Nanoseconds(); d > res.maxOpNS {
					res.maxOpNS = d
				}
			}
		}(c)
	}
	wg.Wait()

	rep := &Report{Design: cfg.Design, Recorder: rec}
	acked := map[kv]bool{}
	for i := range results {
		res := &results[i]
		if res.err != nil {
			return nil, fmt.Errorf("chaos: client %d: %w", i, res.err)
		}
		rep.AckedInserts += len(res.acked)
		rep.FailedInserts += res.failedIns
		rep.Lookups += res.lookups
		rep.FailedOps += res.failedOps
		rep.ServerLostOps += res.serverLost
		if res.maxOpNS > rep.MaxOpNS {
			rep.MaxOpNS = res.maxOpNS
		}
		for _, p := range res.acked {
			acked[p] = true
		}
	}

	rep.Wiped = append(rep.Wiped, wiped...)
	for _, eng := range engines {
		if eng != nil {
			rep.PolicySwitches += eng.Switches()
			rep.PolicyResets += eng.Resets()
			rep.PolicyTrace += eng.RenderTrace()
		}
	}

	// Post-run verification through fault-free endpoints. Unreplicated,
	// scripted crashes leave the region contents physically intact (faultnet
	// models lost registrations, not lost DRAM), so a bare endpoint sees the
	// whole tree even after crash/restart schedules. Replicated, the wiped
	// regions really are gone: verification first reconstructs the
	// authoritative view from the surviving epoch words — promoting any
	// group whose loss no client happened to observe — and then reads
	// through a repl.Router so every home-addressed access lands on the
	// acting copy.
	bare := fab.Endpoint()
	vep := bare
	acting := func(home int) int { return home }
	var view *repl.View
	if replicated {
		view = postRunView(lay, bare, wiped)
		for h := 0; h < cfg.Servers; h++ {
			rep.GroupEpochs = append(rep.GroupEpochs, view.Epoch(h))
		}
		vep = repl.NewRouter(bare, lay, view, nil)
		acting = view.Acting
	}

	// The harness-level log records post-run recovery actions (the lock
	// sweep, the replica rebuild) under its own tick clock; client logs
	// cannot — their goroutines have quiesced and the sweep is not part of
	// any client op.
	var sweepLog *obs.Log
	if cfg.Obs {
		sweepLog = obs.NewLog(64, &obs.TickClock{})
		sweepLog.ClientID = -1
	}
	if !cfg.SkipVerify {
		rep.Verified = true
		// First release any page lock abandoned by a client that lost its
		// server mid-operation — the recovery pass an operator would run
		// before readmitting traffic; without it, the validating
		// verification reads below would spin on the dead client's lock.
		if dep.AbandonsLocks() {
			cleared, err := dep.RecoverLocks(vep)
			if err != nil {
				return rep, fmt.Errorf("chaos: post-run lock recovery: %w", err)
			}
			rep.LocksCleared = cleared
			sweepLog.SweepEvent(cleared)
		}
		live, err := dep.CheckInvariants(vep)
		if err != nil {
			return rep, fmt.Errorf("chaos: post-run invariant check: %w", err)
		}
		rep.LiveEntries = live

		seen := map[kv]int{}
		if err := dep.Scan(vep, func(k, v uint64) bool {
			seen[kv{k, v}]++
			return true
		}); err != nil {
			return rep, fmt.Errorf("chaos: post-run scan: %w", err)
		}
		rep.AckedPresent, rep.NoDuplicates, rep.PreloadIntact = true, true, true
		for p := range acked {
			if seen[p] != 1 {
				rep.AckedPresent = false
				rep.MissingAcked++
			}
		}
		for _, n := range seen {
			if n > 1 {
				rep.NoDuplicates = false
				rep.DuplicatePairs++
			}
		}
		step := cfg.Keyspace / uint64(cfg.Preload)
		if step == 0 {
			step = 1
		}
		for i := 0; i < cfg.Preload; i++ {
			if seen[kv{uint64(i) * step, uint64(i)}] != 1 {
				rep.PreloadIntact = false
				rep.MissingPreload++
			}
		}

		// Re-admit every wiped member: re-register its region (adopting the
		// new incarnation), recopy its groups' slab extents from the acting
		// authorities, and verify the copies byte-identical — the crash
		// rebuild that restores full replication factor k.
		if replicated && len(wiped) > 0 {
			rep.RebuildClean = true
			admin := net.Endpoint(bare, cfg.Clients)
			for _, s := range wiped {
				// Each Reregister attempt advances the fault clock, so a
				// server whose down-window outlived the workload still
				// reaches its scripted restart.
				var rerr error
				for i := 0; i < 100_000; i++ {
					if rerr = admin.Reregister(s); !errors.Is(rerr, rdma.ErrServerDown) {
						break
					}
				}
				if rerr != nil {
					return rep, fmt.Errorf("chaos: reregister server %d: %w", s, rerr)
				}
				words, err := repl.RebuildMember(lay, s, acting, fab.Server)
				if err != nil {
					return rep, fmt.Errorf("chaos: rebuild server %d: %w", s, err)
				}
				rep.RebuiltWords += words
				sweepLog.RebuildEvent(s, words)
				for _, h := range lay.Groups.GroupsOf(s) {
					ref := fab.Server(acting(h))
					if ref == fab.Server(s) {
						continue
					}
					if d := repl.DiffExtent(lay, h, ref, fab.Server(s), fab.Server); d != 0 {
						rep.RebuildClean = false
					}
				}
			}
		}
	}

	// Collect flight-recorder dumps. An invariant failure force-dumps every
	// client's ring (plus the harness sweep log) so the failing run's causal
	// history survives as an artifact even when no client-side trigger fired.
	if logs != nil {
		if rep.Verified && (!rep.AckedPresent || !rep.NoDuplicates || !rep.PreloadIntact) {
			for _, l := range logs {
				l.ForceDump("chaos-failure")
			}
			sweepLog.ForceDump("chaos-failure")
		}
		for _, l := range append(logs, sweepLog) {
			d, _ := l.Dumps()
			rep.Dumps = append(rep.Dumps, d...)
			rep.ObsEvents += l.Events()
		}
	}
	return rep, nil
}

// postRunView reconstructs the authoritative replication view after the
// clients have quiesced: per group, the maximum epoch recorded on any member
// is the truth (epoch words only move forward, under CAS). A group whose
// acting member was wiped but whose epoch words never moved — no surviving
// client happened to touch it after the loss — is promoted here, the step a
// readmission operator performs before serving traffic again.
func postRunView(lay nam.ReplicaLayout, bare rdma.Endpoint, wiped []int) *repl.View {
	view := repl.NewView(lay)
	lost := map[int]bool{}
	for _, s := range wiped {
		lost[s] = true
		view.MarkDead(s)
	}
	for h := 0; h < lay.Groups.Servers(); h++ {
		members := lay.Groups.Members(h)
		k := uint64(len(members))
		var e uint64
		for _, m := range members {
			var w [1]uint64
			if err := bare.Read(nam.GroupEpochPtr(m, h), w[:]); err == nil && w[0] > e {
				e = w[0]
			}
		}
		promoted := false
		for i := uint64(0); i < k && lost[members[e%k]]; i++ {
			e++
			promoted = true
		}
		if lost[members[e%k]] {
			continue // every member wiped: genuine k-fault loss
		}
		if promoted {
			for _, m := range members {
				if !lost[m] {
					_ = bare.Write(nam.GroupEpochPtr(m, h), []uint64{e}) //rdmavet:allow verberrs -- bare fault-free endpoint on a live member; a failed epoch install surfaces in the verification reads that follow
				}
			}
		}
		view.SetEpoch(h, e)
	}
	return view
}
