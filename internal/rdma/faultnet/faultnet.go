// Package faultnet injects deterministic, seeded fault schedules into any
// rdma.Endpoint — the chaos layer of this repository.
//
// A Net holds the scripted server-level fault state of one cluster (crashes,
// restarts, registered-region loss) and hands out per-client Endpoint
// decorators that additionally execute a per-endpoint probabilistic schedule
// (dropped completions, delayed completions, QP error transitions) driven by
// a PRNG seeded from (Schedule.Seed, client id). The decorator stacks on any
// transport (direct, tcpnet, simnet) and composes with the telemetry
// decorator; with a zero Schedule it is transparent — every verb is a plain
// delegation.
//
// # Fault model
//
// A verb that fails was never executed by the remote side. This models the
// conservative failure of a reliable-connection NIC: the HCA retransmits a
// WQE transparently and reports an error only after exhausting its retry
// budget, i.e. before the request was acked. (The executed-but-unacked
// window of a real fabric collapses onto the crash cases: a request that
// reached a server which then crashed is indistinguishable, to the client,
// from one that never arrived — and the client-side recovery protocol
// re-verifies state before re-applying mutations either way; see
// DESIGN.md §9.) This property is what makes bounded verb-level retries safe
// for every verb including CAS and two-sided Calls.
//
// Fault kinds:
//
//   - delayed completion: the verb executes, the extra latency is counted;
//     a delay past Schedule.DeadlineNS instead surfaces rdma.ErrTimeout
//     (the completion missed its deadline; the WQE is flushed unexecuted).
//   - dropped completion: rdma.ErrTimeout, verb not executed.
//   - QP error: the queue pair to one server transitions to the error
//     state; every verb to it fails with rdma.ErrQPError until the client
//     re-establishes it through Reconnect.
//   - server crash/restart: scripted at the Net level in global verb ticks.
//     While down, verbs to the server break the QP (rdma.ErrQPError) and
//     Reconnect reports rdma.ErrServerDown. On restart the region either
//     survived (process restart, contents re-registered) or was lost — in
//     the loss case the server's incarnation advances and every verb from a
//     client holding old rkeys fails permanently with rdma.ErrServerLost.
//
// Time is counted in verb ticks, not wall clock: the schedule is
// deterministic for a fixed seed regardless of host speed, and a crashed
// server restarts after a fixed amount of cluster-wide verb traffic, so
// retrying clients always make progress toward the restart.
package faultnet

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/namdb/rdmatree/internal/rdma"
)

// Fault kind labels passed to Counters.CountFault.
const (
	FaultDrop         = "drop"          // completion dropped, verb timed out
	FaultDelay        = "delay"         // completion delayed within deadline
	FaultDelayTimeout = "delay-timeout" // completion delayed past deadline
	FaultQPError      = "qp-error"      // queue pair transitioned to error
	FaultServerDown   = "server-down"   // verb hit a crashed server
	FaultServerLost   = "server-lost"   // verb hit a server that lost its region
)

// Counters receives one call per injected fault; telemetry.Recorder
// implements it. Implementations must be safe for concurrent use.
type Counters interface {
	CountFault(kind string)
}

// Step is one scripted server-level fault: at global verb tick AtTick,
// Server crashes; it restarts once the cluster has issued DownForTicks
// further verbs. If Lose is set the restart loses the registered region
// (incarnation bump): clients holding pointers into it get
// rdma.ErrServerLost from then on.
type Step struct {
	AtTick       int64
	Server       int
	DownForTicks int64
	Lose         bool
}

// Schedule is one deterministic fault schedule. The zero value injects
// nothing.
type Schedule struct {
	// Seed drives every probabilistic choice; per-endpoint streams are
	// derived from (Seed, client id), so a schedule is reproducible for a
	// fixed seed and client count.
	Seed int64
	// DropRate is the per-verb probability of a dropped completion.
	DropRate float64
	// DelayRate is the per-verb probability of a delayed completion; the
	// delay is sampled uniformly from [1, MaxDelayNS].
	DelayRate float64
	// MaxDelayNS bounds sampled completion delays (default 2*DeadlineNS).
	MaxDelayNS int64
	// DeadlineNS is the per-verb completion deadline: a sampled delay
	// beyond it surfaces as rdma.ErrTimeout (default 10µs).
	DeadlineNS int64
	// QPErrorEvery, when > 0, transitions the QP carrying the current verb
	// into the error state roughly every QPErrorEvery verbs per endpoint
	// (exact spacing is seeded jitter in [N, 2N)).
	QPErrorEvery int
	// Steps are the scripted server crashes, ordered by AtTick.
	Steps []Step
	// Drop scripts dropped completions: each endpoint's n-th verb (1-based,
	// counted like QPErrorEvery's spacing) for every n listed, in ascending
	// order, fails with rdma.ErrTimeout unexecuted (unless the seeded
	// schedule already failed it). It draws nothing from the PRNG, so it
	// forces exact per-completion outcomes without moving the seeded
	// streams.
	Drop []int64
}

func (s *Schedule) deadline() int64 {
	if s.DeadlineNS > 0 {
		return s.DeadlineNS
	}
	return 10_000
}

func (s *Schedule) maxDelay() int64 {
	if s.MaxDelayNS > 0 {
		return s.MaxDelayNS
	}
	return 2 * s.deadline()
}

// serverState is the Net-level view of one memory server.
type serverState struct {
	down        bool
	restartAt   int64 // global tick at which the server comes back
	loseOnUp    bool
	incarnation int
}

// Net is the shared fault state of one cluster: the global verb tick and
// per-server crash/incarnation state. One Net is shared by every endpoint of
// a run; derive per-client endpoints with Endpoint.
type Net struct {
	sched    Schedule
	counters Counters

	// OnLose, when set before the run starts, is invoked once each time a
	// server restarts without its registered region (the incarnation bump).
	// The replication chaos harness uses it to actually zero the lost
	// server's region, so "recovery" is exercised against genuinely
	// destroyed data rather than a region that conveniently survived. The
	// hook runs outside the Net lock and must not call back into Net.
	OnLose func(server int)

	mu      sync.Mutex
	tick    int64
	stepIdx int
	servers map[int]*serverState
}

// New creates the shared fault state for a cluster running sched. counters
// may be nil.
func New(sched Schedule, counters Counters) *Net {
	return &Net{sched: sched, counters: counters, servers: map[int]*serverState{}}
}

func (n *Net) count(kind string) {
	if n.counters != nil {
		n.counters.CountFault(kind)
	}
}

func (n *Net) state(server int) *serverState {
	st, ok := n.servers[server]
	if !ok {
		st = &serverState{}
		n.servers[server] = st
	}
	return st
}

// advance bumps the global verb tick, fires due scripted steps, restarts
// servers whose downtime elapsed, and returns the observed (down,
// incarnation) of server. Called once per verb attempt (and per reconnect
// attempt, so blocked clients still drive scripted restarts forward).
func (n *Net) advance(server int) (down bool, incarnation int) {
	n.mu.Lock()
	var lost []int
	n.tick++
	for n.stepIdx < len(n.sched.Steps) && n.sched.Steps[n.stepIdx].AtTick <= n.tick {
		step := n.sched.Steps[n.stepIdx]
		n.stepIdx++
		st := n.state(step.Server)
		st.down = true
		st.restartAt = n.tick + step.DownForTicks
		st.loseOnUp = step.Lose
		n.count("crash")
	}
	for s, st := range n.servers {
		if st.down && n.tick >= st.restartAt {
			st.down = false
			if st.loseOnUp {
				st.incarnation++
				st.loseOnUp = false
				lost = append(lost, s)
			}
		}
	}
	st := n.state(server)
	down, incarnation = st.down, st.incarnation
	hook := n.OnLose
	n.mu.Unlock()
	if hook != nil {
		for _, s := range lost {
			hook(s)
		}
	}
	return down, incarnation
}

// Tick returns the current global verb tick (tests, reports).
func (n *Net) Tick() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.tick
}

// Endpoint wraps inner in this Net's fault schedule for one client. Like
// every endpoint it must be owned by a single goroutine.
func (n *Net) Endpoint(inner rdma.Endpoint, client int) *Endpoint {
	e := &Endpoint{
		inner: inner,
		net:   n,
		// splitmix-style stream separation so each client draws an
		// independent deterministic sequence from the shared seed.
		rng:      rand.New(rand.NewSource(n.sched.Seed*0x9e3779b9 + int64(client)*0x85ebca6b + 1)),
		qpBroken: map[int]bool{},
		reg:      map[int]int{},
	}
	if n.sched.QPErrorEvery > 0 {
		e.nextQPError = int64(n.sched.QPErrorEvery) + e.rng.Int63n(int64(n.sched.QPErrorEvery))
	}
	return e
}

// Endpoint is the per-client fault-injecting decorator.
type Endpoint struct {
	inner rdma.Endpoint
	net   *Net
	rng   *rand.Rand

	verbs       int64
	nextQPError int64
	nextDrop    int // index of the next Schedule.Drop entry
	qpBroken    map[int]bool
	reg         map[int]int // incarnation this client's rkeys were registered against

	// DelayedNS accumulates injected within-deadline completion delays, so
	// harnesses can report how much latency the schedule added.
	DelayedNS int64

	// Async post/poll state (see Poll).
	async      rdma.AsyncEndpoint
	posted     []asyncPost
	nextTok    rdma.Token
	innerComps []rdma.Completion
}

var _ rdma.Endpoint = (*Endpoint)(nil)
var _ rdma.Reconnector = (*Endpoint)(nil)
var _ rdma.AsyncEndpoint = (*Endpoint)(nil)

// gate runs the fault schedule for one verb targeting the given servers.
// A non-nil error means the verb must not execute.
func (e *Endpoint) gate(servers ...int) error {
	for _, s := range servers {
		down, inc := e.net.advance(s)
		if inc != e.reg[s] {
			e.net.count(FaultServerLost)
			return fmt.Errorf("faultnet: server %d: %w", s, rdma.ErrServerLost)
		}
		if down {
			// A crashed server flushes the QP: the client sees the
			// connection break and must reconnect (which reports
			// ErrServerDown until the restart).
			e.qpBroken[s] = true
			e.net.count(FaultServerDown)
			return fmt.Errorf("faultnet: server %d crashed: %w", s, rdma.ErrQPError)
		}
		if e.qpBroken[s] {
			return fmt.Errorf("faultnet: server %d: %w", s, rdma.ErrQPError)
		}
	}
	e.verbs++
	scripted := false
	if drops := e.net.sched.Drop; e.nextDrop < len(drops) && drops[e.nextDrop] == e.verbs {
		e.nextDrop++
		scripted = true
	}
	err := e.draw(servers)
	if err == nil && scripted {
		e.net.count(FaultDrop)
		err = fmt.Errorf("faultnet: completion dropped (scripted): %w", rdma.ErrTimeout)
	}
	return err
}

// draw runs the probabilistic part of the schedule for one verb.
func (e *Endpoint) draw(servers []int) error {
	sched := &e.net.sched
	if sched.QPErrorEvery > 0 && e.verbs >= e.nextQPError && len(servers) > 0 {
		e.nextQPError = e.verbs + int64(sched.QPErrorEvery) + e.rng.Int63n(int64(sched.QPErrorEvery))
		s := servers[0]
		e.qpBroken[s] = true
		e.net.count(FaultQPError)
		return fmt.Errorf("faultnet: server %d: %w", s, rdma.ErrQPError)
	}
	if sched.DropRate > 0 && e.rng.Float64() < sched.DropRate {
		e.net.count(FaultDrop)
		return fmt.Errorf("faultnet: completion dropped: %w", rdma.ErrTimeout)
	}
	if sched.DelayRate > 0 && e.rng.Float64() < sched.DelayRate {
		d := 1 + e.rng.Int63n(sched.maxDelay())
		if d > sched.deadline() {
			e.net.count(FaultDelayTimeout)
			return fmt.Errorf("faultnet: completion delayed %dns past the %dns deadline: %w",
				d, sched.deadline(), rdma.ErrTimeout)
		}
		e.DelayedNS += d
		e.net.count(FaultDelay)
	}
	return nil
}

// Reconnect implements rdma.Reconnector: it re-establishes the QP to server,
// reporting ErrServerDown while the server is crashed and ErrServerLost when
// it came back without its region. Reconnect attempts advance the global
// tick, so clients blocked on a crashed server still drive its scripted
// restart forward.
func (e *Endpoint) Reconnect(server int) error {
	down, inc := e.net.advance(server)
	if down {
		return fmt.Errorf("faultnet: server %d still down: %w", server, rdma.ErrServerDown)
	}
	if inc != e.reg[server] {
		e.net.count(FaultServerLost)
		return fmt.Errorf("faultnet: server %d restarted without its region: %w", server, rdma.ErrServerLost)
	}
	if r, ok := e.inner.(rdma.Reconnector); ok {
		if err := r.Reconnect(server); err != nil {
			return err
		}
	}
	delete(e.qpBroken, server)
	return nil
}

// Reregister adopts server's current incarnation: the client obtains fresh
// rkeys for the restarted server's (empty) region, after which verbs stop
// reporting ErrServerLost. This is the first step of a replica rebuild — the
// rebuilt region is blank until survivors re-replicate onto it. Returns
// ErrServerDown while the server is still crashed.
func (e *Endpoint) Reregister(server int) error {
	down, inc := e.net.advance(server)
	if down {
		return fmt.Errorf("faultnet: server %d still down: %w", server, rdma.ErrServerDown)
	}
	if r, ok := e.inner.(rdma.Reconnector); ok {
		if err := r.Reconnect(server); err != nil {
			return err
		}
	}
	e.reg[server] = inc
	delete(e.qpBroken, server)
	return nil
}

// Read implements rdma.Endpoint.
func (e *Endpoint) Read(p rdma.RemotePtr, dst []uint64) error {
	if err := e.gate(p.Server()); err != nil {
		return err
	}
	return e.inner.Read(p, dst)
}

// ReadMulti implements rdma.Endpoint. The batch waits on one completion, so
// it draws one fault decision; a crashed or lost server anywhere in the
// batch fails the whole batch.
func (e *Endpoint) ReadMulti(ps []rdma.RemotePtr, dst [][]uint64) error {
	servers := make([]int, 0, len(ps))
	seen := map[int]bool{}
	for _, p := range ps {
		if s := p.Server(); !seen[s] {
			seen[s] = true
			servers = append(servers, s)
		}
	}
	if err := e.gate(servers...); err != nil {
		return err
	}
	return e.inner.ReadMulti(ps, dst)
}

// Write implements rdma.Endpoint.
func (e *Endpoint) Write(p rdma.RemotePtr, src []uint64) error {
	if err := e.gate(p.Server()); err != nil {
		return err
	}
	return e.inner.Write(p, src)
}

// CompareAndSwap implements rdma.Endpoint.
func (e *Endpoint) CompareAndSwap(p rdma.RemotePtr, old, new uint64) (uint64, error) {
	if err := e.gate(p.Server()); err != nil {
		return 0, err
	}
	return e.inner.CompareAndSwap(p, old, new)
}

// FetchAdd implements rdma.Endpoint.
func (e *Endpoint) FetchAdd(p rdma.RemotePtr, delta uint64) (uint64, error) {
	if err := e.gate(p.Server()); err != nil {
		return 0, err
	}
	return e.inner.FetchAdd(p, delta)
}

// Alloc implements rdma.Endpoint.
func (e *Endpoint) Alloc(server int, n int) (rdma.RemotePtr, error) {
	if err := e.gate(server); err != nil {
		return rdma.NullPtr, err
	}
	return e.inner.Alloc(server, n)
}

// Free implements rdma.Endpoint.
func (e *Endpoint) Free(p rdma.RemotePtr, n int) error {
	if err := e.gate(p.Server()); err != nil {
		return err
	}
	return e.inner.Free(p, n)
}

// Call implements rdma.Endpoint. A dropped Call is a request lost before the
// server processed it (same not-executed model as the one-sided verbs).
func (e *Endpoint) Call(server int, req []byte) ([]byte, error) {
	if err := e.gate(server); err != nil {
		return nil, err
	}
	return e.inner.Call(server, req)
}

// NumServers implements rdma.Endpoint.
func (e *Endpoint) NumServers() int { return e.inner.NumServers() }

// --- non-blocking post/poll surface (rdma.AsyncEndpoint) -----------------
//
// Each posted verb draws its fault decision at Post time, in posting order,
// so a schedule remains deterministic regardless of how the inner transport
// overlaps the batch. A gated verb is never forwarded — it completes with the
// injected error at Poll, while its surviving batch neighbours proceed
// untouched on the inner async surface (rdma.Async of the wrapped endpoint):
// the per-verb not-executed fault model holds within a doorbell batch.

// asyncPost records one posted verb's gate outcome: err != nil means the verb
// was swallowed by the schedule and owes its caller an error completion.
type asyncPost struct {
	tok rdma.Token
	err error
}

// ensureAsync resolves the inner async surface on first use.
func (e *Endpoint) ensureAsync() rdma.AsyncEndpoint {
	if e.async == nil {
		e.async = rdma.Async(e.inner)
	}
	return e.async
}

// record assigns the next token and stores the gate outcome.
func (e *Endpoint) record(err error) rdma.Token {
	tok := e.nextTok
	e.nextTok++
	e.posted = append(e.posted, asyncPost{tok: tok, err: err})
	return tok
}

// PostRead implements rdma.AsyncEndpoint.
func (e *Endpoint) PostRead(p rdma.RemotePtr, dst []uint64) rdma.Token {
	err := e.gate(p.Server())
	if err == nil {
		e.ensureAsync().PostRead(p, dst)
	}
	return e.record(err)
}

// PostWrite implements rdma.AsyncEndpoint.
func (e *Endpoint) PostWrite(p rdma.RemotePtr, src []uint64) rdma.Token {
	err := e.gate(p.Server())
	if err == nil {
		e.ensureAsync().PostWrite(p, src)
	}
	return e.record(err)
}

// PostCAS implements rdma.AsyncEndpoint.
func (e *Endpoint) PostCAS(p rdma.RemotePtr, old, new uint64) rdma.Token {
	err := e.gate(p.Server())
	if err == nil {
		e.ensureAsync().PostCAS(p, old, new)
	}
	return e.record(err)
}

// PostFetchAdd implements rdma.AsyncEndpoint.
func (e *Endpoint) PostFetchAdd(p rdma.RemotePtr, delta uint64) rdma.Token {
	err := e.gate(p.Server())
	if err == nil {
		e.ensureAsync().PostFetchAdd(p, delta)
	}
	return e.record(err)
}

// PostCall implements rdma.AsyncEndpoint.
func (e *Endpoint) PostCall(server int, req []byte) rdma.Token {
	err := e.gate(server)
	if err == nil {
		e.ensureAsync().PostCall(server, req)
	}
	return e.record(err)
}

// Flush implements rdma.AsyncEndpoint.
func (e *Endpoint) Flush() {
	if e.async != nil {
		e.async.Flush()
	}
}

// Poll implements rdma.AsyncEndpoint: the inner surface's completions (in
// forwarding order) are merged with the injected failures back into posting
// order under this decorator's tokens.
func (e *Endpoint) Poll(out []rdma.Completion) []rdma.Completion {
	if len(e.posted) == 0 {
		return out
	}
	e.innerComps = e.innerComps[:0]
	if e.async != nil {
		e.innerComps = e.async.Poll(e.innerComps)
	}
	j := 0
	for _, p := range e.posted {
		c := rdma.Completion{Token: p.tok, Err: p.err}
		if p.err == nil {
			ic := &e.innerComps[j]
			j++
			c.Val, c.Resp, c.Err = ic.Val, ic.Resp, ic.Err
		}
		out = append(out, c)
	}
	e.posted = e.posted[:0]
	return out
}
