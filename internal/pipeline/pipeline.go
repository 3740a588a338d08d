// Package pipeline implements the asynchronous pipelined client dataplane of
// all three index designs: one Engine keeps up to Inflight index operations
// outstanding on a single endpoint (one queue pair per memory server),
// advancing each operation as a resumable step machine (Machine) driven by
// verb completions. A design supplies only its machine — the fine design a
// btree.Traversal, the coarse design one RPC, the hybrid design a traverse
// RPC or one-sided descent followed by its one-sided leaf half — and the
// engine owns the rest: the slot ring, rounds, backpressure, Drain,
// callbacks, op spans, reconnects and operation-level recovery.
//
// Scheduling is bulk-synchronous rounds. In each round the engine flushes
// everything the in-flight machines posted — verbs from *different*
// operations coalesce into the same doorbell batch — polls the batch, and
// delivers each machine its own completions, which makes it post its next
// step. One exposed round trip therefore advances every in-flight operation
// by one protocol step: point-lookup throughput approaches
// depth-independent RTT amortization instead of paying depth round trips per
// operation (the Storm-style dataplane; see DESIGN.md §11).
//
// Correctness under reordering rests on two properties:
//
//   - Per-QP ordering. All verbs to one server run in posting order, so a
//     traversal's fused page+version read pair validates exactly as the
//     serial Mem.ReadValidated batch does, even with other operations'
//     verbs interleaved around it.
//   - Step isolation. A machine only ever has one step outstanding, and a
//     traversal step's verbs target one page. Verbs of different in-flight
//     operations are mutually unordered — which is exactly the concurrency
//     the B-link protocol already tolerates between different clients.
//
// Fault handling composes with the client-side recovery stack: a traversal
// reposts a step after a transient verb failure (the serial retry.Policy
// budget), QP errors on posted verbs park the machine until the engine
// re-establishes the queue pair (neighbouring operations keep flowing), and
// failed attempts run the same epoch-fenced re-run as core.Recovered, under
// its Recoverable policy and DefaultMaxOpAttempts bound — including the
// insert presence check that makes re-runs exactly-once. A fault on one in-flight
// operation never stalls or corrupts its neighbours: its slot retries
// independently while every other slot advances each round.
package pipeline

import (
	"errors"
	"fmt"

	"github.com/namdb/rdmatree/internal/btree"
	"github.com/namdb/rdmatree/internal/core"
	"github.com/namdb/rdmatree/internal/obs"
	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/telemetry"
)

const (
	// DefaultInflight is the default number of operation slots.
	DefaultInflight = 16
	// reconnectBudget bounds reconnect attempts per QP-error episode,
	// mirroring retry.Policy.MaxAttempts.
	reconnectBudget = 8
)

// Sink receives the verbs a Machine posts: a traversal's one-sided verbs
// and the two-sided call. The Engine implements it, tagging each verb with
// the slot that posted it.
type Sink interface {
	btree.PostSink
	PostCall(server int, req []byte)
}

// Machine is one slot's per-operation step machine; btree.Traversal defines
// the semantics of each method. Begin arms it, Step with nil completions
// runs its first step, and every later Step receives the completions of
// exactly the verbs the previous Step or Redo posted, in posting order. A
// step may also issue blocking verbs on the engine's endpoint: the engine
// calls machines only outside a Flush..Poll window, where the
// rdma.AsyncEndpoint contract allows them.
type Machine interface {
	Begin(op btree.TraversalOp, key, value uint64)
	Step(comps []rdma.Completion, sink Sink) btree.StepResult
	// Redo resumes after StepBlocked once the queue pair was re-established.
	Redo(sink Sink) btree.StepResult
	// Abort gives up on a blocked operation.
	Abort(err error) btree.StepResult
	// TakePause reports, and clears, a request for a backoff pause.
	TakePause() bool
	// Outcome reports the operation's result.
	Outcome() Outcome
}

// Outcome is a machine's operation result. Values and Found are valid after
// StepDone; Part after Begin.
type Outcome struct {
	// Values holds a lookup's values; it may alias machine scratch.
	Values []uint64
	// Found reports whether a delete marked an entry.
	Found bool
	// Part is the partition server the operation's span carries (-1: none).
	Part int
}

// Config configures an Engine. Every field but Inflight is required.
type Config struct {
	// Ep is the client's endpoint. Its non-blocking surface (rdma.Async) is
	// the dataplane; the machines issue what a step cannot post through
	// their own handles onto this same endpoint. When Ep implements
	// rdma.Reconnector (faultnet), QP errors on one in-flight operation are
	// recovered by reconnecting without disturbing the others.
	Ep rdma.Endpoint
	// Env is the client's execution environment (time charging, backoff).
	Env rdma.Env
	// Inflight is the number of operation slots (default DefaultInflight).
	Inflight int
	// Index is the design client the engine drives (each design's
	// Client.Pipeline passes itself): it runs over Ep and shares the
	// machines' cached descent state. Range runs on it, and epoch fences
	// invalidate through it when it implements core.RootInvalidator.
	Index core.Index
	// NewMachine builds one slot's machine.
	NewMachine func() Machine
}

// slot is one operation slot: a step machine plus the operation's recovery
// bookkeeping. Slots and their buffers live for the engine's lifetime, so
// steady-state operation allocates nothing.
type slot struct {
	idx int32
	m   Machine

	op         btree.TraversalOp
	key, value uint64
	attempts   int
	insRecover bool // insert recovery: presence-check lookup in flight
	start      int64

	blockedOn   int
	blockedErr  error
	reconnTries int

	onLookup func(values []uint64, err error)
	onInsert func(err error)
	onDelete func(found bool, err error)
}

// Engine is a per-client submission/completion core. Like the endpoint it
// drives, an Engine is owned by a single client goroutine.
type Engine struct {
	cfg Config
	ep  rdma.AsyncEndpoint
	rc  rdma.Reconnector
	inv core.RootInvalidator
	rec *telemetry.Recorder
	log *obs.Log

	slots  []*slot
	free   []int32
	active int

	// posting is the slot whose machine is currently being advanced; the
	// Sink methods tag every posted verb with it.
	posting int32
	// postOrder[i] is the slot that posted the i-th verb of the current
	// round; completions arrive in posting order, and each slot's verbs for
	// one step are contiguous, so delivery walks contiguous runs. nextOrder
	// accumulates the following round while the current one is delivered.
	postOrder, nextOrder []int32
	comps                []rdma.Completion
	blocked              []int32
	pauseWanted          bool
}

var _ Sink = (*Engine)(nil)

// New creates an engine. The endpoint's native non-blocking surface is used
// when it has one (all bundled transports and the telemetry decorator);
// otherwise the generic adapter provides the same contract.
func New(cfg Config) *Engine {
	if cfg.Inflight <= 0 {
		cfg.Inflight = DefaultInflight
	}
	e := &Engine{cfg: cfg, ep: rdma.Async(cfg.Ep)}
	e.rc, _ = cfg.Ep.(rdma.Reconnector)
	e.inv, _ = cfg.Index.(core.RootInvalidator)
	e.slots = make([]*slot, cfg.Inflight)
	e.free = make([]int32, 0, cfg.Inflight)
	for i := range e.slots {
		e.slots[i] = &slot{idx: int32(i), m: cfg.NewMachine()}
		e.free = append(e.free, int32(i))
	}
	return e
}

// Inflight returns the engine's slot count.
func (e *Engine) Inflight() int { return len(e.slots) }

// SetRecorder directs the pipeline-shape counters (doorbell coalescing,
// in-flight depth, completed operations, recoveries, reconnects) into rec.
// Verb counters come from the endpoint decorator and per-op index counters
// from the design's client. A nil rec disables recording.
func (e *Engine) SetRecorder(rec *telemetry.Recorder) { e.rec = rec }

// SetLog attaches the flight recorder. Unlike the serial clients' depth-
// counted BeginOp/EndOp bracketing — which cannot express interleaved
// operations — the engine records each operation as a retroactive span when
// it completes (obs.Log.OpSpan). A nil log disables tracing.
func (e *Engine) SetLog(l *obs.Log) { e.log = l }

// --- Sink -----------------------------------------------------------------

// PostRead implements btree.PostSink.
func (e *Engine) PostRead(p rdma.RemotePtr, dst []uint64) {
	e.ep.PostRead(p, dst)
	e.nextOrder = append(e.nextOrder, e.posting)
}

// PostWrite implements btree.PostSink.
func (e *Engine) PostWrite(p rdma.RemotePtr, src []uint64) {
	e.ep.PostWrite(p, src)
	e.nextOrder = append(e.nextOrder, e.posting)
}

// PostCAS implements btree.PostSink.
func (e *Engine) PostCAS(p rdma.RemotePtr, old, new uint64) {
	e.ep.PostCAS(p, old, new)
	e.nextOrder = append(e.nextOrder, e.posting)
}

// PostFetchAdd implements btree.PostSink.
func (e *Engine) PostFetchAdd(p rdma.RemotePtr, delta uint64) {
	e.ep.PostFetchAdd(p, delta)
	e.nextOrder = append(e.nextOrder, e.posting)
}

// PostCall implements Sink.
func (e *Engine) PostCall(server int, req []byte) {
	e.ep.PostCall(server, req)
	e.nextOrder = append(e.nextOrder, e.posting)
}

// --- submission -----------------------------------------------------------

// Lookup submits a lookup. cb runs when the operation completes (possibly
// within this call, when the engine had to pump rounds to free a slot). The
// values slice may alias slot scratch: it is valid only inside the callback.
// Callbacks may submit new operations.
func (e *Engine) Lookup(key uint64, cb func(values []uint64, err error)) {
	s := e.take()
	s.op, s.key, s.value = btree.TravLookup, key, 0
	s.onLookup = cb
	e.begin(s)
}

// Insert submits an insert of (key, value).
func (e *Engine) Insert(key, value uint64, cb func(err error)) {
	s := e.take()
	s.op, s.key, s.value = btree.TravInsert, key, value
	s.onInsert = cb
	e.begin(s)
}

// Delete submits a delete of one entry matching (key, value); the callback
// reports whether an entry was marked.
func (e *Engine) Delete(key, value uint64, cb func(found bool, err error)) {
	s := e.take()
	s.op, s.key, s.value = btree.TravDelete, key, value
	s.onDelete = cb
	e.begin(s)
}

// Drain runs rounds until every in-flight operation completed.
func (e *Engine) Drain() {
	for e.active > 0 {
		e.pumpRound()
	}
}

// Range drains the pipeline and runs the design client's range scan. Scans
// are not pipelined: a scan is a pointer chain (each leaf names the next),
// so overlapping its steps with point operations buys no round trips, and
// the serial scan already prefetches via head nodes.
func (e *Engine) Range(lo, hi uint64, emit func(k, v uint64) bool) error {
	e.Drain()
	return e.cfg.Index.Range(lo, hi, emit)
}

// Admit runs rounds until a slot is free (submission backpressure), so the
// next submitted operation is admitted at once. A caller timing operations
// reads its clock after Admit: an operation's latency then starts at its
// admission and does not include the service time of the operation whose
// slot it waited for.
func (e *Engine) Admit() {
	for len(e.free) == 0 {
		e.pumpRound()
	}
}

// take claims a free slot, pumping rounds until one completes if all are
// busy.
func (e *Engine) take() *slot {
	e.Admit()
	idx := e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	e.active++
	return e.slots[idx]
}

func (e *Engine) begin(s *slot) {
	s.attempts = 1
	s.insRecover = false
	if e.log != nil {
		s.start = e.log.Clock.Now()
	}
	e.advance(s, s.op)
}

// advance (re)arms s's machine for op and runs its first step.
func (e *Engine) advance(s *slot, op btree.TraversalOp) {
	value := s.value
	if op == btree.TravLookup {
		value = 0
	}
	s.m.Begin(op, s.key, value)
	e.posting = s.idx
	e.handle(s, s.m.Step(nil, e))
}

// --- the round loop -------------------------------------------------------

// pumpRound runs one scheduling round: doorbell the verbs posted since the
// last round, poll their completions, and deliver each machine its run.
func (e *Engine) pumpRound() {
	e.postOrder, e.nextOrder = e.nextOrder, e.postOrder[:0]
	if e.pauseWanted {
		// Coalesced backoff: however many machines hit a consistency
		// restart or transient fault last round, the engine pays one pause.
		e.cfg.Env.Pause()
		e.pauseWanted = false
	}
	if len(e.postOrder) == 0 {
		if len(e.blocked) > 0 {
			e.retryBlocked()
			return
		}
		if e.active == 0 {
			return
		}
		panic("pipeline: active operations with no posted verbs")
	}
	e.ep.Flush()
	if e.rec != nil {
		e.rec.RecordPipelineRound(int64(e.active))
	}
	e.comps = e.ep.Poll(e.comps[:0])
	if len(e.comps) != len(e.postOrder) {
		panic(fmt.Sprintf("pipeline: %d completions for %d posted verbs", len(e.comps), len(e.postOrder)))
	}
	for i := 0; i < len(e.comps); {
		idx := e.postOrder[i]
		j := i + 1
		for j < len(e.comps) && e.postOrder[j] == idx {
			j++
		}
		s := e.slots[idx]
		e.posting = idx
		e.handle(s, s.m.Step(e.comps[i:j], e))
		i = j
	}
	e.retryBlocked()
}

// handle dispatches one step result.
func (e *Engine) handle(s *slot, res btree.StepResult) {
	if s.m.TakePause() {
		e.pauseWanted = true
	}
	switch res.Status {
	case btree.StepRunning:
		// Verbs queued for the next round.
	case btree.StepDone:
		if s.insRecover {
			e.presenceResult(s)
			return
		}
		e.finish(s, nil)
	case btree.StepBlocked:
		s.blockedOn = res.Server
		s.blockedErr = res.Err
		s.reconnTries = 0
		e.blocked = append(e.blocked, s.idx)
	case btree.StepFailed:
		e.opError(s, res.Err)
	}
}

// presenceResult consumes the epoch-fenced presence check of an interrupted
// insert (core.Recovered's exactly-once contract: values act as idempotence
// tokens).
func (e *Engine) presenceResult(s *slot) {
	s.insRecover = false
	for _, v := range s.m.Outcome().Values {
		if v == s.value {
			// The interrupted attempt published (key, value): committed.
			e.finish(s, nil)
			return
		}
	}
	e.advance(s, btree.TravInsert)
}

// opError applies core.Recovered's operation-level recovery to a failed
// attempt.
func (e *Engine) opError(s *slot, err error) {
	if !core.Recoverable(err) {
		e.finish(s, err)
		return
	}
	if s.attempts >= core.DefaultMaxOpAttempts {
		e.finish(s, fmt.Errorf("pipeline: %s(%d) unrecovered after %d attempts: %w",
			opName(s.op), s.key, core.DefaultMaxOpAttempts, err))
		return
	}
	s.attempts++
	e.fence()
	if s.op == btree.TravInsert {
		// Presence check before the re-run; see presenceResult.
		s.insRecover = true
		e.advance(s, btree.TravLookup)
		return
	}
	e.advance(s, s.op)
}

// fence opens a new epoch for one slot's re-run: drop the client's cached
// descent state (whatever the interrupted attempt cached is suspect) and
// record the fence. Other slots' in-flight steps are unaffected — they hold
// validated copies and their own page pointers, which stay correct under
// B-link semantics; at worst their next restart re-reads the fresh root too.
func (e *Engine) fence() {
	if e.inv != nil {
		e.inv.InvalidateRoot()
	}
	if e.rec != nil {
		e.rec.CountOpRecovery()
	}
	e.log.EpochFence()
}

// retryBlocked attempts one reconnect per blocked slot. Success redoes the
// interrupted step; ErrServerDown re-parks the slot (bounded attempts, with
// the engine's coalesced pause as backoff — faultnet's Reconnect advances
// the fault schedule, so a scripted restart always arrives); anything else
// aborts the step into operation-level recovery.
func (e *Engine) retryBlocked() {
	if len(e.blocked) == 0 {
		return
	}
	pending := e.blocked
	e.blocked = e.blocked[:0]
	for _, idx := range pending {
		s := e.slots[idx]
		err := e.reconnect(s)
		if e.log != nil && e.rc != nil {
			e.log.ReconnectEvent(s.blockedOn, err == nil)
		}
		if err == nil {
			if e.rec != nil {
				e.rec.CountReconnect()
			}
			e.posting = s.idx
			e.handle(s, s.m.Redo(e))
			continue
		}
		if errors.Is(err, rdma.ErrServerDown) {
			s.reconnTries++
			if s.reconnTries < reconnectBudget {
				e.blocked = append(e.blocked, idx)
				e.pauseWanted = true
				continue
			}
			err = fmt.Errorf("pipeline: server %d down after %d reconnect attempts: %w",
				s.blockedOn, s.reconnTries, err)
		}
		e.handle(s, s.m.Abort(err))
	}
}

func (e *Engine) reconnect(s *slot) error {
	if e.rc == nil {
		// No reconnect surface (tcpnet recovers by teardown + lazy redial;
		// direct/simnet QPs cannot error): surface the verb error so the
		// step aborts into operation-level recovery.
		return s.blockedErr
	}
	return e.rc.Reconnect(s.blockedOn)
}

// finish completes s's operation: telemetry, flight-recorder span, slot
// release, then the callback (which may immediately submit a new operation).
func (e *Engine) finish(s *slot, err error) {
	out := s.m.Outcome()
	if e.rec != nil {
		e.rec.CountPipelineOp()
	}
	if e.log != nil {
		e.log.OpSpan(obsKind(s.op), s.key, out.Part, e.log.Clock.Now()-s.start, err)
	}
	e.active--
	e.free = append(e.free, s.idx)
	switch s.op {
	case btree.TravLookup:
		cb := s.onLookup
		s.onLookup = nil
		if cb != nil {
			cb(out.Values, err)
		}
	case btree.TravInsert:
		cb := s.onInsert
		s.onInsert = nil
		if cb != nil {
			cb(err)
		}
	default:
		cb := s.onDelete
		s.onDelete = nil
		if cb != nil {
			cb(out.Found, err)
		}
	}
}

func opName(op btree.TraversalOp) string {
	switch op {
	case btree.TravLookup:
		return "lookup"
	case btree.TravInsert:
		return "insert"
	default:
		return "delete"
	}
}

func obsKind(op btree.TraversalOp) obs.OpKind {
	switch op {
	case btree.TravLookup:
		return obs.OpLookup
	case btree.TravInsert:
		return obs.OpInsert
	default:
		return obs.OpDelete
	}
}
