package hybrid

import (
	"errors"

	"github.com/namdb/rdmatree/internal/btree"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/obs"
	"github.com/namdb/rdmatree/internal/pipeline"
	"github.com/namdb/rdmatree/internal/policy"
	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/telemetry"
)

// PipelinedClient is the asynchronous variant of Client: up to inflight
// operations are outstanding at once, their traverse RPCs sharing doorbell
// batches (DESIGN.md §11). It is a pipeline.Engine whose machine runs the
// serial Client's two halves of an operation. The upper-level traversal is
// either a posted traverse RPC — the call that dominates the exposed latency
// and that the engine pipelines — or, when the decider picks one-sided, the
// client-side descent, run with blocking fused reads in the machine's first
// step. The leaf half (the one-sided leaf access, and a split's install RPC)
// then runs with blocking verbs in the same step; splits are rare, and
// pipelining the leaf half would buy little and complicate the exactly-once
// argument. The engine calls machines only outside a Flush..Poll window,
// where the rdma.AsyncEndpoint contract allows blocking verbs next to
// other slots' unflushed posts; the leaf level therefore runs its publish
// pair as two blocking verbs rather than posting it (EndpointMem.Borrowed).
//
// Like the serial Client, a PipelinedClient is owned by a single goroutine.
type PipelinedClient struct {
	eng    *pipeline.Engine
	serial *Client
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
	sink.PostCall(m.out.Part, m.c.encode(m.out.Part, &req))
	return btree.StepResult{Status: btree.StepRunning}
}

func (m *machine) Abort(err error) btree.StepResult {
	return btree.StepResult{Status: btree.StepFailed, Err: err}
}

func (m *machine) TakePause() bool { return false }

func (m *machine) Outcome() pipeline.Outcome { return m.out }

// NewPipelinedClient binds an asynchronous client to an endpoint; rrStart
// staggers split-page placement, inflight <= 0 selects
// pipeline.DefaultInflight. It does not run on a replicated catalog: the
// client has no mirror push, so inserts would ack before their pages reach
// the backups, and the replica router (repl.Router) has no
// Post/Flush/Poll, so the engine would fall back to blocking verbs.
// internal/deploy rejects the combination.
func NewPipelinedClient(ep rdma.Endpoint, env rdma.Env, cat *nam.Catalog, rrStart, inflight int) *PipelinedClient {
	c := newClient(ep, env, cat, rrStart, true)
	eng := pipeline.New(pipeline.Config{
		Ep:         ep,
		Env:        env,
		Inflight:   inflight,
		Index:      c,
		NewMachine: func() pipeline.Machine { return &machine{c: c} },
	})
	return &PipelinedClient{eng: eng, serial: c}
}

// SetRecorder directs the client-side (one-sided) protocol counters and the
// pipeline-shape counters into rec; server-side traversal counters come
// from the handler's Options.Telemetry as in the serial client.
func (c *PipelinedClient) SetRecorder(rec *telemetry.Recorder) {
	c.serial.SetRecorder(rec)
	c.eng.SetRecorder(rec)
}

// SetOpLog attaches the flight recorder: completed operations land as
// retroactive spans carrying their partition, traverse/install RPCs record
// destination and outcome, and the blocking one-sided accesses are traced
// as on the serial client. A nil log disables tracing.
func (c *PipelinedClient) SetOpLog(log *obs.Log) {
	c.serial.SetOpLog(log)
	c.eng.SetLog(log)
}

// SetSpinBudget bounds the one-sided consistency restarts per operation.
func (c *PipelinedClient) SetSpinBudget(n int) { c.serial.SetSpinBudget(n) }

// SetDecider installs the traversal-policy hook, exactly as on the serial
// Client. It is consulted once per attempt, in the machine's first step.
func (c *PipelinedClient) SetDecider(d policy.Decider) { c.serial.SetDecider(d) }

// SetSignalFeed directs traversal and leaf observations into f, timestamped
// off clock. Traverse RPCs are measured post-to-delivery (their exposed,
// pipelined cost).
func (c *PipelinedClient) SetSignalFeed(f policy.Feed, clock policy.Clock) {
	c.serial.SetSignalFeed(f, clock)
}

// Lookup submits an asynchronous lookup; cb runs when the operation
// completes (possibly within this call).
func (c *PipelinedClient) Lookup(key uint64, cb func(values []uint64, err error)) {
	c.eng.Lookup(key, cb)
}

// Insert submits an asynchronous insert of (key, value).
func (c *PipelinedClient) Insert(key, value uint64, cb func(err error)) {
	c.eng.Insert(key, value, cb)
}

// Delete submits an asynchronous delete of one entry matching (key, value).
func (c *PipelinedClient) Delete(key, value uint64, cb func(found bool, err error)) {
	c.eng.Delete(key, value, cb)
}

// Range drains the pipeline and runs the serial client's range scan.
func (c *PipelinedClient) Range(lo, hi uint64, emit func(k, v uint64) bool) error {
	return c.eng.Range(lo, hi, emit)
}

// Drain blocks until every submitted operation has completed.
func (c *PipelinedClient) Drain() { c.eng.Drain() }

// Admit blocks, running rounds, until a slot is free: the operation
// submitted next is admitted at once (pipeline.Engine.Admit).
func (c *PipelinedClient) Admit() { c.eng.Admit() }

// Inflight returns the number of operation slots.
func (c *PipelinedClient) Inflight() int { return c.eng.Inflight() }
