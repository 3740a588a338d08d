package coarse

import (
	"errors"

	"github.com/namdb/rdmatree/internal/btree"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/obs"
	"github.com/namdb/rdmatree/internal/pipeline"
	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/telemetry"
)

// PipelinedClient is the asynchronous variant of Client: up to inflight RPCs
// are outstanding at once, their SENDs sharing doorbell batches
// (DESIGN.md §11). It is a pipeline.Engine whose machine is one RPC to the
// key's partition owner, encoded and finished by the serial Client's
// request/response path — replica-group addressing and the mirror push
// included. RPCs to *different* servers overlap their round trips; the
// paper's depth-proportional latency disappears behind the pipeline exactly
// as in the fine-grained design. The engine supplies core.Recovered's
// operation-level recovery, and reconnects when the endpoint is an
// rdma.Reconnector.
//
// Like the serial Client, a PipelinedClient is owned by a single goroutine.
type PipelinedClient struct {
	eng    *pipeline.Engine
	serial *Client
}

// rpcOps maps an engine operation to its RPC op code.
var rpcOps = [...]uint8{btree.TravLookup: nam.OpLookup, btree.TravInsert: nam.OpInsert, btree.TravDelete: nam.OpDelete}

// rpc is the coarse design's pipeline.Machine.
type rpc struct {
	c      *Client
	req    nam.Request
	server int
	out    pipeline.Outcome
}

func (m *rpc) Begin(op btree.TraversalOp, key, value uint64) {
	m.server = m.c.part.Server(key)
	m.req = nam.Request{Op: rpcOps[op], Key: key, Value: value}
	m.out = pipeline.Outcome{Part: m.server}
}

func (m *rpc) Step(comps []rdma.Completion, sink pipeline.Sink) btree.StepResult {
	if comps == nil {
		return m.Redo(sink)
	}
	resp, err := m.c.response(m.server, m.req.Op, comps[0].Resp, comps[0].Err)
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
func (m *rpc) Redo(sink pipeline.Sink) btree.StepResult {
	sink.PostCall(m.server, m.c.encode(m.server, &m.req))
	return btree.StepResult{Status: btree.StepRunning}
}

func (m *rpc) Abort(err error) btree.StepResult {
	return btree.StepResult{Status: btree.StepFailed, Err: err}
}

func (m *rpc) TakePause() bool { return false }

func (m *rpc) Outcome() pipeline.Outcome { return m.out }

// NewPipelinedClient binds an asynchronous client to an endpoint;
// inflight <= 0 selects pipeline.DefaultInflight. It does not run on a
// replicated catalog: the client has no mirror push, so inserts would ack
// before their pages reach the backups, and the replica router
// (repl.Router) has no Post/Flush/Poll, so the engine would fall back to
// blocking verbs. internal/deploy rejects the combination.
func NewPipelinedClient(ep rdma.Endpoint, env rdma.Env, cat *nam.Catalog, inflight int) *PipelinedClient {
	c := NewClient(ep, env, cat)
	eng := pipeline.New(pipeline.Config{
		Ep:         ep,
		Env:        env,
		Inflight:   inflight,
		Index:      c,
		NewMachine: func() pipeline.Machine { return &rpc{c: c} },
	})
	return &PipelinedClient{eng: eng, serial: c}
}

// SetRecorder directs the pipeline-shape counters (doorbell coalescing,
// in-flight depth) into rec; the index counters of the server-side
// operations come from the handler's Options.Telemetry.
func (c *PipelinedClient) SetRecorder(rec *telemetry.Recorder) { c.eng.SetRecorder(rec) }

// SetOpLog attaches the flight recorder: completed operations land as
// retroactive spans carrying their partition, and every RPC records its
// destination and outcome. A nil log disables tracing.
func (c *PipelinedClient) SetOpLog(log *obs.Log) {
	c.serial.SetOpLog(log)
	c.eng.SetLog(log)
}

// Lookup submits an asynchronous lookup; cb runs when the RPC completes
// (possibly within this call, if the engine pumps rounds to free a slot).
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

// Range drains the pipeline and runs the serial client's range RPCs.
func (c *PipelinedClient) Range(lo, hi uint64, emit func(k, v uint64) bool) error {
	return c.eng.Range(lo, hi, emit)
}

// Drain blocks until every submitted operation has completed.
func (c *PipelinedClient) Drain() { c.eng.Drain() }

// Admit blocks, running rounds, until a slot is free: the operation
// submitted next is admitted at once (pipeline.Engine.Admit).
func (c *PipelinedClient) Admit() { c.eng.Admit() }

// Inflight returns the number of call slots.
func (c *PipelinedClient) Inflight() int { return c.eng.Inflight() }
