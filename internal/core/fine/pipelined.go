package fine

import (
	"github.com/namdb/rdmatree/internal/btree"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/obs"
	"github.com/namdb/rdmatree/internal/pipeline"
	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/telemetry"
)

// PipelinedClient is the asynchronous variant of Client: one compute thread
// keeps up to inflight operations outstanding on its endpoint, and the
// traversal steps of all in-flight operations share doorbell batches
// (DESIGN.md §11). It is a pipeline.Engine whose slots each run a
// btree.Traversal over the serial Client's tree. Operations complete through
// callbacks, in whatever order the protocol resolves them; submission blocks
// only when every slot is busy. The engine embeds the same operation-level
// recovery as core.Recovered, so the client needs no Recovered wrapper.
//
// Like the serial Client, a PipelinedClient is owned by a single goroutine.
type PipelinedClient struct {
	eng    *pipeline.Engine
	serial *Client
}

// traversal is the fine design's pipeline.Machine: a btree.Traversal whose
// per-attempt protocol counters go to the serial client's recorder, as a
// serial attempt's do.
type traversal struct {
	*btree.Traversal
	c *Client
}

func (m *traversal) Step(comps []rdma.Completion, sink pipeline.Sink) btree.StepResult {
	return m.record(m.Traversal.Step(comps, sink))
}

func (m *traversal) Redo(sink pipeline.Sink) btree.StepResult { return m.Traversal.Redo(sink) }

func (m *traversal) Abort(err error) btree.StepResult {
	return m.record(m.Traversal.Abort(err))
}

func (m *traversal) Outcome() pipeline.Outcome {
	return pipeline.Outcome{Values: m.Values, Found: m.Found, Part: -1}
}

func (m *traversal) record(res btree.StepResult) btree.StepResult {
	if res.Status == btree.StepDone || res.Status == btree.StepFailed {
		m.c.record(m.St)
	}
	return res
}

// NewPipelinedClient binds an asynchronous client to an endpoint. rrStart
// staggers split-page placement (pass the client ID); inflight <= 0 selects
// pipeline.DefaultInflight. When the endpoint can re-establish queue pairs
// (it implements rdma.Reconnector, e.g. faultnet), QP errors on one
// in-flight operation are recovered without disturbing the others.
//
// It does not run on a replicated catalog: the replica router (repl.Router)
// has no Post/Flush/Poll, so the engine would fall back to blocking verbs.
// internal/deploy rejects the combination.
func NewPipelinedClient(ep rdma.Endpoint, env rdma.Env, cat *nam.Catalog, rrStart, inflight int) *PipelinedClient {
	c := NewClient(ep, env, cat, rrStart)
	eng := pipeline.New(pipeline.Config{
		Ep:       ep,
		Env:      env,
		Inflight: inflight,
		Index:    c,
		NewMachine: func() pipeline.Machine {
			return &traversal{Traversal: btree.NewTraversal(c.tree, env), c: c}
		},
	})
	return &PipelinedClient{eng: eng, serial: c}
}

// Lookup submits an asynchronous lookup; cb runs when it completes (possibly
// within this call, if the engine pumps rounds to free a slot). values
// aliases engine scratch and is valid only inside the callback.
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

// Range drains the pipeline and runs the serial client's one-sided
// leaf-level scan with head-node prefetching (scans chain pointers and gain
// nothing from overlapping with point operations).
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

// SetRecorder directs the per-operation protocol counters and the
// pipeline-shape counters (doorbell coalescing, in-flight depth) into rec.
func (c *PipelinedClient) SetRecorder(rec *telemetry.Recorder) {
	c.serial.SetRecorder(rec)
	c.eng.SetRecorder(rec)
}

// SetOpLog attaches the flight recorder: completed operations land as
// retroactive spans, and Range and the blocking verbs a step issues (a
// split's page allocation, a failed step's unlock) are traced as on the
// serial client. Posted verbs are not traced per access (wrap the endpoint
// with telemetry.Wrap for verb-level spans).
func (c *PipelinedClient) SetOpLog(log *obs.Log) {
	c.serial.SetOpLog(log)
	c.eng.SetLog(log)
}

// SetSpinBudget bounds consistency restarts per traversal attempt, exactly
// as on the serial client.
func (c *PipelinedClient) SetSpinBudget(n int) { c.serial.SetSpinBudget(n) }

// Tree exposes the underlying engine (stats, invariant checks).
func (c *PipelinedClient) Tree() *btree.Tree { return c.serial.Tree() }
