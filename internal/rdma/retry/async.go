package retry

import (
	"errors"
	"fmt"

	"github.com/namdb/rdmatree/internal/rdma"
)

// asyncEndpoint is what Wrap returns over an inner endpoint that has the
// non-blocking surface: the retrying blocking verbs plus Post/Flush/Poll.
//
// Posted verbs are forwarded to the inner surface as they are posted, and
// remembered. Poll reaps the inner batch and then retries, per memory
// server, exactly one failure pattern: a trailing run of transient failures
// — that server's verbs from its first failure to its last posted verb all
// failed, and every verb before the run succeeded. An RC queue pair
// produces that pattern when it flushes the work requests behind an error,
// and because none of the run executed (DESIGN.md §9) while everything
// before it did, re-posting the run in order replays the server's verbs in
// their posting order. Each round re-posts every such run in one doorbell,
// after the Policy's backoff and, for a QP error, a reconnect; a run still
// failing after MaxAttempts rounds is delivered with its last errors. Any
// other pattern — a failure with a success behind it on the same server, or
// a permanent error — is delivered as it is: re-posting it would reorder
// the server's verbs, which only the caller can judge.
type asyncEndpoint struct {
	*Endpoint
	async rdma.AsyncEndpoint

	posted []rdma.Posted // this batch's verbs in posting order; Tok is the outer token
	next   rdma.Token
	redo   []int // indexes into posted of the verbs to re-post this round
	srv    []runState
	reaped []rdma.Completion // completions of a re-posted round
}

// runState is one server's failure pattern in the current round.
type runState struct {
	first   int  // index of the server's first failed verb, or -1
	bad     bool // a success behind a failure, or a permanent error
	qp      bool // the run holds a QP error: reconnect before re-posting
	settled bool // delivered as is for the rest of this Poll
}

var (
	_ rdma.AsyncEndpoint = (*asyncEndpoint)(nil)
	_ rdma.Reconnector   = (*asyncEndpoint)(nil)
)

// target returns the memory server v runs on.
func target(v *rdma.Posted) int {
	if v.Op == rdma.PostOpCall {
		return v.Server
	}
	return v.P.Server()
}

// forward posts v on the inner surface.
func (e *asyncEndpoint) forward(v *rdma.Posted) {
	switch v.Op {
	case rdma.PostOpRead:
		e.async.PostRead(v.P, v.Dst)
	case rdma.PostOpWrite:
		e.async.PostWrite(v.P, v.Src)
	case rdma.PostOpCAS:
		e.async.PostCAS(v.P, v.A, v.B)
	case rdma.PostOpFetchAdd:
		e.async.PostFetchAdd(v.P, v.A)
	default:
		e.async.PostCall(v.Server, v.Req)
	}
}

func (e *asyncEndpoint) post(v rdma.Posted) rdma.Token {
	v.Tok = e.next
	e.next++
	e.posted = append(e.posted, v)
	e.forward(&v)
	return v.Tok
}

// PostRead implements rdma.AsyncEndpoint.
func (e *asyncEndpoint) PostRead(p rdma.RemotePtr, dst []uint64) rdma.Token {
	return e.post(rdma.Posted{Op: rdma.PostOpRead, P: p, Dst: dst})
}

// PostWrite implements rdma.AsyncEndpoint.
func (e *asyncEndpoint) PostWrite(p rdma.RemotePtr, src []uint64) rdma.Token {
	return e.post(rdma.Posted{Op: rdma.PostOpWrite, P: p, Src: src})
}

// PostCAS implements rdma.AsyncEndpoint.
func (e *asyncEndpoint) PostCAS(p rdma.RemotePtr, old, new uint64) rdma.Token {
	return e.post(rdma.Posted{Op: rdma.PostOpCAS, P: p, A: old, B: new})
}

// PostFetchAdd implements rdma.AsyncEndpoint.
func (e *asyncEndpoint) PostFetchAdd(p rdma.RemotePtr, delta uint64) rdma.Token {
	return e.post(rdma.Posted{Op: rdma.PostOpFetchAdd, P: p, A: delta})
}

// PostCall implements rdma.AsyncEndpoint.
func (e *asyncEndpoint) PostCall(server int, req []byte) rdma.Token {
	return e.post(rdma.Posted{Op: rdma.PostOpCall, Server: server, Req: req})
}

// Flush implements rdma.AsyncEndpoint.
func (e *asyncEndpoint) Flush() { e.async.Flush() }

// Poll implements rdma.AsyncEndpoint: the inner batch's completions under
// this endpoint's tokens, after the retries described at asyncEndpoint.
func (e *asyncEndpoint) Poll(out []rdma.Completion) []rdma.Completion {
	if len(e.posted) == 0 {
		return out
	}
	base := len(out)
	out = e.async.Poll(out)
	comps := out[base:]
	failed := false
	for i := range comps {
		comps[i].Token = e.posted[i].Tok
		failed = failed || comps[i].Err != nil
	}
	if failed {
		e.retry(comps)
	}
	clear(e.posted) // drop the callers' buffers
	e.posted = e.posted[:0]
	return out
}

// retry re-posts the batch's retryable runs, round after round, until none
// is left or the Policy's attempts are spent.
func (e *asyncEndpoint) retry(comps []rdma.Completion) {
	if e.srv == nil {
		e.srv = make([]runState, e.Endpoint.inner.NumServers())
	}
	for s := range e.srv {
		e.srv[s].settled = false
	}
	for attempt := 1; e.runs(comps); attempt++ {
		if attempt >= e.policy.MaxAttempts {
			for _, i := range e.redo {
				comps[i].Err = fmt.Errorf("retry: %d attempts exhausted: %w", attempt, comps[i].Err)
			}
			return
		}
		e.reattempt(comps, attempt)
	}
}

// runs classifies this round's failures per server and collects the
// retryable trailing runs, in posting order, into redo.
func (e *asyncEndpoint) runs(comps []rdma.Completion) bool {
	for s := range e.srv {
		e.srv[s] = runState{first: -1, settled: e.srv[s].settled}
	}
	for i := range comps {
		s := target(&e.posted[i])
		if s < 0 || s >= len(e.srv) {
			continue // an unknown server's verb failed permanently
		}
		st, err := &e.srv[s], comps[i].Err
		switch {
		case err == nil:
			st.bad = st.bad || st.first >= 0
		case st.first < 0:
			st.first = i
			fallthrough
		default:
			st.bad = st.bad || !rdma.IsTransient(err)
			st.qp = st.qp || errors.Is(err, rdma.ErrQPError)
		}
	}
	e.redo = e.redo[:0]
	for i := range comps {
		s := target(&e.posted[i])
		if s < 0 || s >= len(e.srv) {
			continue
		}
		if st := &e.srv[s]; st.first >= 0 && i >= st.first && !st.bad && !st.settled {
			e.redo = append(e.redo, i)
		}
	}
	return len(e.redo) > 0
}

// reattempt backs off once for the round, reconnects the QP-errored
// servers, and re-posts every run still owed a retry in one doorbell.
func (e *asyncEndpoint) reattempt(comps []rdma.Completion, attempt int) {
	p := e.policy
	d := p.backoff(attempt)
	for s := range e.srv {
		st := &e.srv[s]
		if st.first < 0 || st.bad || st.settled {
			continue
		}
		if p.Counters != nil {
			p.Counters.CountRetry()
		}
		if p.Events != nil {
			p.Events.RetryEvent(s, int64(d))
		}
		if st.qp && e.rec != nil {
			if rerr := p.reconnect(e.rec, s); rerr != nil {
				// The run is delivered failed with the reconnect's error.
				st.settled = true
				for _, i := range e.redo {
					if target(&e.posted[i]) == s {
						comps[i].Err = rerr
					}
				}
			}
		}
	}
	n := 0
	for _, i := range e.redo {
		if !e.srv[target(&e.posted[i])].settled {
			e.forward(&e.posted[i])
			e.redo[n] = i
			n++
		}
	}
	e.redo = e.redo[:n]
	if n == 0 {
		return
	}
	e.async.Flush()
	e.reaped = e.async.Poll(e.reaped[:0])
	for k, i := range e.redo {
		tok := comps[i].Token
		comps[i] = e.reaped[k]
		comps[i].Token = tok
	}
}
