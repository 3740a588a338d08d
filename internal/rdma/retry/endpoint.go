package retry

import (
	"github.com/namdb/rdmatree/internal/rdma"
)

// Wrap decorates inner so every verb issued through it runs under the
// policy: transient failures retried with bounded jittered backoff, QP
// errors healed through the inner endpoint's Reconnector (when it has one).
// This is the single retry surface shared by the coarse, fine, and hybrid
// clients; stack it directly over the transport (or over faultnet), under
// the telemetry decorator if per-verb latencies should include retries.
//
// The wrapper has the non-blocking surface (rdma.AsyncEndpoint) exactly
// when inner has it; its Poll retries what a blocking verb's retry would
// (see asyncEndpoint), so a stack never falls back to rdma.Async's
// blocking adapter because retry sits in it.
//
// Like every endpoint, the wrapper is owned by one client goroutine.
func Wrap(inner rdma.Endpoint, p *Policy) rdma.Endpoint {
	p.Defaults()
	rec, _ := inner.(rdma.Reconnector)
	e := &Endpoint{inner: inner, policy: p, rec: rec}
	if a, ok := inner.(rdma.AsyncEndpoint); ok {
		return &asyncEndpoint{Endpoint: e, async: a}
	}
	return e
}

// Endpoint is the retrying rdma.Endpoint decorator built by Wrap over an
// endpoint with blocking verbs only.
type Endpoint struct {
	inner  rdma.Endpoint
	policy *Policy
	rec    rdma.Reconnector
}

var _ rdma.Endpoint = (*Endpoint)(nil)
var _ rdma.Reconnector = (*Endpoint)(nil)

// Reconnect implements rdma.Reconnector by delegating to the inner endpoint
// (no-op success when it cannot reconnect), so further decorators keep the
// capability visible.
func (e *Endpoint) Reconnect(server int) error {
	if e.rec == nil {
		return nil
	}
	return e.rec.Reconnect(server)
}

// Read implements rdma.Endpoint.
func (e *Endpoint) Read(p rdma.RemotePtr, dst []uint64) error {
	return e.policy.Do(e.rec, p.Server(), func() error {
		return e.inner.Read(p, dst)
	})
}

// ReadMulti implements rdma.Endpoint. Reconnect targets the first pointer's
// server; a QP error on another server in the batch heals on the retry that
// fails against it directly.
func (e *Endpoint) ReadMulti(ps []rdma.RemotePtr, dst [][]uint64) error {
	server := 0
	if len(ps) > 0 {
		server = ps[0].Server()
	}
	return e.policy.Do(e.rec, server, func() error {
		return e.inner.ReadMulti(ps, dst)
	})
}

// Write implements rdma.Endpoint.
func (e *Endpoint) Write(p rdma.RemotePtr, src []uint64) error {
	return e.policy.Do(e.rec, p.Server(), func() error {
		return e.inner.Write(p, src)
	})
}

// CompareAndSwap implements rdma.Endpoint. Retrying a failed CAS is safe
// because a transiently failed verb was never executed remotely (package
// doc); the returned prior value is always from the attempt that executed.
func (e *Endpoint) CompareAndSwap(p rdma.RemotePtr, old, new uint64) (uint64, error) {
	var prev uint64
	err := e.policy.Do(e.rec, p.Server(), func() error {
		var verr error
		prev, verr = e.inner.CompareAndSwap(p, old, new) //rdmavet:allow caschecked -- decorator pass-through: prev is returned verbatim and checked at the caller's call site
		return verr
	})
	return prev, err
}

// FetchAdd implements rdma.Endpoint.
func (e *Endpoint) FetchAdd(p rdma.RemotePtr, delta uint64) (uint64, error) {
	var prev uint64
	err := e.policy.Do(e.rec, p.Server(), func() error {
		var verr error
		prev, verr = e.inner.FetchAdd(p, delta)
		return verr
	})
	return prev, err
}

// Alloc implements rdma.Endpoint.
func (e *Endpoint) Alloc(server int, n int) (rdma.RemotePtr, error) {
	var ptr rdma.RemotePtr
	err := e.policy.Do(e.rec, server, func() error {
		var verr error
		ptr, verr = e.inner.Alloc(server, n)
		return verr
	})
	return ptr, err
}

// Free implements rdma.Endpoint.
func (e *Endpoint) Free(p rdma.RemotePtr, n int) error {
	return e.policy.Do(e.rec, p.Server(), func() error {
		return e.inner.Free(p, n)
	})
}

// Call implements rdma.Endpoint. A transiently failed Call was dropped
// before the handler ran (request-loss model), so re-sending it cannot
// double-execute the RPC.
func (e *Endpoint) Call(server int, req []byte) ([]byte, error) {
	var resp []byte
	err := e.policy.Do(e.rec, server, func() error {
		var verr error
		resp, verr = e.inner.Call(server, req)
		return verr
	})
	return resp, err
}

// NumServers implements rdma.Endpoint.
func (e *Endpoint) NumServers() int { return e.inner.NumServers() }
