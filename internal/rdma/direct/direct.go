// Package direct implements the rdma verbs API as immediate in-process
// operations on the servers' rdma.Region memory: atomic verbs are real
// atomics, and a multi-word READ or WRITE is the region's bulk copy — one
// memory move, not atomic, validated by the protocol against the page's
// version word like a NIC's DMA (per-word atomics under the race detector).
//
// It has no performance model: verbs complete instantly on the calling
// goroutine and RPC handlers execute on the caller. It exists so the index
// protocols can be exercised functionally — including under the race
// detector with many concurrent compute threads — and so examples run
// without a simulation harness.
package direct

import (
	"fmt"
	"runtime"

	"github.com/namdb/rdmatree/internal/rdma"
)

// Fabric is an in-process NAM cluster: a set of memory servers reachable
// from any number of client endpoints.
type Fabric struct {
	servers []*rdma.Server
	handler rdma.Handler
}

var _ rdma.Fabric = (*Fabric)(nil)

// New creates a fabric with numServers memory servers, each with a region of
// regionBytes bytes (reservedBytes of which are left for superblock
// metadata, see rdma.NewServer).
func New(numServers, regionBytes, reservedBytes int) *Fabric {
	if numServers < 1 || numServers > rdma.MaxServers {
		panic(fmt.Sprintf("direct: invalid server count %d", numServers))
	}
	f := &Fabric{}
	for i := 0; i < numServers; i++ {
		f.servers = append(f.servers, rdma.NewServer(i, regionBytes, reservedBytes))
	}
	return f
}

// NumServers implements rdma.Fabric.
func (f *Fabric) NumServers() int { return len(f.servers) }

// Server implements rdma.Fabric.
func (f *Fabric) Server(i int) *rdma.Server { return f.servers[i] }

// SetHandler implements rdma.Fabric.
func (f *Fabric) SetHandler(h rdma.Handler) { f.handler = h }

// Endpoint returns a client endpoint. Each concurrent client must use its
// own endpoint: the blocking verbs are stateless here, but the post/poll
// queue is per-endpoint state like on every other transport.
func (f *Fabric) Endpoint() rdma.Endpoint { return &endpoint{f: f} }

type endpoint struct {
	f *Fabric
	q rdma.PostQueue
}

var _ rdma.Endpoint = (*endpoint)(nil)

func (e *endpoint) server(p rdma.RemotePtr) (*rdma.Server, error) {
	if p.IsNull() {
		return nil, fmt.Errorf("direct: null remote pointer")
	}
	id := p.Server()
	if id >= len(e.f.servers) {
		return nil, fmt.Errorf("direct: pointer to unknown server %d", id)
	}
	return e.f.servers[id], nil
}

func (e *endpoint) Read(p rdma.RemotePtr, dst []uint64) error {
	s, err := e.server(p)
	if err != nil {
		return err
	}
	s.Region.Read(p.Offset(), dst)
	return nil
}

func (e *endpoint) ReadMulti(ps []rdma.RemotePtr, dst [][]uint64) error {
	for i, p := range ps {
		if err := e.Read(p, dst[i]); err != nil {
			return err
		}
	}
	return nil
}

func (e *endpoint) Write(p rdma.RemotePtr, src []uint64) error {
	s, err := e.server(p)
	if err != nil {
		return err
	}
	s.Region.Write(p.Offset(), src)
	return nil
}

func (e *endpoint) CompareAndSwap(p rdma.RemotePtr, old, new uint64) (uint64, error) {
	s, err := e.server(p)
	if err != nil {
		return 0, err
	}
	return s.Region.CompareAndSwap(p.Offset(), old, new), nil
}

func (e *endpoint) FetchAdd(p rdma.RemotePtr, delta uint64) (uint64, error) {
	s, err := e.server(p)
	if err != nil {
		return 0, err
	}
	return s.Region.FetchAdd(p.Offset(), delta), nil
}

func (e *endpoint) Alloc(server int, n int) (rdma.RemotePtr, error) {
	if server < 0 || server >= len(e.f.servers) {
		return rdma.NullPtr, fmt.Errorf("direct: alloc on unknown server %d", server)
	}
	off, err := e.f.servers[server].Alloc.Alloc(n)
	if err != nil {
		return rdma.NullPtr, err
	}
	return rdma.MakePtr(server, off), nil
}

func (e *endpoint) Free(p rdma.RemotePtr, n int) error {
	s, err := e.server(p)
	if err != nil {
		return err
	}
	s.Alloc.Free(p.Offset(), n)
	return nil
}

func (e *endpoint) Call(server int, req []byte) ([]byte, error) {
	if e.f.handler == nil {
		return nil, fmt.Errorf("direct: no RPC handler installed")
	}
	if server < 0 || server >= len(e.f.servers) {
		return nil, fmt.Errorf("direct: call to unknown server %d", server)
	}
	resp, _ := e.f.handler(Env{}, server, req)
	return resp, nil
}

func (e *endpoint) NumServers() int { return len(e.f.servers) }

// --- non-blocking post/poll surface (rdma.AsyncEndpoint) -----------------
//
// direct has no performance model, so buffered verbs simply execute through
// the blocking methods at Poll time, one completion per verb in posting
// order. Implementing the surface natively (rather than falling back to the
// generic adapter) keeps the endpoint self-contained and lets race-detector
// runs cover the same code paths the pipelined engine drives elsewhere.

var _ rdma.AsyncEndpoint = (*endpoint)(nil)

func (e *endpoint) PostRead(p rdma.RemotePtr, dst []uint64) rdma.Token {
	return e.q.Post(rdma.Posted{Op: rdma.PostOpRead, P: p, Dst: dst})
}

func (e *endpoint) PostWrite(p rdma.RemotePtr, src []uint64) rdma.Token {
	return e.q.Post(rdma.Posted{Op: rdma.PostOpWrite, P: p, Src: src})
}

func (e *endpoint) PostCAS(p rdma.RemotePtr, old, new uint64) rdma.Token {
	return e.q.Post(rdma.Posted{Op: rdma.PostOpCAS, P: p, A: old, B: new})
}

func (e *endpoint) PostFetchAdd(p rdma.RemotePtr, delta uint64) rdma.Token {
	return e.q.Post(rdma.Posted{Op: rdma.PostOpFetchAdd, P: p, A: delta})
}

func (e *endpoint) PostCall(server int, req []byte) rdma.Token {
	return e.q.Post(rdma.Posted{Op: rdma.PostOpCall, Server: server, Req: req})
}

func (e *endpoint) Flush() {}

func (e *endpoint) Poll(out []rdma.Completion) []rdma.Completion {
	pending := e.q.Pending()
	for i := range pending {
		v := &pending[i]
		c := rdma.Completion{Token: v.Tok}
		switch v.Op {
		case rdma.PostOpRead:
			c.Err = e.Read(v.P, v.Dst)
		case rdma.PostOpWrite:
			c.Err = e.Write(v.P, v.Src)
		case rdma.PostOpCAS:
			//rdmavet:allow caschecked -- transport executes the posted CAS; the prior value is delivered in Completion.Val for the poster to compare
			c.Val, c.Err = e.CompareAndSwap(v.P, v.A, v.B)
		case rdma.PostOpFetchAdd:
			c.Val, c.Err = e.FetchAdd(v.P, v.A)
		case rdma.PostOpCall:
			c.Resp, c.Err = e.Call(v.Server, v.Req)
		}
		out = append(out, c)
	}
	e.q.Clear()
	return out
}

// Env is the execution environment handed to RPC handlers on the direct
// transport: CPU accounting is a no-op and spin-wait backoff yields the
// processor so lock holders on other goroutines can progress.
type Env struct{}

// Charge implements rdma.Env.
func (Env) Charge(int64) {}

// Pause implements rdma.Env.
func (Env) Pause() { runtime.Gosched() }
