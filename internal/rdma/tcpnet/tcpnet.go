// Package tcpnet implements the rdma verbs API over TCP sockets, so a NAM
// cluster can actually be deployed as separate memory-server and
// compute-client processes (cmd/namserver, cmd/namclient).
//
// Each memory server runs an Agent: a TCP listener whose per-connection
// loops service one-sided verbs against the server's region (the software
// analogue of the NIC's DMA engine, like soft-RoCE) and dispatch two-sided
// RPCs to the registered handler. A client endpoint holds one connection per
// memory server — its "queue pair" — and issues verbs over it, one at a time
// (the blocking surface) or as doorbell batches (Post/Flush/Poll).
//
// The wire format is length-prefixed little-endian frames:
//
//	request:  [u32 length][u8 verb][payload...]
//	response: [u32 length][u8 status][payload...]
//
// A doorbell batch is one write per server each way: the endpoint's Flush
// writes a server's frames together, and the agent flushes its replies only
// once it has consumed every request byte it has read, so the replies to
// frames that arrived together leave together. The agent still executes
// frames one by one and appends each reply before reading the next frame, so
// replies keep request order per connection, which is all Poll relies on.
//
// Both ends build frames in per-connection scratch buffers, so one-sided
// verbs allocate nothing. The price is a lifetime rule: a payload is valid
// until the next frame on that connection. Read destinations are filled
// before the verb returns; an RPC response is copied out (Call, Completion.
// Resp), because its caller decodes it later; an RPC handler may use its
// request only until it returns.
package tcpnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sync"

	"github.com/namdb/rdmatree/internal/rdma"
)

// Verb opcodes.
const (
	opRead = iota + 1
	opWrite
	opCAS
	opFetchAdd
	opAlloc
	opFree
	opCall
	opReadMulti
	opCatalog
)

const (
	statusOK  = 0
	statusErr = 1
)

// maxFrame bounds a single frame (16 MiB), protecting the agent from
// malformed lengths.
const maxFrame = 16 << 20

var order = binary.LittleEndian

// Agent serves one memory server's region over TCP.
type Agent struct {
	srv     *rdma.Server
	handler rdma.Handler
	catalog []byte

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewAgent creates an agent for a server. handler may be nil if the
// deployment uses only one-sided verbs.
func NewAgent(srv *rdma.Server, handler rdma.Handler) *Agent {
	return &Agent{srv: srv, handler: handler, conns: make(map[net.Conn]struct{})}
}

// SetCatalog installs the serialized catalog served to clients (opCatalog).
func (a *Agent) SetCatalog(c []byte) { a.catalog = c }

// Serve accepts connections on l until Close. It returns after the listener
// is closed.
func (a *Agent) Serve(l net.Listener) error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return fmt.Errorf("tcpnet: agent closed")
	}
	a.listener = l
	a.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			a.mu.Lock()
			closed := a.closed
			a.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		a.mu.Lock()
		if a.closed {
			a.mu.Unlock()
			conn.Close()
			return nil
		}
		a.conns[conn] = struct{}{}
		a.wg.Add(1)
		a.mu.Unlock()
		go func() {
			defer a.wg.Done()
			a.serveConn(conn)
			a.mu.Lock()
			delete(a.conns, conn)
			a.mu.Unlock()
		}()
	}
}

// Close shuts the agent down: stops accepting, closes connections, waits for
// per-connection loops.
func (a *Agent) Close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	if a.listener != nil {
		a.listener.Close()
	}
	for c := range a.conns {
		c.Close()
	}
	a.mu.Unlock()
	a.wg.Wait()
}

type agentEnv struct{}

func (agentEnv) Charge(int64) {}
func (agentEnv) Pause()       { runtime.Gosched() }

// serveConn is one connection's loop. It owns the connection's two scratch
// buffers, the request body and the reply frame, so a one-sided verb is served
// without allocating.
//
// Replies are coalesced: the writer is flushed only when the request reader
// has nothing buffered, so the N frames of a doorbell batch that arrived in
// one read are answered by one write, and a serial verb by exactly one, as
// before. Frames are still handled one at a time and their replies appended
// in that order, so per-connection reply order is request order.
func (a *Agent) serveConn(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReaderSize(conn, 64<<10)
	w := bufio.NewWriterSize(conn, 64<<10)
	var req, reply []byte
	for {
		var err error
		if req, err = readFrame(r, req); err != nil {
			return // client disconnected or protocol error
		}
		if reply, err = a.handle(req, beginFrame(reply, statusOK)); err != nil {
			reply = append(beginFrame(reply, statusErr), err.Error()...)
		}
		if err := endFrame(w, reply); err != nil {
			return
		}
		if r.Buffered() > 0 {
			continue // the rest of the batch is already here: answer it in the same write
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// handle executes one request frame and appends the reply payload to out.
// Every operand is the peer's choice: offsets and lengths are checked against
// the region and the allocator here, because the accessors behind them panic
// on what they take for a caller's bug.
func (a *Agent) handle(frame, out []byte) ([]byte, error) {
	if len(frame) < 1 {
		return out, fmt.Errorf("empty frame")
	}
	op, body := frame[0], frame[1:]
	reg := a.srv.Region
	switch op {
	case opRead:
		if len(body) < 12 {
			return out, fmt.Errorf("short read request")
		}
		off, words := order.Uint64(body), int(order.Uint32(body[8:]))
		if 1+8*words > maxFrame {
			return out, fmt.Errorf("read too large")
		}
		if !reg.Contains(off, words) {
			return out, errRange(off, words)
		}
		return reg.AppendLE(out, off, words), nil
	case opWrite:
		if len(body) < 8 || (len(body)-8)%8 != 0 {
			return out, fmt.Errorf("bad write request")
		}
		off, words := order.Uint64(body), (len(body)-8)/8
		if !reg.Contains(off, words) {
			return out, errRange(off, words)
		}
		reg.WriteLE(off, body[8:])
		return out, nil
	case opCAS:
		if len(body) != 24 {
			return out, fmt.Errorf("bad CAS request")
		}
		off := order.Uint64(body)
		if !reg.Contains(off, 1) {
			return out, errRange(off, 1)
		}
		//rdmavet:allow caschecked -- transport relay: the prior value is returned to the remote client, which performs the old-value comparison
		prior := reg.CompareAndSwap(off, order.Uint64(body[8:]), order.Uint64(body[16:]))
		return order.AppendUint64(out, prior), nil
	case opFetchAdd:
		if len(body) != 16 {
			return out, fmt.Errorf("bad FAA request")
		}
		off := order.Uint64(body)
		if !reg.Contains(off, 1) {
			return out, errRange(off, 1)
		}
		return order.AppendUint64(out, reg.FetchAdd(off, order.Uint64(body[8:]))), nil
	case opAlloc:
		if len(body) != 4 || order.Uint32(body) == 0 {
			return out, fmt.Errorf("bad alloc request")
		}
		off, err := a.srv.Alloc.Alloc(int(order.Uint32(body)))
		if err != nil {
			return out, err
		}
		return order.AppendUint64(out, off), nil
	case opFree:
		if len(body) != 12 {
			return out, fmt.Errorf("bad free request")
		}
		return out, a.srv.Alloc.TryFree(order.Uint64(body), int(order.Uint32(body[8:])))
	case opCall:
		if a.handler == nil {
			return out, fmt.Errorf("no RPC handler")
		}
		// body is the connection's request scratch: the handler may read it
		// until it returns, and its response is copied before the next frame.
		resp, _ := a.handler(agentEnv{}, a.srv.ID, body)
		return append(out, resp...), nil
	case opReadMulti:
		if len(body) < 4 {
			return out, fmt.Errorf("bad readmulti request")
		}
		n := int(order.Uint32(body))
		if len(body) != 4+12*n {
			return out, fmt.Errorf("bad readmulti request body")
		}
		total := 0
		for i := 0; i < n; i++ {
			off, words := order.Uint64(body[4+12*i:]), int(order.Uint32(body[4+12*i+8:]))
			if !reg.Contains(off, words) {
				return out, errRange(off, words)
			}
			if total += words; 1+8*total > maxFrame {
				return out, fmt.Errorf("readmulti too large")
			}
			out = reg.AppendLE(out, off, words)
		}
		return out, nil
	case opCatalog:
		if a.catalog == nil {
			return out, fmt.Errorf("no catalog installed")
		}
		return append(out, a.catalog...), nil
	default:
		return out, fmt.Errorf("unknown verb %d", op)
	}
}

func errRange(off uint64, words int) error {
	return fmt.Errorf("range [%#x,+%d words) unaligned or outside the region", off, words)
}

// readFrame reads one frame's body into buf, growing it when the frame is
// larger, and returns the body. It is valid until buf is used again.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return buf[:0], err
	}
	n := order.Uint32(hdr)
	if n > maxFrame {
		return buf[:0], fmt.Errorf("tcpnet: frame of %d bytes exceeds limit", n)
	}
	r.Discard(4) // cannot fail: Peek just buffered these bytes
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	_, err = io.ReadFull(r, buf[:n])
	return buf[:n], err
}

// beginFrame starts a frame in buf's storage: room for the length prefix,
// then the verb or status byte. The payload is appended to the result.
func beginFrame(buf []byte, tag byte) []byte { return append(buf[:0], 0, 0, 0, 0, tag) }

// endFrame fills in f's length prefix and hands the whole frame to w in one
// Write.
func endFrame(w *bufio.Writer, f []byte) error {
	order.PutUint32(f, uint32(len(f)-4))
	_, err := w.Write(f)
	return err
}

// Endpoint is a client-side verbs endpoint over TCP: one connection ("queue
// pair") per memory server. It is not safe for concurrent use — create one
// per client thread, as with the other transports.
type Endpoint struct {
	addrs []string
	conns []net.Conn
	rds   []*bufio.Reader
	wrs   []*bufio.Writer

	// Scratch reused by every verb, which is what keeps one-sided verbs
	// allocation-free: the request frame being encoded, the reply body being
	// decoded, and ReadMulti's pointer indexes grouped per server.
	enc    []byte
	body   []byte
	groups [][]int

	// Async post/poll state (see Poll).
	q       rdma.PostQueue
	written int     // pending verbs already encoded onto the wire
	srvErr  []error // sticky per-server failure for the current batch
}

var _ rdma.Endpoint = (*Endpoint)(nil)

// Dial creates an endpoint for the given ordered memory-server addresses.
// Connections are opened lazily.
func Dial(addrs []string) *Endpoint {
	return &Endpoint{
		addrs:  addrs,
		conns:  make([]net.Conn, len(addrs)),
		rds:    make([]*bufio.Reader, len(addrs)),
		wrs:    make([]*bufio.Writer, len(addrs)),
		groups: make([][]int, len(addrs)),
		srvErr: make([]error, len(addrs)),
	}
}

// Close closes all connections.
func (e *Endpoint) Close() {
	for i, c := range e.conns {
		if c != nil {
			c.Close()
			e.conns[i] = nil
		}
	}
}

// NumServers implements rdma.Endpoint.
func (e *Endpoint) NumServers() int { return len(e.addrs) }

func (e *Endpoint) conn(server int) (*bufio.Writer, error) {
	if server < 0 || server >= len(e.addrs) {
		return nil, fmt.Errorf("tcpnet: unknown server %d", server)
	}
	if e.conns[server] == nil {
		c, err := net.Dial("tcp", e.addrs[server])
		if err != nil {
			return nil, fmt.Errorf("tcpnet: dialing server %d: %w", server, err)
		}
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		e.conns[server] = c
		e.rds[server] = bufio.NewReaderSize(c, 64<<10)
		e.wrs[server] = bufio.NewWriterSize(c, 64<<10)
	}
	return e.wrs[server], nil
}

// fail tears down the connection so the next verb re-dials.
func (e *Endpoint) fail(server int, err error) error {
	if e.conns[server] != nil {
		e.conns[server].Close()
		e.conns[server] = nil
	}
	return err
}

// send writes the request frame f, built in e.enc's storage, to server's
// connection without flushing it.
func (e *Endpoint) send(server int, f []byte) error {
	e.enc = f[:0]
	w, err := e.conn(server)
	if err != nil {
		return err
	}
	if err := endFrame(w, f); err != nil {
		return e.fail(server, err)
	}
	return nil
}

// flush pushes server's buffered request frames onto the wire.
func (e *Endpoint) flush(server int) error {
	if err := e.wrs[server].Flush(); err != nil {
		return e.fail(server, err)
	}
	return nil
}

// readReply reads server's next reply frame and returns its payload, which
// lives in the endpoint's reply scratch: valid until the next reply is read.
// A transport failure tears the connection down (e.conns[server] == nil
// afterwards); a verb-level rejection leaves it healthy.
func (e *Endpoint) readReply(server int) ([]byte, error) {
	if e.conns[server] == nil {
		return nil, fmt.Errorf("tcpnet: connection to server %d lost", server)
	}
	var err error
	if e.body, err = readFrame(e.rds[server], e.body); err != nil {
		return nil, e.fail(server, err)
	}
	if len(e.body) < 1 {
		return nil, e.fail(server, fmt.Errorf("tcpnet: empty response"))
	}
	if e.body[0] != statusOK {
		return nil, fmt.Errorf("tcpnet: server %d: %s", server, e.body[1:])
	}
	return e.body[1:], nil
}

// roundTrip sends one request frame and returns the reply payload, under
// readReply's lifetime rule.
func (e *Endpoint) roundTrip(server int, f []byte) ([]byte, error) {
	if err := e.send(server, f); err != nil {
		return nil, err
	}
	if err := e.flush(server); err != nil {
		return nil, err
	}
	return e.readReply(server)
}

// target validates a verb's destination. Invalid verbs produce no wire
// traffic; Flush and Poll both call this, so the skip decisions agree.
func (e *Endpoint) target(v *rdma.Posted) (int, error) {
	server := v.Server
	if v.Op != rdma.PostOpCall {
		if v.P.IsNull() {
			return -1, fmt.Errorf("tcpnet: null pointer")
		}
		server = v.P.Server()
	}
	if server < 0 || server >= len(e.addrs) {
		return -1, fmt.Errorf("tcpnet: unknown server %d", server)
	}
	return server, nil
}

// put encodes v's request frame onto server's connection: the one place each
// posted verb's wire layout is written, for the blocking and the posted path.
func (e *Endpoint) put(server int, v *rdma.Posted) error {
	var f []byte
	switch v.Op {
	case rdma.PostOpRead:
		f = order.AppendUint64(beginFrame(e.enc, opRead), v.P.Offset())
		f = order.AppendUint32(f, uint32(len(v.Dst)))
	case rdma.PostOpWrite:
		f = order.AppendUint64(beginFrame(e.enc, opWrite), v.P.Offset())
		for _, w := range v.Src {
			f = order.AppendUint64(f, w)
		}
	case rdma.PostOpCAS:
		f = order.AppendUint64(beginFrame(e.enc, opCAS), v.P.Offset())
		f = order.AppendUint64(order.AppendUint64(f, v.A), v.B)
	case rdma.PostOpFetchAdd:
		f = order.AppendUint64(beginFrame(e.enc, opFetchAdd), v.P.Offset())
		f = order.AppendUint64(f, v.A)
	case rdma.PostOpCall:
		f = append(beginFrame(e.enc, opCall), v.Req...)
	default:
		panic(fmt.Sprintf("tcpnet: unknown posted op %d", v.Op))
	}
	return e.send(server, f)
}

// complete reads v's reply from server and decodes it: the one place each
// posted verb's reply layout is read. A Call response is copied out of the
// reply scratch, because Completion.Resp and Call's result belong to the
// caller, who decodes them after later replies have reused the scratch; it is
// the only allocation a verb makes.
func (e *Endpoint) complete(server int, v *rdma.Posted) rdma.Completion {
	c := rdma.Completion{Token: v.Tok}
	body, err := e.readReply(server)
	if err != nil {
		c.Err = err
		return c
	}
	switch v.Op {
	case rdma.PostOpRead:
		if len(body) != 8*len(v.Dst) {
			c.Err = fmt.Errorf("tcpnet: short read response")
			break
		}
		for k := range v.Dst {
			v.Dst[k] = order.Uint64(body[8*k:])
		}
	case rdma.PostOpCAS, rdma.PostOpFetchAdd:
		if len(body) != 8 {
			c.Err = fmt.Errorf("tcpnet: bad atomic response")
			break
		}
		c.Val = order.Uint64(body)
	case rdma.PostOpCall:
		c.Resp = bytes.Clone(body)
	}
	return c
}

// exec runs one verb to completion: the blocking verbs are a posted verb
// with a doorbell of its own.
func (e *Endpoint) exec(v *rdma.Posted) rdma.Completion {
	server, err := e.target(v)
	if err == nil {
		err = e.put(server, v)
	}
	if err == nil {
		err = e.flush(server)
	}
	if err != nil {
		return rdma.Completion{Err: err}
	}
	return e.complete(server, v)
}

// Read implements rdma.Endpoint.
func (e *Endpoint) Read(p rdma.RemotePtr, dst []uint64) error {
	return e.exec(&rdma.Posted{Op: rdma.PostOpRead, P: p, Dst: dst}).Err
}

// Write implements rdma.Endpoint.
func (e *Endpoint) Write(p rdma.RemotePtr, src []uint64) error {
	return e.exec(&rdma.Posted{Op: rdma.PostOpWrite, P: p, Src: src}).Err
}

// CompareAndSwap implements rdma.Endpoint.
func (e *Endpoint) CompareAndSwap(p rdma.RemotePtr, old, new uint64) (uint64, error) {
	c := e.exec(&rdma.Posted{Op: rdma.PostOpCAS, P: p, A: old, B: new})
	return c.Val, c.Err
}

// FetchAdd implements rdma.Endpoint.
func (e *Endpoint) FetchAdd(p rdma.RemotePtr, delta uint64) (uint64, error) {
	c := e.exec(&rdma.Posted{Op: rdma.PostOpFetchAdd, P: p, A: delta})
	return c.Val, c.Err
}

// Call implements rdma.Endpoint. The response is the caller's to keep.
func (e *Endpoint) Call(server int, req []byte) ([]byte, error) {
	c := e.exec(&rdma.Posted{Op: rdma.PostOpCall, Server: server, Req: req})
	return c.Resp, c.Err
}

// ReadMulti implements rdma.Endpoint: pointers are grouped per server and
// each group fetched in one round trip.
func (e *Endpoint) ReadMulti(ps []rdma.RemotePtr, dst [][]uint64) error {
	for s := range e.groups {
		e.groups[s] = e.groups[s][:0]
	}
	for i, p := range ps {
		if p.IsNull() {
			return fmt.Errorf("tcpnet: null pointer in batch")
		}
		if p.Server() >= len(e.groups) {
			return fmt.Errorf("tcpnet: unknown server %d", p.Server())
		}
		e.groups[p.Server()] = append(e.groups[p.Server()], i)
	}
	for server, idxs := range e.groups {
		if len(idxs) == 0 {
			continue
		}
		f := order.AppendUint32(beginFrame(e.enc, opReadMulti), uint32(len(idxs)))
		for _, i := range idxs {
			f = order.AppendUint64(f, ps[i].Offset())
			f = order.AppendUint32(f, uint32(len(dst[i])))
		}
		body, err := e.roundTrip(server, f)
		if err != nil {
			return err
		}
		for _, i := range idxs {
			if 8*len(dst[i]) > len(body) {
				return fmt.Errorf("tcpnet: short readmulti response")
			}
			for k := range dst[i] {
				dst[i][k] = order.Uint64(body[8*k:])
			}
			body = body[8*len(dst[i]):]
		}
	}
	return nil
}

// blockSize checks that n fits the u32 size field of the alloc and free
// frames. Truncated, a request for 4 GiB + 1 KB would allocate 1 KB and hand
// the rest of its words to the next caller too; a negative n would ask for
// about 4 GiB.
func blockSize(n int) error {
	if n <= 0 || uint64(n) > math.MaxUint32 {
		return fmt.Errorf("tcpnet: block size %d outside the wire's (0, %d] bytes", n, uint32(math.MaxUint32))
	}
	return nil
}

// Alloc implements rdma.Endpoint. A size the frame cannot carry is refused
// before anything is sent.
func (e *Endpoint) Alloc(server int, n int) (rdma.RemotePtr, error) {
	if err := blockSize(n); err != nil {
		return rdma.NullPtr, err
	}
	body, err := e.roundTrip(server, order.AppendUint32(beginFrame(e.enc, opAlloc), uint32(n)))
	if err != nil {
		return rdma.NullPtr, err
	}
	if len(body) != 8 {
		return rdma.NullPtr, fmt.Errorf("tcpnet: bad alloc response")
	}
	return rdma.MakePtr(server, order.Uint64(body)), nil
}

// Free implements rdma.Endpoint. Like Alloc, it refuses a size the frame
// cannot carry before anything is sent.
func (e *Endpoint) Free(p rdma.RemotePtr, n int) error {
	if p.IsNull() {
		return fmt.Errorf("tcpnet: null pointer")
	}
	if err := blockSize(n); err != nil {
		return err
	}
	f := order.AppendUint64(beginFrame(e.enc, opFree), p.Offset())
	_, err := e.roundTrip(p.Server(), order.AppendUint32(f, uint32(n)))
	return err
}

// Catalog fetches the serialized catalog from a server.
func (e *Endpoint) Catalog(server int) ([]byte, error) {
	body, err := e.roundTrip(server, beginFrame(e.enc, opCatalog))
	return bytes.Clone(body), err
}

// --- non-blocking post/poll surface (rdma.AsyncEndpoint) -----------------
//
// Posted verbs are buffered client-side; Flush encodes every buffered frame
// and writes them with one write per server (per-server pipelining on the
// TCP "queue pairs"), the agent answers each server's frames with one write
// (see Agent.serveConn), and Poll reads the replies back in global posting
// order. Each agent connection serves frames sequentially, so per-server
// reply order matches per-server request order — the TCP analogue of RC
// in-order execution — and reading replies in posting order across servers
// just interleaves already-ordered streams. A connection failure fails the
// remaining completions of that server's batch (the verbs may or may not
// have executed; like the blocking path, the conn is torn down so the next
// verb re-dials) without touching other servers' verbs.
//
// Neither side reads while it writes, which leaves one bound: a single
// batch whose requests and whose replies both exceed what the socket and
// the peer's 64 KB buffers hold would stall both ends in write. The engine's
// at most 32 slots of a few 1 KB verbs each stay orders of magnitude below
// it, and so do the bulk load's 64-page WRITE batches, whose replies are 5
// bytes each.

var _ rdma.AsyncEndpoint = (*Endpoint)(nil)

// PostRead implements rdma.AsyncEndpoint.
func (e *Endpoint) PostRead(p rdma.RemotePtr, dst []uint64) rdma.Token {
	return e.q.Post(rdma.Posted{Op: rdma.PostOpRead, P: p, Dst: dst})
}

// PostWrite implements rdma.AsyncEndpoint.
func (e *Endpoint) PostWrite(p rdma.RemotePtr, src []uint64) rdma.Token {
	return e.q.Post(rdma.Posted{Op: rdma.PostOpWrite, P: p, Src: src})
}

// PostCAS implements rdma.AsyncEndpoint.
func (e *Endpoint) PostCAS(p rdma.RemotePtr, old, new uint64) rdma.Token {
	return e.q.Post(rdma.Posted{Op: rdma.PostOpCAS, P: p, A: old, B: new})
}

// PostFetchAdd implements rdma.AsyncEndpoint.
func (e *Endpoint) PostFetchAdd(p rdma.RemotePtr, delta uint64) rdma.Token {
	return e.q.Post(rdma.Posted{Op: rdma.PostOpFetchAdd, P: p, A: delta})
}

// PostCall implements rdma.AsyncEndpoint.
func (e *Endpoint) PostCall(server int, req []byte) rdma.Token {
	return e.q.Post(rdma.Posted{Op: rdma.PostOpCall, Server: server, Req: req})
}

// Flush implements rdma.AsyncEndpoint: every buffered verb not yet on the
// wire is encoded, then each connection is flushed.
func (e *Endpoint) Flush() {
	pending := e.q.Pending()
	if e.written == len(pending) {
		return
	}
	for i := e.written; i < len(pending); i++ {
		server, err := e.target(&pending[i])
		if err != nil || e.srvErr[server] != nil {
			continue
		}
		e.srvErr[server] = e.put(server, &pending[i])
	}
	e.written = len(pending)
	for server := range e.conns {
		if e.conns[server] != nil && e.srvErr[server] == nil {
			e.srvErr[server] = e.flush(server)
		}
	}
}

// Poll implements rdma.AsyncEndpoint.
func (e *Endpoint) Poll(out []rdma.Completion) []rdma.Completion {
	pending := e.q.Pending()
	if len(pending) == 0 {
		return out
	}
	e.Flush()
	for i := range pending {
		v := &pending[i]
		c := rdma.Completion{Token: v.Tok}
		server, err := e.target(v)
		switch {
		case err != nil:
			c.Err = err
		case e.srvErr[server] != nil:
			c.Err = e.srvErr[server]
		default:
			c = e.complete(server, v)
			if c.Err != nil && e.conns[server] == nil {
				e.srvErr[server] = c.Err // transport failure: fails the batch's remainder
			}
		}
		out = append(out, c)
	}
	e.q.Clear()
	e.written = 0
	for i := range e.srvErr {
		e.srvErr[i] = nil
	}
	return out
}
