package tcpnet

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/namdb/rdmatree/internal/rdma"
)

// frame builds one wire frame: length prefix, tag byte, then the payload
// parts, each a uint64 (8 bytes), uint32 (4 bytes) or raw []byte.
func frame(tag byte, parts ...any) []byte {
	f := beginFrame(nil, tag)
	for _, p := range parts {
		switch p := p.(type) {
		case uint64:
			f = order.AppendUint64(f, p)
		case uint32:
			f = order.AppendUint32(f, p)
		case []byte:
			f = append(f, p...)
		}
	}
	order.PutUint32(f, uint32(len(f)-4))
	return f
}

const testRegionBytes = 4096

// startSmallAgent serves a 4 KB region (no superblock reserve) with an echo
// handler and a catalog, through listener wrapper wrap (nil for none).
func startSmallAgent(t testing.TB, wrap func(net.Listener) net.Listener) string {
	t.Helper()
	echo := func(_ rdma.Env, _ int, req []byte) ([]byte, rdma.Work) { return req, rdma.Work{} }
	agent := NewAgent(rdma.NewServer(0, testRegionBytes, 0), echo)
	agent.SetCatalog([]byte("cat"))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	if wrap != nil {
		l = wrap(l)
	}
	go agent.Serve(l)
	t.Cleanup(agent.Close)
	return addr
}

// TestHostileFramesGetErrorReplies sends, over one raw connection, frames
// whose operands the region or allocator accessors would panic on. Each must
// come back as a statusErr reply, and the same connection must still serve a
// valid verb afterwards.
func TestHostileFramesGetErrorReplies(t *testing.T) {
	addr := startSmallAgent(t, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	exchange := func(req []byte) []byte {
		t.Helper()
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		reply, err := readFrame(r, nil)
		if err != nil {
			t.Fatalf("agent dropped the connection: %v", err)
		}
		return reply
	}
	// One block handed out, so Free has a non-empty allocated range to miss.
	if reply := exchange(frame(opAlloc, uint32(64))); reply[0] != statusOK {
		t.Fatalf("alloc: %q", reply)
	}

	const end = uint64(testRegionBytes)
	hostile := []struct {
		name string
		req  []byte
	}{
		{"read unaligned", frame(opRead, uint64(4), uint32(1))},
		{"read at end", frame(opRead, end, uint32(1))},
		{"read past end", frame(opRead, end-8, uint32(2))},
		{"read offset overflow", frame(opRead, ^uint64(0)&^7, uint32(2))},
		{"read huge count", frame(opRead, uint64(0), ^uint32(0))},
		{"read short body", frame(opRead, uint32(1))},
		{"write unaligned", frame(opWrite, uint64(12), uint64(1))},
		{"write past end", frame(opWrite, end-8, uint64(1), uint64(2))},
		{"write ragged", frame(opWrite, uint64(0), uint32(1))},
		{"cas unaligned", frame(opCAS, uint64(1), uint64(0), uint64(1))},
		{"cas out of range", frame(opCAS, end, uint64(0), uint64(1))},
		{"cas short", frame(opCAS, uint64(0))},
		{"faa unaligned", frame(opFetchAdd, uint64(3), uint64(1))},
		{"faa out of range", frame(opFetchAdd, end+8, uint64(1))},
		{"alloc zero", frame(opAlloc, uint32(0))},
		{"alloc short", frame(opAlloc)},
		{"free misaligned", frame(opFree, uint64(4), uint32(64))},
		{"free never allocated", frame(opFree, uint64(1024), uint32(64))},
		{"free tail past bump", frame(opFree, uint64(0), uint32(128))},
		{"free offset overflow", frame(opFree, ^uint64(0)&^7, uint32(64))},
		{"free zero size", frame(opFree, uint64(0), uint32(0))},
		{"readmulti bad entry", frame(opReadMulti, uint32(2), uint64(0), uint32(1), uint64(end), uint32(1))},
		{"readmulti count mismatch", frame(opReadMulti, uint32(3), uint64(0), uint32(1))},
		{"unknown verb", frame(0xEE)},
		{"empty frame", []byte{0, 0, 0, 0}},
	}
	for _, h := range hostile {
		reply := exchange(h.req)
		if len(reply) < 2 || reply[0] != statusErr {
			t.Errorf("%s: reply %q, want an error reply", h.name, reply)
		}
	}

	// The connection and the region are intact.
	if reply := exchange(frame(opWrite, uint64(8), uint64(77))); !bytes.Equal(reply, []byte{statusOK}) {
		t.Fatalf("write after hostile frames: %q", reply)
	}
	if reply := exchange(frame(opRead, uint64(8), uint32(1))); !bytes.Equal(reply, frame(statusOK, uint64(77))[4:]) {
		t.Fatalf("read after hostile frames: %q", reply)
	}
	if reply := exchange(frame(opFree, uint64(0), uint32(64))); !bytes.Equal(reply, []byte{statusOK}) {
		t.Fatalf("valid free after hostile frames: %q", reply)
	}
}

// FuzzAgentFrame throws arbitrary bytes at an agent: it must not panic (a
// panic in a connection goroutine kills the test process), every reply must
// be a well-formed frame, and a valid verb on a fresh connection must still
// succeed afterwards.
func FuzzAgentFrame(f *testing.F) {
	f.Add(frame(opRead, uint64(0), uint32(4)))
	f.Add(frame(opWrite, uint64(8), uint64(1), uint64(2)))
	f.Add(frame(opCAS, uint64(16), uint64(0), uint64(1)))
	f.Add(frame(opFetchAdd, uint64(16), uint64(5)))
	f.Add(frame(opAlloc, uint32(64)))
	f.Add(frame(opFree, uint64(0), uint32(64)))
	f.Add(frame(opCall, []byte("ping")))
	f.Add(frame(opReadMulti, uint32(2), uint64(0), uint32(2), uint64(64), uint32(1)))
	f.Add(frame(opCatalog))
	// Two frames back to back, as a doorbell batch delivers them.
	f.Add(append(frame(opRead, uint64(0), uint32(1)), frame(opFetchAdd, uint64(0), uint64(1))...))
	// Length, opcode and maxFrame edges.
	f.Add([]byte{})
	f.Add([]byte{1, 0})                                       // truncated header
	f.Add([]byte{0, 0, 0, 0})                                 // empty frame
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, opRead})             // length far beyond maxFrame
	f.Add(order.AppendUint32(nil, maxFrame+1))                // one past the limit
	f.Add(append(order.AppendUint32(nil, maxFrame), opWrite)) // the limit itself, body missing
	f.Add(frame(0))
	f.Add(frame(opCatalog + 1))
	f.Add(frame(opRead, uint64(0), uint32(maxFrame/8)))
	f.Add(frame(opRead, ^uint64(0), ^uint32(0)))
	f.Add(frame(opReadMulti, ^uint32(0)))
	f.Add(frame(opFree, ^uint64(0), ^uint32(0)))

	addr := startSmallAgent(f, nil)
	f.Fuzz(func(t *testing.T, data []byte) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		go func() {
			conn.Write(data)
			conn.(*net.TCPConn).CloseWrite() // the agent sees EOF after the last byte
		}()
		replies, err := io.ReadAll(conn)
		if err != nil {
			t.Fatalf("reading replies: %v", err)
		}
		for len(replies) > 0 {
			if len(replies) < 5 {
				t.Fatalf("trailing partial reply %x", replies)
			}
			n := int(order.Uint32(replies))
			if n < 1 || n > maxFrame || 4+n > len(replies) {
				t.Fatalf("reply length %d with %d bytes left", n, len(replies)-4)
			}
			if status := replies[4]; status != statusOK && status != statusErr {
				t.Fatalf("reply status %d", status)
			}
			replies = replies[4+n:]
		}

		ep := Dial([]string{addr})
		defer ep.Close()
		if err := ep.Read(rdma.MakePtr(0, 0), make([]uint64, 2)); err != nil {
			t.Fatalf("valid read after garbage: %v", err)
		}
	})
}

// writeCountingListener counts the Write calls on every accepted connection:
// with a bufio.Writer in front, one call is one write(2).
type writeCountingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l writeCountingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return writeCountingConn{c, l.writes}, nil
}

type writeCountingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c writeCountingConn) Write(p []byte) (int, error) {
	c.writes.Add(1) // before the bytes leave, so the client's read orders after it
	return c.Conn.Write(p)
}

// TestAgentWritesOncePerBatch pins the syscall shape of reply coalescing: the
// replies to a doorbell batch leave the agent in one write, the replies to
// serial verbs in one write each.
func TestAgentWritesOncePerBatch(t *testing.T) {
	var writes atomic.Int64
	addr := startSmallAgent(t, func(l net.Listener) net.Listener { return writeCountingListener{l, &writes} })
	ep := Dial([]string{addr})
	defer ep.Close()
	p := rdma.MakePtr(0, 64)
	if err := ep.Write(p, []uint64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}

	dsts := make([][]uint64, 8)
	for i := range dsts {
		dsts[i] = make([]uint64, 4)
	}
	before := writes.Load()
	for _, dst := range dsts {
		ep.PostRead(p, dst)
	}
	ep.Flush()
	for _, c := range ep.Poll(nil) {
		if c.Err != nil {
			t.Fatal(c.Err)
		}
	}
	if got := writes.Load() - before; got != 1 {
		t.Errorf("8 posted reads in one doorbell: %d agent writes, want 1", got)
	}
	for _, dst := range dsts {
		if dst[0] != 1 || dst[3] != 4 {
			t.Fatalf("posted read returned %v", dst)
		}
	}

	before = writes.Load()
	for _, dst := range dsts {
		if err := ep.Read(p, dst); err != nil {
			t.Fatal(err)
		}
	}
	if got := writes.Load() - before; got != 8 {
		t.Errorf("8 blocking reads: %d agent writes, want 8", got)
	}
}

// TestCallResponseOutlivesLaterReplies pins the buffer-ownership rule: a Call
// response, blocking or posted, is the caller's copy and survives the verbs
// that reuse the endpoint's reply scratch.
func TestCallResponseOutlivesLaterReplies(t *testing.T) {
	addr := startSmallAgent(t, nil)
	ep := Dial([]string{addr})
	defer ep.Close()
	first, err := ep.Call(0, []byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	ep.PostCall(0, []byte("second"))
	ep.PostCall(0, []byte("third!"))
	ep.PostRead(rdma.MakePtr(0, 0), make([]uint64, 16))
	comps := ep.Poll(nil)
	if err := ep.Read(rdma.MakePtr(0, 0), make([]uint64, 16)); err != nil {
		t.Fatal(err)
	}
	got := []string{string(first), string(comps[0].Resp), string(comps[1].Resp)}
	if want := "first second third!"; strings.Join(got, " ") != want {
		t.Fatalf("call responses %q, want %q", got, want)
	}
}
