package tcpnet

import (
	"net"
	"strconv"
	"sync"
	"testing"

	"github.com/namdb/rdmatree/internal/btree"
	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/rdma/rdmatest"
)

// startCluster launches n in-process agents on ephemeral ports.
func startCluster(t testing.TB, n int, handler rdma.Handler) ([]string, []*Agent) {
	t.Helper()
	var addrs []string
	var agents []*Agent
	for i := 0; i < n; i++ {
		srv := rdma.NewServer(i, 16<<20, nam.SuperblockBytes)
		agent := NewAgent(srv, handler)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, l.Addr().String())
		agents = append(agents, agent)
		go agent.Serve(l)
		t.Cleanup(agent.Close)
	}
	return addrs, agents
}

func TestOneSidedVerbsOverTCP(t *testing.T) {
	addrs, _ := startCluster(t, 2, nil)
	ep := Dial(addrs)
	defer ep.Close()

	p := rdma.MakePtr(1, 128)
	if err := ep.Write(p, []uint64{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	dst := make([]uint64, 3)
	if err := ep.Read(p, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 10 || dst[2] != 30 {
		t.Fatalf("read %v", dst)
	}
	if old, err := ep.CompareAndSwap(p, 10, 11); err != nil || old != 10 {
		t.Fatalf("CAS old=%d err=%v", old, err)
	}
	if old, err := ep.FetchAdd(p, 9); err != nil || old != 11 {
		t.Fatalf("FAA old=%d err=%v", old, err)
	}
	if err := ep.Read(p, dst[:1]); err != nil || dst[0] != 20 {
		t.Fatalf("after atomics: %d %v", dst[0], err)
	}
}

func TestAllocFreeOverTCP(t *testing.T) {
	addrs, _ := startCluster(t, 1, nil)
	ep := Dial(addrs)
	defer ep.Close()
	ptr, err := ep.Alloc(0, 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Write(ptr, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := ep.Free(ptr, 512); err != nil {
		t.Fatal(err)
	}
	ptr2, err := ep.Alloc(0, 512)
	if err != nil {
		t.Fatal(err)
	}
	if ptr2 != ptr {
		t.Fatalf("freed block not reused: %v vs %v", ptr2, ptr)
	}
}

// TestAllocFreeRejectUnencodableSizes pins that a block size the u32 field
// of the alloc and free frames cannot carry fails at the endpoint: nothing
// is sent, and the agent's allocator watermark does not move.
func TestAllocFreeRejectUnencodableSizes(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("sizes above 4 GiB need a 64-bit int")
	}
	addrs, agents := startCluster(t, 1, nil)
	alloc := agents[0].srv.Alloc
	ep := Dial(addrs)
	defer ep.Close()
	mark := alloc.Watermark()
	for _, n := range []int{0, -1, -1024, int(uint64(1) << 32), int(uint64(1)<<32 + 1024)} {
		if p, err := ep.Alloc(0, n); err == nil {
			t.Errorf("Alloc(%d) = %v; want an error", n, p)
		}
		if err := ep.Free(rdma.MakePtr(0, mark), n); err == nil {
			t.Errorf("Free(%d) succeeded; want an error", n)
		}
	}
	if ep.conns[0] != nil {
		t.Error("a refused size reached the wire")
	}
	if got := alloc.Watermark(); got != mark {
		t.Fatalf("watermark moved from %d to %d", mark, got)
	}
	if _, err := ep.Alloc(0, 1024); err != nil {
		t.Fatal(err)
	}
	if got := alloc.Watermark(); got != mark+1024 {
		t.Fatalf("watermark %d after a 1 KB alloc from %d", got, mark)
	}
}

func TestReadMultiOverTCP(t *testing.T) {
	addrs, _ := startCluster(t, 3, nil)
	ep := Dial(addrs)
	defer ep.Close()
	var ptrs []rdma.RemotePtr
	for i := 0; i < 6; i++ {
		p := rdma.MakePtr(i%3, uint64(256+i*64))
		ptrs = append(ptrs, p)
		if err := ep.Write(p, []uint64{uint64(i * 100)}); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([][]uint64, 6)
	for i := range dst {
		dst[i] = make([]uint64, 1)
	}
	if err := ep.ReadMulti(ptrs, dst); err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if dst[i][0] != uint64(i*100) {
			t.Fatalf("batch read %d = %d", i, dst[i][0])
		}
	}
}

func TestRPCAndCatalogOverTCP(t *testing.T) {
	handler := func(env rdma.Env, server int, req []byte) ([]byte, rdma.Work) {
		return append([]byte{byte(server)}, req...), rdma.Work{}
	}
	addrs, agents := startCluster(t, 2, handler)
	agents[0].SetCatalog([]byte("catalog-bytes"))
	ep := Dial(addrs)
	defer ep.Close()
	resp, err := ep.Call(1, []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if resp[0] != 1 || string(resp[1:]) != "hi" {
		t.Fatalf("rpc response %q", resp)
	}
	cat, err := ep.Catalog(0)
	if err != nil {
		t.Fatal(err)
	}
	if string(cat) != "catalog-bytes" {
		t.Fatalf("catalog %q", cat)
	}
	if _, err := ep.Catalog(1); err == nil {
		t.Fatal("catalog from server without one succeeded")
	}
}

func TestErrorsSurfaceAndConnectionSurvives(t *testing.T) {
	addrs, _ := startCluster(t, 1, nil)
	ep := Dial(addrs)
	defer ep.Close()
	// Call without a handler yields a remote error...
	if _, err := ep.Call(0, []byte("x")); err == nil {
		t.Fatal("expected remote error")
	}
	// ...but the connection keeps working.
	if err := ep.Write(rdma.MakePtr(0, 64), []uint64{5}); err != nil {
		t.Fatal(err)
	}
}

func TestDialErrorOnBadServer(t *testing.T) {
	ep := Dial([]string{"127.0.0.1:1"}) // almost surely nothing listening
	defer ep.Close()
	if err := ep.Read(rdma.MakePtr(0, 0), make([]uint64, 1)); err == nil {
		t.Fatal("read from dead server succeeded")
	}
}

// TestBTreeOverTCP runs the full one-sided B-link protocol across TCP
// agents, concurrently.
func TestBTreeOverTCP(t *testing.T) {
	addrs, _ := startCluster(t, 3, nil)
	l := layout.New(512)
	root := rdma.MakePtr(0, 0)

	boot := Dial(addrs)
	defer boot.Close()
	tr := btree.New(l, &btree.EndpointMem{Ep: boot, Place: btree.RoundRobin(3, 0)}, root)
	if _, err := tr.Build(rdma.NopEnv{}, btree.BuildConfig{HeadEvery: 4}, 2000,
		func(i int) (uint64, uint64) { return uint64(i * 2), uint64(i) }); err != nil {
		t.Fatal(err)
	}

	const clients = 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep := Dial(addrs)
			defer ep.Close()
			tr := btree.New(l, &btree.EndpointMem{Ep: ep, Place: btree.RoundRobin(3, c)}, root)
			for i := 0; i < 300; i++ {
				k := uint64(i*2*clients+c*2) + 1
				if _, err := tr.Insert(rdma.NopEnv{}, k, k); err != nil {
					t.Error(err)
					return
				}
				if vals, _, err := tr.Lookup(rdma.NopEnv{}, k); err != nil || len(vals) != 1 {
					t.Errorf("lookup %d: %v %v", k, vals, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	live, err := tr.CheckInvariants(rdma.NopEnv{})
	if err != nil {
		t.Fatal(err)
	}
	if live != 2000+clients*300 {
		t.Fatalf("live = %d; want %d", live, 2000+clients*300)
	}
	// Range scan with prefetch over TCP.
	count := 0
	st, err := tr.Scan(rdma.NopEnv{}, 0, 1000, func(uint64, uint64) bool { count++; return true })
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 || st.Prefetches == 0 {
		t.Fatalf("scan count=%d prefetches=%d", count, st.Prefetches)
	}
}

// TestAgentCloseFailsInFlightAndRecovers kills a memory server under the
// client and verifies (a) verbs to the dead server fail cleanly, (b) other
// servers keep working, (c) a restarted server is reachable again through
// the same endpoint (it re-dials broken connections).
func TestAgentCloseFailsInFlightAndRecovers(t *testing.T) {
	srv0 := rdma.NewServer(0, 1<<20, nam.SuperblockBytes)
	agent0 := NewAgent(srv0, nil)
	l0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr0 := l0.Addr().String()
	go agent0.Serve(l0)

	srv1 := rdma.NewServer(1, 1<<20, nam.SuperblockBytes)
	agent1 := NewAgent(srv1, nil)
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go agent1.Serve(l1)
	defer agent1.Close()

	ep := Dial([]string{addr0, l1.Addr().String()})
	defer ep.Close()
	if err := ep.Write(rdma.MakePtr(0, 64), []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := ep.Write(rdma.MakePtr(1, 64), []uint64{2}); err != nil {
		t.Fatal(err)
	}

	// Kill server 0.
	agent0.Close()
	if err := ep.Write(rdma.MakePtr(0, 64), []uint64{3}); err == nil {
		t.Fatal("write to dead server succeeded")
	}
	// Server 1 still works on the same endpoint.
	dst := make([]uint64, 1)
	if err := ep.Read(rdma.MakePtr(1, 64), dst); err != nil || dst[0] != 2 {
		t.Fatalf("healthy server affected: %v %v", dst, err)
	}

	// Restart server 0 on the same address (a fresh agent over the same
	// region, as a recovered process would).
	l0b, err := net.Listen("tcp", addr0)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr0, err)
	}
	agent0b := NewAgent(srv0, nil)
	go agent0b.Serve(l0b)
	defer agent0b.Close()
	if err := ep.Write(rdma.MakePtr(0, 64), []uint64{4}); err != nil {
		t.Fatalf("endpoint did not recover after server restart: %v", err)
	}
	if err := ep.Read(rdma.MakePtr(0, 64), dst); err != nil || dst[0] != 4 {
		t.Fatalf("read after recovery: %v %v", dst, err)
	}
}

// TestConcurrentEndpointsSeparateConnections checks that concurrent client
// threads (each with its own endpoint, as the contract requires) do not
// interfere.
func TestConcurrentEndpointsSeparateConnections(t *testing.T) {
	addrs, _ := startCluster(t, 2, nil)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep := Dial(addrs)
			defer ep.Close()
			base := uint64(1024 + c*512)
			for i := 0; i < 200; i++ {
				p := rdma.MakePtr(c%2, base)
				if _, err := ep.FetchAdd(p, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestAllocMidBatch pins the blocking-Alloc-between-posts rule of the
// rdma.AsyncEndpoint contract over TCP: posted frames stay buffered
// client-side until Flush, so the Alloc round trip cannot interleave with
// their replies.
func TestAllocMidBatch(t *testing.T) {
	addrs, _ := startCluster(t, 2, nil)
	ep := Dial(addrs)
	defer ep.Close()
	rdmatest.AllocMidBatch(t, ep, rdma.MakePtr(0, 256), 1)
}

// TestAsyncPostPollOverTCP pins the native post/poll surface: a mixed batch
// across two servers completes in posting order with blocking-identical
// results, and posted call RPCs interleave with one-sided verbs.
func TestAsyncPostPollOverTCP(t *testing.T) {
	addrs, _ := startCluster(t, 2, func(env rdma.Env, server int, req []byte) ([]byte, rdma.Work) {
		return append([]byte{byte(server)}, req...), rdma.Work{}
	})
	ep := Dial(addrs)
	defer ep.Close()

	p0, p1 := rdma.MakePtr(0, 256), rdma.MakePtr(1, 256)
	if err := ep.Write(p0, []uint64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := ep.Write(p1, []uint64{3, 4}); err != nil {
		t.Fatal(err)
	}

	d0, d1 := make([]uint64, 2), make([]uint64, 2)
	ep.PostRead(p0, d0)
	ep.PostRead(p1, d1)
	ep.PostCAS(p0, 1, 9)
	ep.PostFetchAdd(p1, 10)
	ep.PostCall(1, []byte{7})
	ep.PostRead(rdma.NullPtr, nil) // error completion, no wire traffic
	ep.Flush()
	comps := ep.Poll(nil)
	if len(comps) != 6 {
		t.Fatalf("got %d completions, want 6", len(comps))
	}
	for i, c := range comps {
		if c.Token != rdma.Token(i) {
			t.Fatalf("completion %d out of posting order: token %d", i, c.Token)
		}
	}
	if d0[0] != 1 || d0[1] != 2 || d1[0] != 3 || d1[1] != 4 {
		t.Fatalf("posted reads: %v %v", d0, d1)
	}
	if comps[2].Err != nil || comps[2].Val != 1 {
		t.Fatalf("posted CAS: %+v", comps[2])
	}
	if comps[3].Err != nil || comps[3].Val != 3 {
		t.Fatalf("posted FAA: %+v", comps[3])
	}
	if comps[4].Err != nil || len(comps[4].Resp) != 2 || comps[4].Resp[0] != 1 || comps[4].Resp[1] != 7 {
		t.Fatalf("posted call: %+v", comps[4])
	}
	if comps[5].Err == nil {
		t.Fatal("null-pointer post completed without error")
	}

	// Effects are visible and the endpoint still works serially afterwards.
	after := make([]uint64, 1)
	if err := ep.Read(p0, after); err != nil || after[0] != 9 {
		t.Fatalf("after batch: %d %v", after[0], err)
	}
	if err := ep.Read(p1, after); err != nil || after[0] != 13 {
		t.Fatalf("after batch: %d %v", after[0], err)
	}
}

// TestAsyncConnFailureFailsBatchRemainder pins per-server failure isolation:
// killing one server mid-batch fails that server's completions but leaves the
// other server's verbs intact, and the endpoint redials afterwards.
func TestAsyncConnFailureFailsBatchRemainder(t *testing.T) {
	addrs, agents := startCluster(t, 2, nil)
	ep := Dial(addrs)
	defer ep.Close()

	p0, p1 := rdma.MakePtr(0, 256), rdma.MakePtr(1, 256)
	if err := ep.Write(p0, []uint64{5}); err != nil {
		t.Fatal(err)
	}
	if err := ep.Write(p1, []uint64{6}); err != nil {
		t.Fatal(err)
	}
	agents[1].Close()

	d0, d1a, d1b := make([]uint64, 1), make([]uint64, 1), make([]uint64, 1)
	ep.PostRead(p0, d0)
	ep.PostRead(p1, d1a)
	ep.PostRead(p1, d1b)
	comps := ep.Poll(nil)
	if comps[0].Err != nil || d0[0] != 5 {
		t.Fatalf("healthy server's verb failed: %+v", comps[0])
	}
	if comps[1].Err == nil || comps[2].Err == nil {
		t.Fatalf("dead server's verbs completed: %+v %+v", comps[1], comps[2])
	}
	// Next batch starts clean: the healthy server still answers.
	ep.PostRead(p0, d0)
	comps = ep.Poll(comps[:0])
	if comps[0].Err != nil {
		t.Fatalf("batch after failure: %+v", comps[0])
	}
}
