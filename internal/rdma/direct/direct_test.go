package direct

import (
	"bytes"
	"sync"
	"testing"

	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/rdma/rdmatest"
)

func TestOneSidedVerbs(t *testing.T) {
	f := New(2, 4096, 0)
	ep := f.Endpoint()

	p := rdma.MakePtr(1, 64)
	if err := ep.Write(p, []uint64{7, 8, 9}); err != nil {
		t.Fatal(err)
	}
	dst := make([]uint64, 3)
	if err := ep.Read(p, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 7 || dst[1] != 8 || dst[2] != 9 {
		t.Fatalf("read %v", dst)
	}

	if old, err := ep.CompareAndSwap(p, 7, 100); err != nil || old != 7 {
		t.Fatalf("CAS old=%d err=%v", old, err)
	}
	if old, err := ep.FetchAdd(p, 1); err != nil || old != 100 {
		t.Fatalf("FetchAdd old=%d err=%v", old, err)
	}
	if err := ep.Read(p, dst[:1]); err != nil || dst[0] != 101 {
		t.Fatalf("after atomics value=%d err=%v", dst[0], err)
	}
}

func TestVerbsCrossServerIsolation(t *testing.T) {
	f := New(2, 4096, 0)
	ep := f.Endpoint()
	if err := ep.Write(rdma.MakePtr(0, 0), []uint64{11}); err != nil {
		t.Fatal(err)
	}
	dst := make([]uint64, 1)
	if err := ep.Read(rdma.MakePtr(1, 0), dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 0 {
		t.Fatalf("server 1 saw server 0's write: %d", dst[0])
	}
}

func TestNullPointerRejected(t *testing.T) {
	f := New(1, 4096, 0)
	ep := f.Endpoint()
	if err := ep.Read(rdma.NullPtr, make([]uint64, 1)); err == nil {
		t.Fatal("Read(null) succeeded")
	}
	if err := ep.Write(rdma.NullPtr, []uint64{1}); err == nil {
		t.Fatal("Write(null) succeeded")
	}
}

func TestAllocFree(t *testing.T) {
	f := New(2, 4096, 128)
	ep := f.Endpoint()
	p, err := ep.Alloc(1, 256)
	if err != nil {
		t.Fatal(err)
	}
	if p.Server() != 1 {
		t.Fatalf("alloc on server %d; want 1", p.Server())
	}
	if err := ep.Write(p, []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := ep.Free(p, 256); err != nil {
		t.Fatal(err)
	}
	p2, err := ep.Alloc(1, 256)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p {
		t.Fatalf("freed block not reused: %v vs %v", p2, p)
	}
}

func TestRPCEcho(t *testing.T) {
	f := New(3, 4096, 0)
	f.SetHandler(func(env rdma.Env, server int, req []byte) ([]byte, rdma.Work) {
		resp := append([]byte{byte(server)}, req...)
		return resp, rdma.Work{PagesTouched: 1}
	})
	ep := f.Endpoint()
	for s := 0; s < 3; s++ {
		resp, err := ep.Call(s, []byte("hello"))
		if err != nil {
			t.Fatal(err)
		}
		if resp[0] != byte(s) || !bytes.Equal(resp[1:], []byte("hello")) {
			t.Fatalf("server %d: resp %q", s, resp)
		}
	}
}

func TestCallWithoutHandlerFails(t *testing.T) {
	f := New(1, 4096, 0)
	if _, err := f.Endpoint().Call(0, []byte("x")); err == nil {
		t.Fatal("Call without handler succeeded")
	}
}

func TestConcurrentClientsAtomicCounter(t *testing.T) {
	f := New(1, 4096, 0)
	const clients = 16
	const perClient = 2000
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep := f.Endpoint()
			p := rdma.MakePtr(0, 0)
			for i := 0; i < perClient; i++ {
				if _, err := ep.FetchAdd(p, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := f.Server(0).Region.Load(0); got != clients*perClient {
		t.Fatalf("counter = %d; want %d", got, clients*perClient)
	}
}

// TestAllocMidBatch pins the blocking-Alloc-between-posts rule of the
// rdma.AsyncEndpoint contract on direct.
func TestAllocMidBatch(t *testing.T) {
	f := New(2, 1<<16, 128)
	rdmatest.AllocMidBatch(t, f.Endpoint().(rdma.AsyncEndpoint), rdma.MakePtr(0, 256), 1)
}
