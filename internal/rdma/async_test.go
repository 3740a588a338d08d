package rdma_test

import (
	"errors"
	"testing"

	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/rdma/direct"
	"github.com/namdb/rdmatree/internal/rdma/rdmatest"
)

// blockingOnly hides a transport's native async surface so rdma.Async is
// forced onto the generic adapter.
type blockingOnly struct {
	rdma.Endpoint
}

func asyncFixture(t *testing.T) (rdma.Endpoint, rdma.RemotePtr) {
	t.Helper()
	f := direct.New(2, 1<<20, 4096)
	ep := f.Endpoint()
	p, err := ep.Alloc(0, 64)
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	if err := ep.Write(p, []uint64{10, 20, 30, 40}); err != nil {
		t.Fatalf("write: %v", err)
	}
	return ep, p
}

// contractCheck drives one AsyncEndpoint through a mixed batch and verifies
// the posting-order completion contract.
func contractCheck(t *testing.T, a rdma.AsyncEndpoint, p rdma.RemotePtr) {
	t.Helper()
	dst := make([]uint64, 2)
	t0 := a.PostRead(p, dst)
	t1 := a.PostCAS(p, 10, 11)
	t2 := a.PostCAS(p, 999, 12) // loses: prior != old
	t3 := a.PostFetchAdd(p.Add(8), 5)
	t4 := a.PostRead(rdma.NullPtr, dst) // must fail via its completion
	t5 := a.PostWrite(p.Add(16), []uint64{77})
	a.Flush()
	comps := a.Poll(nil)

	if want := []rdma.Token{0, 1, 2, 3, 4, 5}; len(comps) != len(want) {
		t.Fatalf("got %d completions, want %d", len(comps), len(want))
	}
	for i, tok := range []rdma.Token{t0, t1, t2, t3, t4, t5} {
		if tok != rdma.Token(i) {
			t.Fatalf("token %d assigned %d, want monotonic from 0", i, tok)
		}
		if comps[i].Token != tok {
			t.Fatalf("completion %d carries token %d, want posting order", i, comps[i].Token)
		}
	}
	if comps[0].Err != nil || dst[0] != 10 || dst[1] != 20 {
		t.Fatalf("posted read: dst=%v err=%v", dst, comps[0].Err)
	}
	if comps[1].Err != nil || comps[1].Val != 10 {
		t.Fatalf("winning CAS: val=%d err=%v", comps[1].Val, comps[1].Err)
	}
	if comps[2].Err != nil || comps[2].Val != 11 {
		t.Fatalf("losing CAS: val=%d err=%v (want prior 11, no error)", comps[2].Val, comps[2].Err)
	}
	if comps[3].Err != nil || comps[3].Val != 20 {
		t.Fatalf("FAA: val=%d err=%v", comps[3].Val, comps[3].Err)
	}
	if comps[4].Err == nil {
		t.Fatalf("null-pointer read completed without error")
	}
	if comps[5].Err != nil {
		t.Fatalf("posted write: %v", comps[5].Err)
	}

	// The batch's memory effects are visible to a subsequent blocking verb.
	after := make([]uint64, 3)
	if err := a.Read(p, after); err != nil {
		t.Fatalf("read-after-poll: %v", err)
	}
	if after[0] != 11 || after[1] != 25 || after[2] != 77 {
		t.Fatalf("post-batch state = %v, want [11 25 77]", after)
	}

	// Second batch: tokens continue monotonically, queue state was reset.
	if tok := a.PostRead(p, dst); tok != 6 {
		t.Fatalf("second-batch token = %d, want 6", tok)
	}
	comps = a.Poll(comps[:0])
	if len(comps) != 1 || comps[0].Token != 6 || comps[0].Err != nil {
		t.Fatalf("second batch: %+v", comps)
	}
}

func TestAsyncAdapterContract(t *testing.T) {
	ep, p := asyncFixture(t)
	a := rdma.Async(blockingOnly{ep})
	if _, native := interface{}(a).(*direct.Fabric); native {
		t.Fatal("expected the generic adapter")
	}
	contractCheck(t, a, p)
}

// TestAsyncAdapterAllocMidBatch pins the blocking-Alloc-between-posts rule
// on the generic adapter, which executes posted verbs only at Poll.
func TestAsyncAdapterAllocMidBatch(t *testing.T) {
	ep, p := asyncFixture(t)
	rdmatest.AllocMidBatch(t, rdma.Async(blockingOnly{ep}), p, 1)
}

func TestAsyncNativeDirect(t *testing.T) {
	ep, p := asyncFixture(t)
	a := rdma.Async(ep)
	if any(a) != any(ep) {
		t.Fatal("rdma.Async must return a native AsyncEndpoint unchanged")
	}
	contractCheck(t, a, p)
}

func TestAsyncPollEmpty(t *testing.T) {
	ep, _ := asyncFixture(t)
	a := rdma.Async(blockingOnly{ep})
	if comps := a.Poll(nil); comps != nil {
		t.Fatalf("empty poll returned %v", comps)
	}
}

func TestAsyncCallCompletion(t *testing.T) {
	f := direct.New(1, 1<<20, 4096)
	f.SetHandler(func(env rdma.Env, server int, req []byte) ([]byte, rdma.Work) {
		resp := append([]byte{0xab}, req...)
		return resp, rdma.Work{}
	})
	a := rdma.Async(blockingOnly{f.Endpoint()})
	a.PostCall(0, []byte{1, 2})
	a.PostCall(7, nil) // unknown server: error completion
	comps := a.Poll(nil)
	if len(comps) != 2 {
		t.Fatalf("got %d completions", len(comps))
	}
	if comps[0].Err != nil || string(comps[0].Resp) != string([]byte{0xab, 1, 2}) {
		t.Fatalf("call completion: resp=%v err=%v", comps[0].Resp, comps[0].Err)
	}
	if comps[1].Err == nil {
		t.Fatal("call to unknown server completed without error")
	}
}

// TestAsyncErrorIsolation pins the per-completion fault model: a failing verb
// in the middle of a batch must not disturb its neighbours.
func TestAsyncErrorIsolation(t *testing.T) {
	ep, p := asyncFixture(t)
	a := rdma.Async(blockingOnly{ep})
	d0, d2 := make([]uint64, 1), make([]uint64, 1)
	a.PostRead(p, d0)
	a.PostRead(rdma.NullPtr, nil)
	a.PostRead(p.Add(8), d2)
	comps := a.Poll(nil)
	if comps[0].Err != nil || comps[2].Err != nil {
		t.Fatalf("neighbour completions failed: %v / %v", comps[0].Err, comps[2].Err)
	}
	if comps[1].Err == nil {
		t.Fatal("middle verb should have failed")
	}
	if d0[0] != 10 || d2[0] != 20 {
		t.Fatalf("neighbour reads corrupted: %d %d", d0[0], d2[0])
	}
	if errors.Is(comps[1].Err, rdma.ErrTimeout) {
		t.Fatal("null pointer must not masquerade as a transient fault")
	}
}

// TestAsyncSteadyStateAllocs gates the adapter's zero-allocation steady
// state: posting into caller-owned buffers and polling into a reused slice
// must not allocate.
func TestAsyncSteadyStateAllocs(t *testing.T) {
	ep, p := asyncFixture(t)
	a := rdma.Async(blockingOnly{ep})
	dst := make([]uint64, 2)
	comps := make([]rdma.Completion, 0, 8)
	// Warm the queue and completion capacities.
	for i := 0; i < 3; i++ {
		a.PostRead(p, dst)
		a.PostFetchAdd(p.Add(8), 1)
		a.Flush()
		comps = a.Poll(comps[:0])
	}
	avg := testing.AllocsPerRun(100, func() {
		a.PostRead(p, dst)
		a.PostFetchAdd(p.Add(8), 1)
		a.Flush()
		comps = a.Poll(comps[:0])
	})
	if avg != 0 {
		t.Fatalf("async steady state allocates %.1f allocs/round, want 0", avg)
	}
}
