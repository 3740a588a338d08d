// Package rdmatest holds transport-independent checks of the rdma
// contracts, shared by every transport's tests.
package rdmatest

import (
	"testing"

	"github.com/namdb/rdmatree/internal/rdma"
)

// AllocMidBatch pins the rule a pipelined split step relies on: a blocking
// Alloc issued while posted verbs are still unflushed succeeds, the fresh
// page is usable by further blocking verbs, and the posted verbs' effects
// and completions are untouched. p must address two writable words on any
// server. The checks report through t.Errorf only, so they may run inside a
// simulator process.
func AllocMidBatch(t testing.TB, a rdma.AsyncEndpoint, p rdma.RemotePtr, allocServer int) {
	t.Helper()
	dst := make([]uint64, 2)
	toks := []rdma.Token{
		a.PostWrite(p, []uint64{5, 6}),
		a.PostFetchAdd(p, 1),
		a.PostRead(p, dst),
	}
	np, err := a.Alloc(allocServer, 64)
	if err != nil || np.IsNull() || np.Server() != allocServer {
		t.Errorf("mid-batch Alloc(%d) = %v, %v", allocServer, np, err)
		return
	}
	if err := a.Write(np, []uint64{9, 10}); err != nil {
		t.Errorf("blocking write to the fresh page mid-batch: %v", err)
		return
	}
	a.Flush()
	comps := a.Poll(nil)
	if len(comps) != len(toks) {
		t.Errorf("got %d completions for %d posted verbs", len(comps), len(toks))
		return
	}
	for i, c := range comps {
		if c.Token != toks[i] || c.Err != nil {
			t.Errorf("completion %d = %+v, want token %d and no error", i, c, toks[i])
		}
	}
	if comps[1].Val != 5 {
		t.Errorf("posted FAA saw %d, want 5 (the posted write)", comps[1].Val)
	}
	if dst[0] != 6 || dst[1] != 6 {
		t.Errorf("posted read %v, want [6 6]", dst)
	}
	fresh := make([]uint64, 2)
	a.PostRead(np, fresh)
	a.Flush()
	if comps = a.Poll(comps[:0]); len(comps) != 1 || comps[0].Err != nil || fresh[0] != 9 || fresh[1] != 10 {
		t.Errorf("read of the fresh page: %+v, %v", comps, fresh)
	}
}
