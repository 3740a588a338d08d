package btree

import (
	"testing"

	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/rdma/direct"
	"github.com/namdb/rdmatree/internal/rdma/retry"
)

// Micro-benchmarks of the hot read paths on the direct (zero-latency)
// transport, with allocation reporting: the fused consistent-read protocol
// and the scratch-buffer reuse in Lookup's sibling walk and scanChain are
// meant to keep these nearly allocation-free in steady state.

func benchTree(b *testing.B, n, headEvery int) *Tree {
	b.Helper()
	f := direct.New(4, 256<<20, nam.SuperblockBytes)
	l := layout.New(512)
	root := rdma.MakePtr(0, 0)
	tr := New(l, &EndpointMem{Ep: f.Endpoint(), Place: RoundRobin(4, 0)}, root)
	if _, err := tr.Build(rdma.NopEnv{}, BuildConfig{HeadEvery: headEvery}, n,
		func(i int) (uint64, uint64) { return uint64(i), uint64(i) }); err != nil {
		b.Fatal(err)
	}
	return tr
}

func BenchmarkLookup(b *testing.B) {
	const n = 100000
	tr := benchTree(b, n, 0)
	env := rdma.NopEnv{}
	if _, _, err := tr.Lookup(env, 1); err != nil { // warm the root pointer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i*2654435761) % n
		vals, _, err := tr.Lookup(env, k)
		if err != nil {
			b.Fatal(err)
		}
		if len(vals) != 1 {
			b.Fatalf("Lookup(%d) = %v", k, vals)
		}
	}
}

// TestLookupZeroAllocs is the hard gate behind BenchmarkLookup's allocation
// report: the serial fused lookup path must run allocation-free in steady
// state. The descent and lock paths share the handle's scratch page and
// Lookup reuses the handle's values buffer, so after the first (warming)
// operation nothing on the read path allocates.
func TestLookupZeroAllocs(t *testing.T) {
	const n = 100000
	f := direct.New(4, 256<<20, nam.SuperblockBytes)
	l := layout.New(512)
	tr := New(l, &EndpointMem{Ep: f.Endpoint(), Place: RoundRobin(4, 0)}, rdma.MakePtr(0, 0))
	if _, err := tr.Build(rdma.NopEnv{}, BuildConfig{}, n,
		func(i int) (uint64, uint64) { return uint64(i), uint64(i) }); err != nil {
		t.Fatal(err)
	}
	env := rdma.NopEnv{}
	if _, _, err := tr.Lookup(env, 1); err != nil { // warm root, scratch, values buffer
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		k := uint64(i*2654435761) % n
		i++
		vals, _, err := tr.Lookup(env, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != 1 {
			t.Fatalf("Lookup(%d) = %v", k, vals)
		}
	})
	if allocs != 0 {
		t.Fatalf("serial fused lookup allocates %v allocs/op in steady state, want 0", allocs)
	}
}

func BenchmarkScan(b *testing.B) {
	const n = 100000
	tr := benchTree(b, n, 8)
	env := rdma.NopEnv{}
	if _, _, err := tr.Lookup(env, 1); err != nil { // warm the root pointer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := uint64(i*2654435761) % (n - 2000)
		count := 0
		if _, err := tr.Scan(env, lo, lo+1999, func(k, v uint64) bool {
			count++
			return true
		}); err != nil {
			b.Fatal(err)
		}
		if count != 2000 {
			b.Fatalf("scan [%d,%d] emitted %d", lo, lo+1999, count)
		}
	}
}

// BenchmarkWriteUnlock times one publish of a 1 KB page — the body WRITE and
// the unlock FAA of Mem.WriteUnlock — over retry(direct): posted shares one
// doorbell, blocking (a Borrowed surface) runs the pair as two blocking
// verbs. On a transport without a wire the round trip it saves is free, so
// the two rows price the post/poll path against the blocking one.
func BenchmarkWriteUnlock(b *testing.B) {
	const pageBytes = 1024
	for _, c := range []struct {
		name     string
		borrowed bool
	}{{"posted", false}, {"blocking", true}} {
		b.Run(c.name, func(b *testing.B) {
			f := direct.New(1, 1<<20, nam.SuperblockBytes)
			m := &EndpointMem{Ep: retry.Wrap(f.Endpoint(), &retry.Policy{}), Borrowed: c.borrowed}
			p := rdma.MakePtr(0, 1<<16)
			body := make([]uint64, pageBytes/8-1)
			if pub := m.WriteUnlock(p, body); pub.WriteErr != nil || pub.UnlockErr != nil {
				b.Fatal(pub.WriteErr, pub.UnlockErr)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.WriteUnlock(p, body)
			}
		})
	}
}
