package btree

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/rdma/direct"
)

// TestHybridComposition drives the tree the way the hybrid design does:
// FindLeaf (server-side traversal) + Leaf* one-sided ops + Install RPC.
func TestHybridComposition(t *testing.T) {
	f := direct.New(4, testRegion, 64)
	l := layout.New(512)
	root := rdma.MakePtr(0, 0)
	// Server-side handle: upper levels live on server 0.
	server := New(l, LocalMem{Srv: f.Server(0)}, root)
	// Client-side handle: leaves accessed one-sided, placed round-robin.
	client := New(l, &EndpointMem{Ep: f.Endpoint(), Place: RoundRobin(4, 1)}, root)

	if err := server.Init(env); err != nil {
		t.Fatal(err)
	}
	const n = 3000
	for i := 0; i < n; i++ {
		k := uint64(i)
		leaf, _, err := server.FindLeaf(env, k)
		if err != nil {
			t.Fatal(err)
		}
		sp, _, err := client.LeafInsertAt(env, leaf, k, k*10)
		if err != nil {
			t.Fatal(err)
		}
		if sp != nil {
			if _, err := server.Install(env, 1, sp.Sep, sp.Left, sp.Right); err != nil {
				t.Fatal(err)
			}
		}
	}
	checker := New(l, &EndpointMem{Ep: f.Endpoint(), Place: RoundRobin(4, 0)}, root)
	live, err := checker.CheckInvariants(env)
	if err != nil {
		t.Fatal(err)
	}
	if live != n {
		t.Fatalf("live = %d; want %d", live, n)
	}
	// Lookups via the hybrid path.
	for i := 0; i < n; i += 37 {
		leaf, _, err := server.FindLeaf(env, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		vals, _, err := client.LeafLookup(env, leaf, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != 1 || vals[0] != uint64(i)*10 {
			t.Fatalf("hybrid lookup %d = %v", i, vals)
		}
	}
	// Range scan via the hybrid path.
	leaf, _, err := server.FindLeaf(env, 100)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	if _, err := client.LeafScan(env, leaf, 100, 199, func(layout.Key, uint64) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 100 {
		t.Fatalf("hybrid scan saw %d; want 100", count)
	}
	// Delete via the hybrid path.
	leaf, _, err = server.FindLeaf(env, 42)
	if err != nil {
		t.Fatal(err)
	}
	ok, _, err := client.LeafDeleteAt(env, leaf, 42, 420)
	if err != nil || !ok {
		t.Fatalf("hybrid delete: ok=%v err=%v", ok, err)
	}
}

// TestHybridConcurrent exercises the hybrid composition under concurrency:
// several clients insert through FindLeaf + LeafInsertAt + Install while the
// server-side handle is shared per goroutine.
func TestHybridConcurrent(t *testing.T) {
	f := direct.New(4, testRegion, 64)
	l := layout.New(256)
	root := rdma.MakePtr(0, 0)
	boot := New(l, LocalMem{Srv: f.Server(0)}, root)
	if err := boot.Init(env); err != nil {
		t.Fatal(err)
	}
	// Hybrid invariant: the server-side tree must always have an inner root
	// on the owning server (core/hybrid guarantees this at build time), so
	// that server-side traversal never reads a foreign leaf.
	leafRoot := rdma.RemotePtr(f.Server(0).Region.Load(0))
	innerOff, err := f.Server(0).Alloc.Alloc(l.PageBytes)
	if err != nil {
		t.Fatal(err)
	}
	inner := l.NewNode()
	inner.InitInner(1)
	inner.InnerAppend(layout.MaxKey, leafRoot)
	f.Server(0).Region.Write(innerOff, inner.W)
	f.Server(0).Region.Store(0, uint64(rdma.MakePtr(0, innerOff)))
	const clients = 6
	const perC = 1200
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := direct.Env{}
			// Each goroutine owns both a server-side handle (simulating the
			// RPC handler thread) and a client-side handle.
			server := New(l, LocalMem{Srv: f.Server(0)}, root)
			client := New(l, &EndpointMem{Ep: f.Endpoint(), Place: RoundRobin(4, c)}, root)
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < perC; i++ {
				k := uint64(rng.Intn(10000))
				leaf, _, err := server.FindLeaf(e, k)
				if err != nil {
					t.Error(err)
					return
				}
				sp, _, err := client.LeafInsertAt(e, leaf, k, uint64(c*perC+i))
				if err != nil {
					t.Error(err)
					return
				}
				if sp != nil {
					if _, err := server.Install(e, 1, sp.Sep, sp.Left, sp.Right); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	checker := New(l, &EndpointMem{Ep: f.Endpoint(), Place: RoundRobin(4, 0)}, root)
	live, err := checker.CheckInvariants(env)
	if err != nil {
		t.Fatal(err)
	}
	if live != clients*perC {
		t.Fatalf("live = %d; want %d", live, clients*perC)
	}
}

func TestFindLeafOnSingleLeafTree(t *testing.T) {
	tr := newLocalTree(t, 512)
	leaf, _, err := tr.FindLeaf(env, 5)
	if err != nil {
		t.Fatal(err)
	}
	if leaf.IsNull() {
		t.Fatal("null leaf on fresh tree")
	}
}

// TestHybridLeafPathAllocatesNoPage pins the hybrid client's handle onto the
// page scratch: a one-sided upper-level descent (FindLeaf over EndpointMem)
// allocates nothing, and a leaf lookup allocates only its result slice,
// never a page buffer.
func TestHybridLeafPathAllocatesNoPage(t *testing.T) {
	f := direct.New(2, testRegion, 64)
	l := layout.New(512)
	root := rdma.MakePtr(0, 0)
	server := New(l, LocalMem{Srv: f.Server(0)}, root)
	if err := server.Init(env); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 2000; i++ {
		if _, err := server.Insert(env, i, i); err != nil {
			t.Fatal(err)
		}
	}
	client := New(l, &EndpointMem{Ep: f.Endpoint(), Place: RoundRobin(2, 0)}, root)
	key := uint64(0)
	var leaf rdma.RemotePtr
	findLeaf := func() {
		var err error
		if leaf, _, err = client.FindLeaf(env, key); err != nil {
			t.Fatal(err)
		}
	}
	findLeaf() // warm the scratch page and the root cache
	if a := testing.AllocsPerRun(200, func() { key = (key + 7) % 2000; findLeaf() }); a != 0 {
		t.Errorf("FindLeaf allocates %v times per call, want 0", a)
	}
	findLeaf()
	if a := testing.AllocsPerRun(200, func() {
		vals, _, err := client.LeafLookup(env, leaf, key)
		if err != nil || len(vals) != 1 {
			t.Fatalf("LeafLookup(%d) = %v, %v", key, vals, err)
		}
	}); a != 1 {
		t.Errorf("LeafLookup allocates %v times per call, want 1 (the result slice)", a)
	}
}
