package btree

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/rdma/direct"
	"github.com/namdb/rdmatree/internal/rdma/retry"
)

const testRegion = 64 << 20

// newLocalTree creates a tree over one server's local region (the
// coarse-grained access path).
func newLocalTree(t *testing.T, pageBytes int) *Tree {
	t.Helper()
	f := direct.New(1, testRegion, 64)
	tr := New(layout.New(pageBytes), LocalMem{Srv: f.Server(0)}, rdma.MakePtr(0, 0))
	if err := tr.Init(rdma.NopEnv{}); err != nil {
		t.Fatal(err)
	}
	return tr
}

// newRemoteTree creates a tree over one-sided verbs with round-robin page
// placement across servers (the fine-grained access path). The returned
// function makes additional handles (one per concurrent client).
func newRemoteTree(t *testing.T, pageBytes, servers int) (*Tree, func() *Tree) {
	t.Helper()
	f := direct.New(servers, testRegion, 64)
	l := layout.New(pageBytes)
	mk := func() *Tree {
		return New(l, &EndpointMem{Ep: f.Endpoint(), Place: RoundRobin(servers, rand.Intn(servers))}, rdma.MakePtr(0, 0))
	}
	tr := mk()
	if err := tr.Init(rdma.NopEnv{}); err != nil {
		t.Fatal(err)
	}
	return tr, mk
}

var env = rdma.NopEnv{}

func TestInsertLookupSmall(t *testing.T) {
	for _, mode := range []string{"local", "remote"} {
		t.Run(mode, func(t *testing.T) {
			var tr *Tree
			if mode == "local" {
				tr = newLocalTree(t, 512)
			} else {
				tr, _ = newRemoteTree(t, 512, 4)
			}
			for i := 0; i < 100; i++ {
				if _, err := tr.Insert(env, uint64(i*3), uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 100; i++ {
				vals, _, err := tr.Lookup(env, uint64(i*3))
				if err != nil {
					t.Fatal(err)
				}
				if len(vals) != 1 || vals[0] != uint64(i) {
					t.Fatalf("Lookup(%d) = %v; want [%d]", i*3, vals, i)
				}
			}
			// Absent keys.
			for _, k := range []uint64{1, 2, 298, 1000} {
				vals, _, err := tr.Lookup(env, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(vals) != 0 {
					t.Fatalf("Lookup(%d) = %v; want empty", k, vals)
				}
			}
			if _, err := tr.CheckInvariants(env); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestInsertSplitsGrowTree(t *testing.T) {
	tr := newLocalTree(t, 256) // tiny pages force deep trees
	const n = 5000
	for i := 0; i < n; i++ {
		if _, err := tr.Insert(env, uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	h, err := tr.Height(env)
	if err != nil {
		t.Fatal(err)
	}
	if h < 3 {
		t.Fatalf("height = %d; want >= 3 after %d inserts on tiny pages", h, n)
	}
	live, err := tr.CheckInvariants(env)
	if err != nil {
		t.Fatal(err)
	}
	if live != n {
		t.Fatalf("live entries = %d; want %d", live, n)
	}
}

func TestInsertRandomOrderAllFound(t *testing.T) {
	tr, _ := newRemoteTree(t, 512, 3)
	rng := rand.New(rand.NewSource(42))
	keys := rng.Perm(3000)
	for _, k := range keys {
		if _, err := tr.Insert(env, uint64(k), uint64(k)*2); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		vals, _, err := tr.Lookup(env, uint64(k))
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != 1 || vals[0] != uint64(k)*2 {
			t.Fatalf("Lookup(%d) = %v", k, vals)
		}
	}
	if _, err := tr.CheckInvariants(env); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateKeysAcrossSplits(t *testing.T) {
	tr := newLocalTree(t, 256)
	// Insert enough duplicates of one key to span several leaves.
	const dups = 300
	for i := 0; i < dups; i++ {
		if _, err := tr.Insert(env, 77, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Surround with other keys.
	for i := 0; i < 200; i++ {
		if _, err := tr.Insert(env, uint64(i), 1); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Insert(env, uint64(1000+i), 1); err != nil {
			t.Fatal(err)
		}
	}
	vals, _, err := tr.Lookup(env, 77)
	if err != nil {
		t.Fatal(err)
	}
	// Key 77 was also inserted once by the surrounding loop.
	if len(vals) != dups+1 {
		t.Fatalf("Lookup(77) returned %d values; want %d", len(vals), dups+1)
	}
	if _, err := tr.CheckInvariants(env); err != nil {
		t.Fatal(err)
	}
}

func TestScanRange(t *testing.T) {
	tr, _ := newRemoteTree(t, 512, 2)
	for i := 0; i < 1000; i++ {
		if _, err := tr.Insert(env, uint64(i*2), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	_, err := tr.Scan(env, 100, 200, func(k layout.Key, v uint64) bool {
		got = append(got, k)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 51 {
		t.Fatalf("scan [100,200] returned %d keys; want 51", len(got))
	}
	for i, k := range got {
		if k != uint64(100+2*i) {
			t.Fatalf("scan out of order at %d: %d", i, k)
		}
	}
	// Early termination.
	count := 0
	if _, err := tr.Scan(env, 0, 2000, func(layout.Key, uint64) bool {
		count++
		return count < 10
	}); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("early-terminated scan visited %d; want 10", count)
	}
	// Empty range.
	count = 0
	if _, err := tr.Scan(env, 3001, 4000, func(layout.Key, uint64) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatalf("scan of empty range visited %d", count)
	}
}

func TestDeleteMarksAndLookupSkips(t *testing.T) {
	tr := newLocalTree(t, 512)
	for i := 0; i < 500; i++ {
		if _, err := tr.Insert(env, uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i += 2 {
		ok, _, err := tr.Delete(env, uint64(i), uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("Delete(%d) found nothing", i)
		}
	}
	for i := 0; i < 500; i++ {
		vals, _, err := tr.Lookup(env, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 && len(vals) != 0 {
			t.Fatalf("deleted key %d still visible: %v", i, vals)
		}
		if i%2 == 1 && len(vals) != 1 {
			t.Fatalf("surviving key %d lost: %v", i, vals)
		}
	}
	// Deleting again finds nothing.
	ok, _, err := tr.Delete(env, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("double delete succeeded")
	}
	// Scans skip deleted entries.
	count := 0
	if _, err := tr.Scan(env, 0, 499, func(layout.Key, uint64) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 250 {
		t.Fatalf("scan saw %d entries; want 250", count)
	}
}

func TestDeleteSpecificValueAmongDuplicates(t *testing.T) {
	tr := newLocalTree(t, 512)
	for v := uint64(0); v < 5; v++ {
		if _, err := tr.Insert(env, 9, v); err != nil {
			t.Fatal(err)
		}
	}
	ok, _, err := tr.Delete(env, 9, 3)
	if err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	vals, _, err := tr.Lookup(env, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 4 {
		t.Fatalf("got %d values", len(vals))
	}
	for _, v := range vals {
		if v == 3 {
			t.Fatal("deleted value still visible")
		}
	}
}

func TestCompactRemovesDeleted(t *testing.T) {
	tr := newLocalTree(t, 512)
	for i := 0; i < 1000; i++ {
		if _, err := tr.Insert(env, uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i += 3 {
		if _, _, err := tr.Delete(env, uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	removed, _, err := tr.Compact(env)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 334 {
		t.Fatalf("compact removed %d; want 334", removed)
	}
	live, err := tr.CheckInvariants(env)
	if err != nil {
		t.Fatal(err)
	}
	if live != 666 {
		t.Fatalf("live = %d; want 666", live)
	}
	// Idempotent.
	removed, _, err = tr.Compact(env)
	if err != nil || removed != 0 {
		t.Fatalf("second compact removed %d err=%v", removed, err)
	}
}

func TestInsertMaxKeyRejected(t *testing.T) {
	tr := newLocalTree(t, 512)
	if _, err := tr.Insert(env, layout.MaxKey, 1); err != ErrKeyReserved {
		t.Fatalf("err = %v; want ErrKeyReserved", err)
	}
}

func TestBuildBulkLoadAndQuery(t *testing.T) {
	for _, headEvery := range []int{0, 8} {
		t.Run(fmt.Sprintf("headEvery=%d", headEvery), func(t *testing.T) {
			tr, _ := newRemoteTree(t, 512, 4)
			const n = 20000
			bs, err := tr.Build(env, BuildConfig{Fill: 0.9, HeadEvery: headEvery}, n,
				func(i int) (uint64, uint64) { return uint64(i * 2), uint64(i) })
			if err != nil {
				t.Fatal(err)
			}
			if bs.Leaves == 0 || bs.Height < 2 {
				t.Fatalf("implausible build stats: %+v", bs)
			}
			if headEvery > 0 && bs.Heads == 0 {
				t.Fatal("no head nodes built")
			}
			live, err := tr.CheckInvariants(env)
			if err != nil {
				t.Fatal(err)
			}
			if live != n {
				t.Fatalf("live = %d; want %d", live, n)
			}
			for _, i := range []int{0, 1, 17, n / 2, n - 1} {
				vals, _, err := tr.Lookup(env, uint64(i*2))
				if err != nil {
					t.Fatal(err)
				}
				if len(vals) != 1 || vals[0] != uint64(i) {
					t.Fatalf("Lookup(%d) = %v", i*2, vals)
				}
			}
			// Full scan returns everything in order.
			count, prev := 0, uint64(0)
			st, err := tr.Scan(env, 0, layout.MaxKey-1, func(k layout.Key, v uint64) bool {
				if k < prev {
					t.Fatalf("scan out of order: %d after %d", k, prev)
				}
				prev = k
				count++
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if count != n {
				t.Fatalf("scan saw %d; want %d", count, n)
			}
			if headEvery > 0 && st.Prefetches == 0 {
				t.Fatal("scan over head nodes did no prefetching")
			}
			if headEvery == 0 && st.Prefetches != 0 {
				t.Fatal("prefetches without head nodes")
			}
		})
	}
}

func TestBuildThenInsertMore(t *testing.T) {
	tr, _ := newRemoteTree(t, 512, 4)
	const n = 5000
	if _, err := tr.Build(env, BuildConfig{HeadEvery: 4}, n,
		func(i int) (uint64, uint64) { return uint64(i*2 + 1), uint64(i) }); err != nil {
		t.Fatal(err)
	}
	// Fill the gaps with regular inserts (exercises splits of loaded pages
	// and of chains containing head nodes).
	for i := 0; i < n; i++ {
		if _, err := tr.Insert(env, uint64(i*2), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	live, err := tr.CheckInvariants(env)
	if err != nil {
		t.Fatal(err)
	}
	if live != 2*n {
		t.Fatalf("live = %d; want %d", live, 2*n)
	}
	count := 0
	if _, err := tr.Scan(env, 0, layout.MaxKey-1, func(layout.Key, uint64) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 2*n {
		t.Fatalf("scan saw %d; want %d", count, 2*n)
	}
}

func TestBuildEmptyAndSingle(t *testing.T) {
	tr, _ := newRemoteTree(t, 512, 2)
	if _, err := tr.Build(env, BuildConfig{}, 0, nil); err != nil {
		t.Fatal(err)
	}
	vals, _, err := tr.Lookup(env, 1)
	if err != nil || len(vals) != 0 {
		t.Fatalf("lookup on empty tree: %v %v", vals, err)
	}
	tr2, _ := newRemoteTree(t, 512, 2)
	if _, err := tr2.Build(env, BuildConfig{}, 1, func(int) (uint64, uint64) { return 5, 50 }); err != nil {
		t.Fatal(err)
	}
	vals, _, err = tr2.Lookup(env, 5)
	if err != nil || len(vals) != 1 || vals[0] != 50 {
		t.Fatalf("lookup on single-item tree: %v %v", vals, err)
	}
}

func TestBuildRejectsUnsorted(t *testing.T) {
	tr := newLocalTree(t, 512)
	keys := []uint64{1, 5, 3}
	_, err := tr.Build(env, BuildConfig{}, len(keys), func(i int) (uint64, uint64) { return keys[i], 0 })
	if err == nil {
		t.Fatal("unsorted build accepted")
	}
}

func TestBuildWithDuplicates(t *testing.T) {
	tr := newLocalTree(t, 256)
	const n = 2000
	if _, err := tr.Build(env, BuildConfig{}, n, func(i int) (uint64, uint64) {
		return uint64(i / 10), uint64(i) // 10 duplicates per key
	}); err != nil {
		t.Fatal(err)
	}
	vals, _, err := tr.Lookup(env, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 10 {
		t.Fatalf("Lookup(7) = %d values; want 10", len(vals))
	}
	if _, err := tr.CheckInvariants(env); err != nil {
		t.Fatal(err)
	}
}

func TestRebuildHeads(t *testing.T) {
	tr, _ := newRemoteTree(t, 512, 4)
	const n = 10000
	if _, err := tr.Build(env, BuildConfig{HeadEvery: 8}, n,
		func(i int) (uint64, uint64) { return uint64(i), uint64(i) }); err != nil {
		t.Fatal(err)
	}
	// Splits make head-node hints stale.
	for i := 0; i < n; i += 2 {
		if _, err := tr.Insert(env, uint64(i)*1000000+500, 1); err != nil {
			t.Fatal(err)
		}
	}
	retired, _, err := tr.RebuildHeads(env, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(retired) == 0 {
		t.Fatal("no heads retired")
	}
	if _, err := tr.CheckInvariants(env); err != nil {
		t.Fatal(err)
	}
	// Scans still complete and prefetch from the new heads.
	count := 0
	st, err := tr.Scan(env, 0, layout.MaxKey-1, func(layout.Key, uint64) bool { count++; return true })
	if err != nil {
		t.Fatal(err)
	}
	if count != n+n/2 {
		t.Fatalf("scan saw %d; want %d", count, n+n/2)
	}
	if st.Prefetches == 0 {
		t.Fatal("no prefetching after rebuild")
	}
	if err := tr.FreeRetired(retired); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentInsertsLocal(t *testing.T) {
	f := direct.New(1, testRegion, 64)
	l := layout.New(256)
	root := rdma.MakePtr(0, 0)
	init := New(l, LocalMem{Srv: f.Server(0)}, root)
	if err := init.Init(env); err != nil {
		t.Fatal(err)
	}
	const writers = 8
	const perW = 1500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := New(l, LocalMem{Srv: f.Server(0)}, root)
			e := direct.Env{}
			for i := 0; i < perW; i++ {
				k := uint64(i*writers + w)
				if _, err := tr.Insert(e, k, k); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	live, err := init.CheckInvariants(env)
	if err != nil {
		t.Fatal(err)
	}
	if live != writers*perW {
		t.Fatalf("live = %d; want %d", live, writers*perW)
	}
}

func TestConcurrentMixedRemote(t *testing.T) {
	f := direct.New(4, testRegion, 64)
	l := layout.New(256)
	root := rdma.MakePtr(0, 0)
	boot := New(l, &EndpointMem{Ep: f.Endpoint(), Place: RoundRobin(4, 0)}, root)
	const preload = 4000
	if _, err := boot.Build(env, BuildConfig{HeadEvery: 6}, preload,
		func(i int) (uint64, uint64) { return uint64(i * 4), uint64(i) }); err != nil {
		t.Fatal(err)
	}
	const clients = 8
	const opsPer = 800
	var wg sync.WaitGroup
	var inserted [clients]int
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := New(l, &EndpointMem{Ep: f.Endpoint(), Place: RoundRobin(4, c)}, root)
			e := direct.Env{}
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < opsPer; i++ {
				switch rng.Intn(3) {
				case 0: // insert a fresh odd key
					k := uint64(i*2*clients+c*2) + 1
					if _, err := tr.Insert(e, k, k); err != nil {
						t.Error(err)
						return
					}
					inserted[c]++
				case 1: // point lookup of a preloaded key
					k := uint64(rng.Intn(preload) * 4)
					vals, _, err := tr.Lookup(e, k)
					if err != nil {
						t.Error(err)
						return
					}
					if len(vals) == 0 {
						t.Errorf("preloaded key %d disappeared", k)
						return
					}
				case 2: // short scan
					lo := uint64(rng.Intn(preload * 4))
					if _, err := tr.Scan(e, lo, lo+100, func(layout.Key, uint64) bool { return true }); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	total := preload
	for _, n := range inserted {
		total += n
	}
	live, err := boot.CheckInvariants(env)
	if err != nil {
		t.Fatal(err)
	}
	if live != total {
		t.Fatalf("live = %d; want %d", live, total)
	}
}

func TestConcurrentInsertDeleteSameKeys(t *testing.T) {
	f := direct.New(2, testRegion, 64)
	l := layout.New(256)
	root := rdma.MakePtr(0, 0)
	boot := New(l, &EndpointMem{Ep: f.Endpoint(), Place: RoundRobin(2, 0)}, root)
	if err := boot.Init(env); err != nil {
		t.Fatal(err)
	}
	const pairs = 6
	var wg sync.WaitGroup
	for c := 0; c < pairs; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := New(l, &EndpointMem{Ep: f.Endpoint(), Place: RoundRobin(2, c)}, root)
			e := direct.Env{}
			for i := 0; i < 500; i++ {
				k := uint64(c*1000 + i)
				if _, err := tr.Insert(e, k, k); err != nil {
					t.Error(err)
					return
				}
				ok, _, err := tr.Delete(e, k, k)
				if err != nil {
					t.Error(err)
					return
				}
				if !ok {
					t.Errorf("own insert of %d not found for delete", k)
					return
				}
			}
		}()
	}
	wg.Wait()
	live, err := boot.CheckInvariants(env)
	if err != nil {
		t.Fatal(err)
	}
	if live != 0 {
		t.Fatalf("live = %d; want 0 (all deleted)", live)
	}
}

// blockingOnly hides an endpoint's post/poll surface, as the replica router
// (repl.Router) has none.
type blockingOnly struct{ rdma.Endpoint }

func TestStatsCounting(t *testing.T) {
	for _, c := range []struct {
		name   string
		mem    func(ep rdma.Endpoint) *EndpointMem
		rounds int // exposed round trips of the publish pair
	}{
		{"posting", func(ep rdma.Endpoint) *EndpointMem { return &EndpointMem{Ep: ep} }, 1},
		{"retry-posting", func(ep rdma.Endpoint) *EndpointMem {
			return &EndpointMem{Ep: retry.Wrap(ep, &retry.Policy{})}
		}, 1},
		{"legacy", func(ep rdma.Endpoint) *EndpointMem { return &EndpointMem{Ep: ep, Unbatched: true} }, 2},
		{"blocking-only", func(ep rdma.Endpoint) *EndpointMem {
			return &EndpointMem{Ep: retry.Wrap(blockingOnly{ep}, &retry.Policy{})}
		}, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := direct.New(4, testRegion, 64)
			m := c.mem(f.Endpoint())
			m.Place = RoundRobin(4, 0)
			tr := New(layout.New(512), m, rdma.MakePtr(0, 0))
			if err := tr.Init(env); err != nil {
				t.Fatal(err)
			}
			statsCounting(t, tr, c.rounds)
		})
	}
}

func statsCounting(t *testing.T, tr *Tree, publishRounds int) {
	const n = 20000
	if _, err := tr.Build(env, BuildConfig{}, n,
		func(i int) (uint64, uint64) { return uint64(i), uint64(i) }); err != nil {
		t.Fatal(err)
	}
	h, err := tr.Height(env)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := tr.Lookup(env, uint64(n/2))
	if err != nil {
		t.Fatal(err)
	}
	// A quiesced point lookup reads exactly height pages.
	if st.PageReads != h {
		t.Fatalf("point lookup read %d pages; height is %d", st.PageReads, h)
	}
	if st.PageWrites != 0 || st.Atomics != 0 {
		t.Fatalf("read-only op wrote: %+v", st)
	}
	st2, err2 := tr.Insert(env, uint64(n/2), 1)
	if err2 != nil {
		t.Fatal(err2)
	}
	// Insert without split: height page reads + lock CAS + body write + FAA.
	if st2.Atomics != 2 || st2.PageWrites != 1 {
		t.Fatalf("no-split insert stats: %+v", st2)
	}
	// The lock CAS uses the version the descent validated, so the leaf is
	// not read again; the body write and the unlock FAA share one round on a
	// stack that can post, and are two where it cannot (the root pointer is
	// cached).
	want := h + 1 + publishRounds
	if st2.PageReads != h || st2.WordReads != h || st2.ExposedRTTs != want || st2.Restarts != 0 {
		t.Fatalf("no-split insert on a height-%d tree: %+v; want %d page reads, %d word reads, %d exposed RTTs", h, st2, h, h, want)
	}
}

func TestLookupPropertyAgainstMap(t *testing.T) {
	tr := newLocalTree(t, 256)
	oracle := make(map[uint64][]uint64)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 8000; i++ {
		k := uint64(rng.Intn(500))
		v := uint64(i)
		switch rng.Intn(4) {
		case 0, 1, 2:
			if _, err := tr.Insert(env, k, v); err != nil {
				t.Fatal(err)
			}
			oracle[k] = append(oracle[k], v)
		case 3:
			if vs := oracle[k]; len(vs) > 0 {
				victim := vs[rng.Intn(len(vs))]
				ok, _, err := tr.Delete(env, k, victim)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("oracle value %d/%d missing in tree", k, victim)
				}
				for j, v2 := range vs {
					if v2 == victim {
						oracle[k] = append(vs[:j:j], vs[j+1:]...)
						break
					}
				}
			}
		}
	}
	for k, want := range oracle {
		got, _, err := tr.Lookup(env, k)
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		w := append([]uint64(nil), want...)
		sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
		if len(got) != len(w) {
			t.Fatalf("key %d: %d values; want %d", k, len(got), len(w))
		}
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("key %d: values %v; want %v", k, got, w)
			}
		}
	}
	if _, err := tr.CheckInvariants(env); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLocalInsert(b *testing.B) {
	f := direct.New(1, 1<<30, 64)
	tr := New(layout.New(1024), LocalMem{Srv: f.Server(0)}, rdma.MakePtr(0, 0))
	if err := tr.Init(env); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Insert(env, uint64(i), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalLookup(b *testing.B) {
	f := direct.New(1, 1<<30, 64)
	tr := New(layout.New(1024), LocalMem{Srv: f.Server(0)}, rdma.MakePtr(0, 0))
	const n = 1 << 20
	if _, err := tr.Build(env, BuildConfig{}, n, func(i int) (uint64, uint64) { return uint64(i), uint64(i) }); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tr.Lookup(env, uint64(i%n)); err != nil {
			b.Fatal(err)
		}
	}
}

// splitPublish is a Mem whose fail-th WriteUnlock runs only the unlock FAA
// and reports the WRITE failed, the pair outcome per-completion fault
// injection can produce; calls counts every WriteUnlock.
type splitPublish struct {
	Mem
	calls, fail int
}

func (m *splitPublish) WriteUnlock(p rdma.RemotePtr, body []uint64) Publish {
	m.calls++
	if m.calls != m.fail {
		return m.Mem.WriteUnlock(p, body)
	}
	prior, err := m.Mem.FetchAdd(p, 1)
	return Publish{Prior: prior, WriteErr: rdma.ErrTimeout, UnlockErr: err, Rounds: 1}
}

// TestPublishRedoneAfterFailedWrite pins the WRITE-failed, FAA-ran publish
// outcome on a separator install: the traversal redoes the install rather
// than failing an insert whose leaf split already committed, so the new
// leaf gets its parent pair and a lookup reaches it without a right-move.
func TestPublishRedoneAfterFailedWrite(t *testing.T) {
	newTree := func(fail int) (*Tree, *splitPublish) {
		f := direct.New(1, testRegion, 64)
		m := &splitPublish{Mem: LocalMem{Srv: f.Server(0)}, fail: fail}
		tr := New(layout.New(256), m, rdma.MakePtr(0, 0))
		if err := tr.Init(env); err != nil {
			t.Fatal(err)
		}
		return tr, m
	}
	// Dry run: the first insert that publishes twice split a leaf under an
	// inner root and cut its separator into the root.
	dry, dm := newTree(0)
	key, install := uint64(0), 0
	for ; install == 0 && key < 10000; key++ {
		before := dm.calls
		if _, err := dry.Insert(env, key, key); err != nil {
			t.Fatal(err)
		}
		if h, _ := dry.Height(env); h >= 2 && dm.calls-before == 2 {
			install = dm.calls
		}
	}
	if install == 0 {
		t.Fatal("no insert split a leaf under an inner root")
	}
	tr, _ := newTree(install)
	for k := uint64(0); k < key; k++ {
		st, err := tr.Insert(env, k, k)
		if err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		if k == key-1 && st.Restarts == 0 {
			t.Fatalf("insert %d redid nothing: %+v", k, st)
		}
	}
	if _, err := tr.CheckInvariants(env); err != nil {
		t.Fatal(err)
	}
	h, err := tr.Height(env)
	if err != nil {
		t.Fatal(err)
	}
	vals, st, err := tr.Lookup(env, key-1)
	if err != nil || len(vals) != 1 {
		t.Fatalf("lookup %d = %v, %v", key-1, vals, err)
	}
	if st.PageReads != h {
		t.Fatalf("lookup of the split-off leaf read %d pages on a height-%d tree: its separator is missing", st.PageReads, h)
	}
}
