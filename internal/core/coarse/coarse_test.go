package coarse

import (
	"testing"

	"github.com/namdb/rdmatree/internal/core"
	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/partition"
	"github.com/namdb/rdmatree/internal/rdma/direct"
)

func deploy(t *testing.T, part partition.Partitioner, n int) (*Server, *Client) {
	t.Helper()
	fab := direct.New(part.Servers(), 64<<20, nam.SuperblockBytes)
	srv := NewServer(fab, Options{Layout: layout.New(512), Part: part})
	cat, err := srv.Build(core.BuildSpec{
		N:  n,
		At: func(i int) (uint64, uint64) { return uint64(i), uint64(i) },
	})
	if err != nil {
		t.Fatal(err)
	}
	fab.SetHandler(srv.Handler())
	return srv, NewClient(fab.Endpoint(), direct.Env{}, cat)
}

func TestBuildDistributesByPartition(t *testing.T) {
	part := partition.NewRangeUniform(4, 1000)
	srv, c := deploy(t, part, 1000)
	live, err := srv.CheckInvariants()
	if err != nil {
		t.Fatal(err)
	}
	if live != 1000 {
		t.Fatalf("live = %d", live)
	}
	// Every key must be found through its partition's server.
	for _, k := range []uint64{0, 249, 250, 999} {
		vals, err := c.Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != 1 || vals[0] != k {
			t.Fatalf("Lookup(%d) = %v", k, vals)
		}
	}
}

func TestRangeOrderedUnderRangePartitioning(t *testing.T) {
	_, c := deploy(t, partition.NewRangeUniform(4, 2000), 2000)
	var prev uint64
	count := 0
	if err := c.Range(100, 1900, func(k, v uint64) bool {
		if count > 0 && k < prev {
			t.Fatalf("out of order: %d after %d", k, prev)
		}
		prev = k
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 1801 {
		t.Fatalf("count = %d", count)
	}
}

func TestRangeBroadcastUnderHashPartitioning(t *testing.T) {
	_, c := deploy(t, partition.NewHash(4), 2000)
	seen := map[uint64]bool{}
	if err := c.Range(100, 199, func(k, v uint64) bool {
		seen[k] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 100 {
		t.Fatalf("hash-partitioned range returned %d distinct keys; want 100", len(seen))
	}
}

func TestInsertDeleteRoundTrip(t *testing.T) {
	srv, c := deploy(t, partition.NewRangeUniform(2, 100), 100)
	if err := c.Insert(50, 5000); err != nil {
		t.Fatal(err)
	}
	vals, err := c.Lookup(50)
	if err != nil || len(vals) != 2 {
		t.Fatalf("lookup after insert: %v %v", vals, err)
	}
	ok, err := c.Delete(50, 5000)
	if err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	ok, err = c.Delete(50, 5000)
	if err != nil || ok {
		t.Fatalf("double delete: %v %v", ok, err)
	}
	if removed, err := srv.Compact(); err != nil || removed != 1 {
		t.Fatalf("compact removed %d err %v", removed, err)
	}
}

func TestEmptyPartition(t *testing.T) {
	// All keys land on server 0; servers 1..3 hold empty trees.
	part := partition.NewRangeWeighted(1000, 1, 1, 1, 1)
	fab := direct.New(4, 64<<20, nam.SuperblockBytes)
	srv := NewServer(fab, Options{Layout: layout.New(512), Part: part})
	cat, err := srv.Build(core.BuildSpec{
		N:  10,
		At: func(i int) (uint64, uint64) { return uint64(i), uint64(i) }, // all < 250
	})
	if err != nil {
		t.Fatal(err)
	}
	fab.SetHandler(srv.Handler())
	c := NewClient(fab.Endpoint(), direct.Env{}, cat)
	vals, err := c.Lookup(999) // routes to the empty server 3
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 0 {
		t.Fatalf("empty partition returned %v", vals)
	}
}

func TestWordsBytesRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 100} {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i * 7)
		}
		got := WordsToBytes(nam.PackBytes(b))
		if len(got) != n {
			t.Fatalf("len %d -> %d", n, len(got))
		}
		for i := range b {
			if got[i] != b[i] {
				t.Fatalf("byte %d differs", i)
			}
		}
	}
}

func TestCatalogViaRPC(t *testing.T) {
	fab := direct.New(2, 64<<20, nam.SuperblockBytes)
	srv := NewServer(fab, Options{Layout: layout.New(512), Part: partition.NewRangeUniform(2, 100)})
	if _, err := srv.Build(core.BuildSpec{N: 10, At: func(i int) (uint64, uint64) { return uint64(i), 0 }}); err != nil {
		t.Fatal(err)
	}
	fab.SetHandler(srv.Handler())
	ep := fab.Endpoint()
	resp, err := ep.Call(0, (&nam.Request{Op: nam.OpCatalog}).Encode())
	if err != nil {
		t.Fatal(err)
	}
	dec, err := nam.DecodeResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := nam.DecodeCatalog(WordsToBytes(dec.Pairs))
	if err != nil {
		t.Fatal(err)
	}
	if cat.Design != nam.CoarseGrained || cat.Servers != 2 {
		t.Fatalf("catalog: %+v", cat)
	}
}

func TestBadOpRejected(t *testing.T) {
	_, c := deploy(t, partition.NewRangeUniform(2, 100), 100)
	_ = c
	fab := direct.New(1, 1<<20, nam.SuperblockBytes)
	srv := NewServer(fab, Options{Layout: layout.New(512), Part: partition.NewRangeUniform(1, 10)})
	if _, err := srv.Init(); err != nil {
		t.Fatal(err)
	}
	fab.SetHandler(srv.Handler())
	resp, err := fab.Endpoint().Call(0, (&nam.Request{Op: 200}).Encode())
	if err != nil {
		t.Fatal(err)
	}
	dec, err := nam.DecodeResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if dec.AsError() == nil {
		t.Fatal("bad op accepted")
	}
}
