package btree

import (
	"net"
	"testing"

	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/rdma/tcpnet"
)

// verbCounter counts the blocking verbs and the write doorbells a tcpnet
// endpoint is asked for.
type verbCounter struct {
	*tcpnet.Endpoint
	allocs, reads, writes, posted, doorbells int
}

func (c *verbCounter) Alloc(server int, n int) (rdma.RemotePtr, error) {
	c.allocs++
	return c.Endpoint.Alloc(server, n)
}

func (c *verbCounter) Read(p rdma.RemotePtr, dst []uint64) error {
	c.reads++
	return c.Endpoint.Read(p, dst)
}

func (c *verbCounter) ReadMulti(ps []rdma.RemotePtr, dst [][]uint64) error {
	c.reads++
	return c.Endpoint.ReadMulti(ps, dst)
}

func (c *verbCounter) Write(p rdma.RemotePtr, src []uint64) error {
	c.writes++
	return c.Endpoint.Write(p, src)
}

func (c *verbCounter) PostWrite(p rdma.RemotePtr, src []uint64) rdma.Token {
	c.posted++
	return c.Endpoint.PostWrite(p, src)
}

func (c *verbCounter) Flush() {
	c.doorbells++
	c.Endpoint.Flush()
}

// TestBuildRoundTrips pins the round trips of a bulk load over the one real
// wire: one RDMA_ALLOC per server and level, one write doorbell per
// buildBatch pages, one blocking WRITE for the root word, and no READ — also
// when the input ends on a head-group boundary, where the last leaf is
// followed by a head that announces nothing.
func TestBuildRoundTrips(t *testing.T) {
	const servers = 3
	var addrs []string
	for i := 0; i < servers; i++ {
		agent := tcpnet.NewAgent(rdma.NewServer(i, 4<<20, 64), nil)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go agent.Serve(ln)
		t.Cleanup(agent.Close)
		addrs = append(addrs, ln.Addr().String())
	}
	l := layout.New(512)
	for i, tc := range []struct {
		name string
		n    int
	}{
		// 26 keys per leaf at the default fill: 77 leaves and 19 heads on
		// level 0, three inner nodes on level 1, the root on level 2.
		{"2000 keys", 2000},
		// 76 leaves: the input ends where the 19th group does.
		{"group boundary", 1976},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ep := &verbCounter{Endpoint: tcpnet.Dial(addrs)}
			defer ep.Close()
			tr := New(l, &EndpointMem{Ep: ep, Place: RoundRobin(servers, 0)}, rdma.MakePtr(0, uint64(8*i)))
			bs, err := tr.Build(env, BuildConfig{HeadEvery: 4}, tc.n,
				func(i int) (uint64, uint64) { return uint64(i * 2), uint64(i) })
			if err != nil {
				t.Fatal(err)
			}
			if bs.Heads != 19 || bs.Inner != 4 || bs.Height != 3 {
				t.Fatalf("shape %+v; want 19 heads and 4 inner nodes over 3 levels", bs)
			}
			pages := bs.Leaves + bs.Heads + bs.Inner
			wantDoorbells := (pages + buildBatch - 1) / buildBatch
			if ep.allocs != servers+servers+1 || ep.doorbells != wantDoorbells || ep.posted != pages ||
				ep.writes != 1 || ep.reads != 0 {
				t.Errorf("%d pages cost %d allocs, %d doorbells of %d writes, %d blocking writes, %d reads; "+
					"want %d, %d of %d, 1, 0", pages, ep.allocs, ep.doorbells, ep.posted, ep.writes, ep.reads,
					2*servers+1, wantDoorbells, pages)
			}
			live, err := tr.CheckInvariants(env)
			if err != nil {
				t.Fatal(err)
			}
			if live != tc.n {
				t.Fatalf("live = %d; want %d", live, tc.n)
			}
			k := uint64(2 * (tc.n - 1))
			if vals, _, err := tr.Lookup(env, k); err != nil || len(vals) != 1 || vals[0] != uint64(tc.n-1) {
				t.Fatalf("lookup of the last key %d: %v %v", k, vals, err)
			}
		})
	}
}

// allocEndpoint serves only RDMA_ALLOC, from one bump allocator per server,
// and records the size of every call.
type allocEndpoint struct {
	rdma.Endpoint // nil: AllocPages uses Alloc and NumServers only
	allocs        []*rdma.Allocator
	sizes         []int
}

func newAllocEndpoint(servers int) *allocEndpoint {
	e := &allocEndpoint{}
	for i := 0; i < servers; i++ {
		e.allocs = append(e.allocs, rdma.NewAllocator(64, 1<<40))
	}
	return e
}

func (e *allocEndpoint) NumServers() int { return len(e.allocs) }

func (e *allocEndpoint) Alloc(server int, n int) (rdma.RemotePtr, error) {
	e.sizes = append(e.sizes, n)
	off, err := e.allocs[server].Alloc(n)
	return rdma.MakePtr(server, off), err
}

// TestAllocPagesMatchesOnePageCalls checks that a multi-page reservation
// places every page where one call per page would, also when a server's
// share spans several extents: pages of 256 MiB + 4 bytes (an 8-byte-rounded
// block of 256 MiB + 8) fit three to a 1 GiB extent, so eleven pages over two
// servers take four extents.
func TestAllocPagesMatchesOnePageCalls(t *testing.T) {
	const (
		servers = 2
		pages   = 11
		n       = 256<<20 + 4
	)
	batched, single := newAllocEndpoint(servers), newAllocEndpoint(servers)
	got := make([]rdma.RemotePtr, pages)
	if err := (&EndpointMem{Ep: batched, Place: RoundRobin(servers, 1)}).AllocPages(2, n, got); err != nil {
		t.Fatal(err)
	}
	one := &EndpointMem{Ep: single, Place: RoundRobin(servers, 1)}
	for i := range got {
		var want [1]rdma.RemotePtr
		if err := one.AllocPages(2, n, want[:]); err != nil {
			t.Fatal(err)
		}
		if got[i] != want[0] {
			t.Errorf("page %d at %v; one call per page puts it at %v", i, got[i], want[0])
		}
	}
	for s := 0; s < servers; s++ {
		if b, o := batched.allocs[s].Watermark(), single.allocs[s].Watermark(); b != o {
			t.Errorf("server %d watermark %d; one call per page leaves %d", s, b, o)
		}
	}
	if len(batched.sizes) != 4 {
		t.Errorf("%d allocs of %v bytes; want 4 extents", len(batched.sizes), batched.sizes)
	}
	for _, size := range batched.sizes {
		if size > maxExtentBytes {
			t.Errorf("extent of %d bytes exceeds %d", size, maxExtentBytes)
		}
	}
}
