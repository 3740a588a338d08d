package faultnet_test

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"github.com/namdb/rdmatree/internal/core"
	"github.com/namdb/rdmatree/internal/core/fine"
	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/rdma/direct"
	"github.com/namdb/rdmatree/internal/rdma/faultnet"
	"github.com/namdb/rdmatree/internal/rdma/rdmatest"
	"github.com/namdb/rdmatree/internal/rdma/retry"
	"github.com/namdb/rdmatree/internal/rdma/tcpnet"
	"github.com/namdb/rdmatree/internal/workload"
)

// driveIndex runs a fixed mixed script against idx and returns a transcript
// of every result, so two runs can be compared byte for byte.
func driveIndex(t *testing.T, idx core.Index) string {
	t.Helper()
	var b strings.Builder
	for k := uint64(0); k < 400; k += 7 {
		vals, err := idx.Lookup(k)
		fmt.Fprintf(&b, "get %d -> %v %v\n", k, vals, err)
	}
	for k := uint64(1000); k < 1050; k++ {
		fmt.Fprintf(&b, "put %d %v\n", k, idx.Insert(k, k*3))
	}
	for k := uint64(1000); k < 1020; k++ {
		ok, err := idx.Delete(k, k*3)
		fmt.Fprintf(&b, "del %d %v %v\n", k, ok, err)
	}
	err := idx.Range(50, 90, func(k, v uint64) bool {
		fmt.Fprintf(&b, "scan %d %d\n", k, v)
		return true
	})
	fmt.Fprintf(&b, "range %v\n", err)
	return b.String()
}

// stack wraps ep the way the chaos harness does — fault injection under the
// shared retry policy — with a zero (fault-free) schedule.
func stack(ep rdma.Endpoint) rdma.Endpoint {
	n := faultnet.New(faultnet.Schedule{}, nil)
	return retry.Wrap(n.Endpoint(ep, 0), &retry.Policy{})
}

// TestAllocMidBatch pins the blocking-Alloc-between-posts rule of the
// rdma.AsyncEndpoint contract through the fault decorator: posted verbs are
// gated at Post time and forwarded to the inner async surface, and a blocking
// Alloc in between is an independent gated verb.
func TestAllocMidBatch(t *testing.T) {
	fab := direct.New(2, 1<<16, 128)
	ep := faultnet.New(faultnet.Schedule{}, nil).Endpoint(fab.Endpoint(), 0)
	rdmatest.AllocMidBatch(t, ep, rdma.MakePtr(0, 256), 1)
}

// TestConformanceDirect checks that a fault-free faultnet (and the retry
// decorator over it) is functionally invisible on the direct transport: the
// same operation script produces a byte-identical transcript with and
// without the robustness stack.
func TestConformanceDirect(t *testing.T) {
	build := func() (*direct.Fabric, *nam.Catalog) {
		fab := direct.New(2, 64<<20, nam.SuperblockBytes)
		cat, err := fine.Build(fab.Endpoint(), fine.Options{Layout: layout.New(512)},
			core.BuildSpec{N: 5000, At: workload.DataItem, HeadEvery: 16})
		if err != nil {
			t.Fatal(err)
		}
		return fab, cat
	}
	fab, cat := build()
	plain := driveIndex(t, fine.NewClient(fab.Endpoint(), direct.Env{}, cat, 0))

	fab2, cat2 := build()
	wrapped := driveIndex(t, fine.NewClient(stack(fab2.Endpoint()), direct.Env{}, cat2, 0))

	if plain != wrapped {
		t.Fatalf("fault-free stack diverged:\nplain:\n%s\nwrapped:\n%s", plain, wrapped)
	}
}

// TestConformanceTCP repeats the invisibility check over real TCP
// connections to in-process memory-server agents.
func TestConformanceTCP(t *testing.T) {
	runScript := func(wrap bool) string {
		var addrs []string
		for i := 0; i < 2; i++ {
			srv := rdma.NewServer(i, 64<<20, nam.SuperblockBytes)
			agent := tcpnet.NewAgent(srv, nil)
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addrs = append(addrs, l.Addr().String())
			go agent.Serve(l)
			t.Cleanup(agent.Close)
		}
		setup := tcpnet.Dial(addrs)
		cat, err := fine.Build(setup, fine.Options{Layout: layout.New(1024)},
			core.BuildSpec{N: 2000, At: workload.DataItem, HeadEvery: 16})
		setup.Close()
		if err != nil {
			t.Fatal(err)
		}
		tep := tcpnet.Dial(addrs)
		t.Cleanup(tep.Close)
		var ep rdma.Endpoint = tep
		if wrap {
			ep = stack(tep)
		}
		return driveIndex(t, fine.NewClient(ep, rdma.NopEnv{}, cat, 0))
	}

	plain := runScript(false)
	wrapped := runScript(true)
	if plain != wrapped {
		t.Fatalf("fault-free stack diverged over TCP:\nplain:\n%s\nwrapped:\n%s", plain, wrapped)
	}
}
