package pipeline_test

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"github.com/namdb/rdmatree/internal/core"
	"github.com/namdb/rdmatree/internal/core/fine"
	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/pipeline"
	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/rdma/direct"
	"github.com/namdb/rdmatree/internal/rdma/tcpnet"
	"github.com/namdb/rdmatree/internal/workload"
)

// The conformance scripts pin the pipelined dataplane to the serial fused
// client: the same operation sequence must produce byte-identical results
// whether it runs blocking one-at-a-time or through the engine with 1 or 8
// operations in flight. Results are transcribed in submission order (the
// engine completes operations in protocol order, so the scripts index
// results by operation, not by completion).

// driveSerial runs the fixed script against a serial client.
func driveSerial(t *testing.T, idx core.Index) string {
	t.Helper()
	var b strings.Builder
	for k := uint64(0); k < 600; k += 7 {
		vals, err := idx.Lookup(k)
		fmt.Fprintf(&b, "get %d -> %v %v\n", k, vals, err)
	}
	for k := uint64(2000); k < 2080; k++ {
		fmt.Fprintf(&b, "put %d %v\n", k, idx.Insert(k, k*3))
	}
	for k := uint64(2000); k < 2030; k++ {
		ok, err := idx.Delete(k, k*3)
		fmt.Fprintf(&b, "del %d %v %v\n", k, ok, err)
	}
	for k := uint64(1990); k < 2090; k += 3 {
		vals, err := idx.Lookup(k)
		fmt.Fprintf(&b, "chk %d -> %v %v\n", k, vals, err)
	}
	return b.String()
}

// drivePipelined runs the same script through the async surface, keeping the
// engine's submission window full within each script section and draining at
// section boundaries (the serial script's sections are order-dependent:
// inserts must land before the deletes that target them).
func drivePipelined(t *testing.T, c *pipeline.Engine) string {
	t.Helper()
	type getRes struct {
		vals []uint64
		err  error
	}
	var gets []getRes
	var getKeys []uint64
	submitGet := func(k uint64) {
		i := len(gets)
		gets = append(gets, getRes{})
		getKeys = append(getKeys, k)
		c.Lookup(k, func(vals []uint64, err error) {
			// vals aliases engine scratch: copy before the callback returns.
			gets[i] = getRes{vals: append([]uint64(nil), vals...), err: err}
		})
	}

	var b strings.Builder
	for k := uint64(0); k < 600; k += 7 {
		submitGet(k)
	}
	c.Drain()
	for i, r := range gets {
		fmt.Fprintf(&b, "get %d -> %v %v\n", getKeys[i], r.vals, r.err)
	}

	putErrs := make([]error, 80)
	for i := range putErrs {
		i := i
		k := uint64(2000 + i)
		c.Insert(k, k*3, func(err error) { putErrs[i] = err })
	}
	c.Drain()
	for i, err := range putErrs {
		fmt.Fprintf(&b, "put %d %v\n", 2000+i, err)
	}

	type delRes struct {
		ok  bool
		err error
	}
	delRess := make([]delRes, 30)
	for i := range delRess {
		i := i
		k := uint64(2000 + i)
		c.Delete(k, k*3, func(ok bool, err error) { delRess[i] = delRes{ok, err} })
	}
	c.Drain()
	for i, r := range delRess {
		fmt.Fprintf(&b, "del %d %v %v\n", 2000+i, r.ok, r.err)
	}

	gets, getKeys = nil, nil
	for k := uint64(1990); k < 2090; k += 3 {
		submitGet(k)
	}
	c.Drain()
	for i, r := range gets {
		fmt.Fprintf(&b, "chk %d -> %v %v\n", getKeys[i], r.vals, r.err)
	}
	return b.String()
}

// TestConformanceDirect pins pipelined == serial on the direct transport at
// in-flight depths 1 and 8.
func TestConformanceDirect(t *testing.T) {
	build := func() (*direct.Fabric, *nam.Catalog) {
		fab := direct.New(3, 64<<20, nam.SuperblockBytes)
		cat, err := fine.Build(fab.Endpoint(), fine.Options{Layout: layout.New(512)},
			core.BuildSpec{N: 5000, At: workload.DataItem, HeadEvery: 16})
		if err != nil {
			t.Fatal(err)
		}
		return fab, cat
	}
	fab, cat := build()
	serial := driveSerial(t, fine.NewClient(fab.Endpoint(), direct.Env{}, cat, 0))

	for _, inflight := range []int{1, 8} {
		fab, cat := build()
		pipelined := drivePipelined(t, fine.NewClient(fab.Endpoint(), direct.Env{}, cat, 0).Pipeline(inflight))
		if serial != pipelined {
			t.Errorf("in-flight %d diverged from serial:\nserial:\n%s\npipelined:\n%s",
				inflight, serial, pipelined)
		}
	}
}

// TestConformanceTCP repeats the pin over real TCP connections to in-process
// memory-server agents — the transport whose native async surface actually
// interleaves wire traffic of different in-flight operations.
func TestConformanceTCP(t *testing.T) {
	run := func(inflight int) string {
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
		ep := tcpnet.Dial(addrs)
		t.Cleanup(ep.Close)
		if inflight == 0 {
			return driveSerial(t, fine.NewClient(ep, rdma.NopEnv{}, cat, 0))
		}
		return drivePipelined(t, fine.NewClient(ep, rdma.NopEnv{}, cat, 0).Pipeline(inflight))
	}

	serial := run(0)
	for _, inflight := range []int{1, 8} {
		if pipelined := run(inflight); serial != pipelined {
			t.Errorf("in-flight %d diverged from serial over TCP:\nserial:\n%s\npipelined:\n%s",
				inflight, serial, pipelined)
		}
	}
}
