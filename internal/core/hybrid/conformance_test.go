package hybrid_test

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"github.com/namdb/rdmatree/internal/core"
	"github.com/namdb/rdmatree/internal/core/hybrid"
	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/partition"
	"github.com/namdb/rdmatree/internal/pipeline"
	"github.com/namdb/rdmatree/internal/policy"
	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/rdma/direct"
	"github.com/namdb/rdmatree/internal/rdma/tcpnet"
)

// The adaptive conformance scripts pin the policy-driven hybrid client
// byte-identical to both static strategies: whatever the decider returns —
// always RPC, always one-sided, or a forced flip mid-run — the same
// operation sequence must transcribe to the same results, serial and
// pipelined at in-flight 1 and 8, on the direct and tcpnet transports.
// Strategy only moves the upper-level descent between the traverse RPC and
// client-side fused reads of the same inner nodes; the B-link right-links
// make both reach the same leaf.

const confKeys = 5000

// flipDecider forces a strategy flip every `every` consultations — the
// scripted stand-in for an engine switching mid-run (and, pipelined,
// mid-pipeline: the flip lands inside a full submission window).
type flipDecider struct {
	n, every int
}

func (d *flipDecider) Strategy(int) policy.Strategy {
	d.n++
	if (d.n/d.every)%2 == 1 {
		return policy.StrategyOneSided
	}
	return policy.StrategyRPC
}

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
// window full within each section and draining at section boundaries.
// Results are transcribed in submission order.
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

// variants enumerates the decider configurations every transport is pinned
// across. A fresh decider is constructed per run (flipDecider is stateful).
var variants = []struct {
	name string
	dec  func() policy.Decider
}{
	{"none", func() policy.Decider { return nil }},
	{"static-rpc", func() policy.Decider { return policy.Static(policy.StrategyRPC) }},
	{"static-one-sided", func() policy.Decider { return policy.Static(policy.StrategyOneSided) }},
	{"flip", func() policy.Decider { return &flipDecider{every: 13} }},
}

func buildDirect(t *testing.T, servers int) (*direct.Fabric, *nam.Catalog) {
	t.Helper()
	fab := direct.New(servers, 64<<20, nam.SuperblockBytes)
	srv := hybrid.NewServer(fab, hybrid.Options{
		Layout: layout.New(512),
		Part:   partition.NewRangeUniform(servers, confKeys),
	})
	cat, err := srv.Build(fab.Endpoint(), core.BuildSpec{
		N:         confKeys,
		At:        func(i int) (uint64, uint64) { return uint64(i), uint64(i) },
		HeadEvery: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	fab.SetHandler(srv.Handler())
	return fab, cat
}

// TestAdaptiveConformanceDirect pins every decider variant — serial and
// pipelined at in-flight 1 and 8 — to the undecided serial baseline on the
// direct transport.
func TestAdaptiveConformanceDirect(t *testing.T) {
	fab, cat := buildDirect(t, 4)
	baseline := driveSerial(t, hybrid.NewClient(fab.Endpoint(), direct.Env{}, cat, 0))

	for _, v := range variants {
		fab, cat := buildDirect(t, 4)
		c := hybrid.NewClient(fab.Endpoint(), direct.Env{}, cat, 0)
		c.SetDecider(v.dec())
		if got := driveSerial(t, c); got != baseline {
			t.Errorf("serial %s diverged from baseline:\nbaseline:\n%s\ngot:\n%s", v.name, baseline, got)
		}
		for _, inflight := range []int{1, 8} {
			fab, cat := buildDirect(t, 4)
			c := hybrid.NewClient(fab.Endpoint(), direct.Env{}, cat, 0)
			c.SetDecider(v.dec())
			if got := drivePipelined(t, c.Pipeline(inflight)); got != baseline {
				t.Errorf("pipelined %s in-flight %d diverged from baseline:\nbaseline:\n%s\ngot:\n%s",
					v.name, inflight, baseline, got)
			}
		}
	}
}

// TestAdaptiveConformanceTCP repeats the pin over real TCP connections to
// in-process memory-server agents, the deployment model of cmd/namserver:
// one hybrid.Server per agent over its SingleServerFabric.
func TestAdaptiveConformanceTCP(t *testing.T) {
	const servers = 2
	spec := core.BuildSpec{
		N:         2000,
		At:        func(i int) (uint64, uint64) { return uint64(i), uint64(i) },
		HeadEvery: 8,
	}
	deploy := func() (*nam.Catalog, []string) {
		var addrs []string
		var hss []*hybrid.Server
		for i := 0; i < servers; i++ {
			srv := rdma.NewServer(i, 64<<20, nam.SuperblockBytes)
			hs := hybrid.NewServer(&rdma.SingleServerFabric{Srv: srv, Total: servers}, hybrid.Options{
				Layout: layout.New(512),
				Part:   partition.NewRangeUniform(servers, 2000),
			})
			agent := tcpnet.NewAgent(srv, hs.Handler())
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addrs = append(addrs, l.Addr().String())
			go agent.Serve(l)
			t.Cleanup(agent.Close)
			hss = append(hss, hs)
		}
		setup := tcpnet.Dial(addrs)
		for i, hs := range hss {
			if err := hs.BuildServer(setup, i, spec); err != nil {
				t.Fatal(err)
			}
		}
		setup.Close()
		return hss[0].Catalog(), addrs
	}
	dial := func(addrs []string) rdma.Endpoint {
		ep := tcpnet.Dial(addrs)
		t.Cleanup(ep.Close)
		return ep
	}

	cat, addrs := deploy()
	baseline := driveSerial(t, hybrid.NewClient(dial(addrs), rdma.NopEnv{}, cat, 0))

	for _, v := range variants {
		cat, addrs := deploy()
		c := hybrid.NewClient(dial(addrs), rdma.NopEnv{}, cat, 0)
		c.SetDecider(v.dec())
		if got := driveSerial(t, c); got != baseline {
			t.Errorf("TCP serial %s diverged:\nbaseline:\n%s\ngot:\n%s", v.name, baseline, got)
		}
		for _, inflight := range []int{1, 8} {
			cat, addrs := deploy()
			c := hybrid.NewClient(dial(addrs), rdma.NopEnv{}, cat, 0)
			c.SetDecider(v.dec())
			if got := drivePipelined(t, c.Pipeline(inflight)); got != baseline {
				t.Errorf("TCP pipelined %s in-flight %d diverged:\nbaseline:\n%s\ngot:\n%s",
					v.name, inflight, baseline, got)
			}
		}
	}
}
