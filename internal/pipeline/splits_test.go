package pipeline_test

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"testing"

	"github.com/namdb/rdmatree/internal/core"
	"github.com/namdb/rdmatree/internal/core/fine"
	"github.com/namdb/rdmatree/internal/deploy"
	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/rdma/direct"
	"github.com/namdb/rdmatree/internal/rdma/repl"
	"github.com/namdb/rdmatree/internal/rdma/tcpnet"
)

// splitPage is a page size small enough (4 leaf entries, 5 inner pairs)
// that a few hundred inserts into an empty tree exercise every structural
// path: leaf splits, inner splits, repeated root growth, and a duplicate
// run spanning several leaves.
const splitPage = 128

// dupKey is the key of splitScript's duplicate run.
const dupKey = 500

// splitScript is the insert sequence of the split tests: scrambled unique
// keys so splits land all over the tree, a run of duplicates three leaves
// long, then dense keys around the run. Every value is unique.
func splitScript() [][2]uint64 {
	var ops [][2]uint64
	for i := uint64(0); i < 300; i++ {
		k := i * 7919 % 1000
		ops = append(ops, [2]uint64{k, k<<8 | 1})
	}
	for i := uint64(0); i < 13; i++ {
		ops = append(ops, [2]uint64{dupKey, 1<<32 | i})
	}
	for k := uint64(490); k < 530; k++ {
		ops = append(ops, [2]uint64{k, k<<8 | 2})
	}
	return ops
}

// splitCluster is one fresh deployment of an empty fine-grained index.
type splitCluster struct {
	ep  rdma.Endpoint
	cat *nam.Catalog
}

func splitOnDirect(t *testing.T) splitCluster {
	t.Helper()
	fab := direct.New(3, 4<<20, nam.SuperblockBytes)
	cat, err := fine.Build(fab.Endpoint(), fine.Options{Layout: layout.New(splitPage)}, core.BuildSpec{})
	if err != nil {
		t.Fatal(err)
	}
	return splitCluster{fab.Endpoint(), cat}
}

func splitOnTCP(t *testing.T) splitCluster {
	t.Helper()
	var addrs []string
	for i := 0; i < 2; i++ {
		agent := tcpnet.NewAgent(rdma.NewServer(i, 4<<20, nam.SuperblockBytes), nil)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, l.Addr().String())
		go agent.Serve(l)
		t.Cleanup(agent.Close)
	}
	ep := tcpnet.Dial(addrs)
	t.Cleanup(ep.Close)
	cat, err := fine.Build(ep, fine.Options{Layout: layout.New(splitPage)}, core.BuildSpec{})
	if err != nil {
		t.Fatal(err)
	}
	return splitCluster{ep, cat}
}

// insertAll runs the script serially (inflight 0) or through the engine.
func (c splitCluster) insertAll(t *testing.T, inflight int) {
	t.Helper()
	ops := splitScript()
	if inflight == 0 {
		cl := fine.NewClient(c.ep, rdma.NopEnv{}, c.cat, 0)
		for _, op := range ops {
			if err := cl.Insert(op[0], op[1]); err != nil {
				t.Fatalf("serial insert %v: %v", op, err)
			}
		}
		return
	}
	pc := fine.NewPipelinedClient(c.ep, rdma.NopEnv{}, c.cat, 0, inflight)
	acks := make([]int, len(ops))
	for i, op := range ops {
		i := i
		pc.Insert(op[0], op[1], func(err error) {
			if err != nil {
				t.Errorf("pipelined insert %v: %v", ops[i], err)
			}
			acks[i]++
		})
	}
	pc.Drain()
	for i, n := range acks {
		if n != 1 {
			t.Fatalf("insert %v acked %d times", ops[i], n)
		}
	}
}

// pages dumps every page reachable from the root, level by level from the
// leftmost node along the sibling links, as "ptr: words" lines.
func (c splitCluster) pages(t *testing.T) (dump string, height int) {
	t.Helper()
	l := layout.New(c.cat.PageBytes)
	word := make([]uint64, 1)
	if err := c.ep.Read(c.cat.RootWords[0], word); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	buf := make([]uint64, l.Words)
	for first := rdma.RemotePtr(word[0]); ; height++ {
		var below rdma.RemotePtr
		for p := first; !p.IsNull(); {
			if err := c.ep.Read(p, buf); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%v: %x\n", p, buf)
			n := l.Wrap(buf)
			if p == first && !n.IsLeaf() {
				below = n.InnerChild(0)
			}
			p = n.Right()
		}
		if below.IsNull() {
			return b.String(), height + 1
		}
		first = below
	}
}

// contents returns the index's sorted (key, value) pairs after checking the
// tree's structural invariants.
func (c splitCluster) contents(t *testing.T) []string {
	t.Helper()
	cl := fine.NewClient(c.ep, rdma.NopEnv{}, c.cat, 0)
	if _, err := cl.Tree().CheckInvariants(rdma.NopEnv{}); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	var kvs []string
	if err := cl.Range(0, 1<<40, func(k, v uint64) bool {
		kvs = append(kvs, fmt.Sprintf("%d=%x", k, v))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(kvs)
	if want := len(splitScript()); len(kvs) != want {
		t.Fatalf("index holds %d entries, want %d", len(kvs), want)
	}
	dups, err := cl.Lookup(dupKey)
	if err != nil || len(dups) != 14 {
		t.Fatalf("duplicate run: %d values (%v), want 14", len(dups), err)
	}
	return kvs
}

// TestSplitsAsStepsMatchSerial pins the pipelined split, separator-install
// and root-growth steps to the serial Tree.Insert: at one operation in
// flight both build byte-identical pages (same placement, same versions,
// same separators); at eight in flight, where splits of different slots
// interleave, the contents match and the tree verifies.
func TestSplitsAsStepsMatchSerial(t *testing.T) {
	for name, deploy := range map[string]func(*testing.T) splitCluster{
		"direct": splitOnDirect,
		"tcpnet": splitOnTCP,
	} {
		t.Run(name, func(t *testing.T) {
			serial := deploy(t)
			serial.insertAll(t, 0)
			serialPages, height := serial.pages(t)
			if height < 4 {
				t.Fatalf("script grew the tree to height %d; want >= 4 (inner splits and repeated root growth)", height)
			}
			serialKVs := serial.contents(t)

			one := deploy(t)
			one.insertAll(t, 1)
			if got, _ := one.pages(t); got != serialPages {
				t.Errorf("in-flight 1 pages differ from serial:\nserial:\n%s\npipelined:\n%s", serialPages, got)
			}

			eight := deploy(t)
			eight.insertAll(t, 8)
			if got := eight.contents(t); strings.Join(got, " ") != strings.Join(serialKVs, " ") {
				t.Errorf("in-flight 8 contents differ from serial")
			}
		})
	}
}

// TestSplitsAsStepsMirror runs the split script through a pipelined fine
// client whose tree mirrors to k=2 backups (repl.Mirrorer): the pages every
// step publishes, the fresh split halves and grown roots, and the root word
// all reach the backups, which end byte-identical to their primaries.
func TestSplitsAsStepsMirror(t *testing.T) {
	const servers = 3
	fab := direct.New(servers, 4<<20, nam.SuperblockBytes)
	dep, err := deploy.Build(fab, fab.Endpoint(), deploy.Options{
		Design: nam.FineGrained, PageBytes: splitPage, Replicas: 2,
	}, core.BuildSpec{})
	if err != nil {
		t.Fatal(err)
	}
	lay := dep.Catalog.Layout()
	pc := fine.NewPipelinedClient(fab.Endpoint(), rdma.NopEnv{}, dep.Catalog, 0, 8)
	pc.Tree().Repl = repl.NewMirrorer(repl.NewRouter(fab.Endpoint(), lay, nil, nil), rdma.NopEnv{}, nil)
	for _, op := range splitScript() {
		op := op
		pc.Insert(op[0], op[1], func(err error) {
			if err != nil {
				t.Errorf("pipelined insert %v: %v", op, err)
			}
		})
	}
	pc.Drain()
	c := splitCluster{fab.Endpoint(), dep.Catalog}
	if _, height := c.pages(t); height < 4 {
		t.Fatalf("script grew the tree to height %d; want >= 4 (inner splits and repeated root growth)", height)
	}
	c.contents(t)
	for h := 0; h < servers; h++ {
		for _, m := range lay.Groups.Members(h)[1:] {
			if d := repl.DiffExtent(lay, h, fab.Server(h), fab.Server(m), fab.Server); d != 0 {
				t.Errorf("group %d: backup %d differs from the primary in %d words", h, m, d)
			}
		}
	}
}
