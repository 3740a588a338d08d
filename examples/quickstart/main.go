// Quickstart: build a distributed tree index on an in-process NAM cluster
// and query it through all three designs of the paper.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"github.com/namdb/rdmatree/internal/core"
	"github.com/namdb/rdmatree/internal/deploy"
	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/partition"
	"github.com/namdb/rdmatree/internal/rdma/direct"
)

func main() {
	if err := run(os.Stdout, 100_000); err != nil {
		log.Fatal(err)
	}
}

// run deploys each design over numKeys keys and demonstrates it on w.
func run(w io.Writer, numKeys int) error {
	const (
		servers  = 4
		pageSize = 1024
	)
	// The initial data set: monotonically increasing keys, value = key*10.
	spec := core.BuildSpec{
		N:         numKeys,
		At:        func(i int) (uint64, uint64) { return uint64(i), uint64(i) * 10 },
		HeadEvery: 32,
	}
	l := layout.New(pageSize)

	fmt.Fprintf(w, "NAM cluster: %d memory servers, %d keys, %dB pages (fanout %d, leaf capacity %d)\n\n",
		servers, numKeys, pageSize, l.InnerCap, l.LeafCap)

	designs := []struct {
		design nam.Design
		name   string
	}{
		{nam.CoarseGrained, "coarse-grained (partitioned trees, RPC access)"},
		{nam.FineGrained, "fine-grained (global tree, one-sided verbs only)"},
		{nam.Hybrid, "hybrid (RPC traversal, one-sided leaves)"},
	}
	for _, d := range designs {
		// One in-process cluster per design: the bulk load writes the
		// index into the servers' regions, and the coarse-grained and
		// hybrid designs install their RPC handlers.
		fab := direct.New(servers, 64<<20, nam.SuperblockBytes)
		dep, err := deploy.Build(fab, fab.Endpoint(), deploy.Options{
			Design:    d.design,
			PageBytes: pageSize,
			Part:      partition.NewRangeUniform(servers, uint64(numKeys)),
		}, spec)
		if err != nil {
			return err
		}
		cl, err := dep.Client(deploy.ClientOptions{Ep: fab.Endpoint(), Env: direct.Env{}})
		if err != nil {
			return err
		}
		if err := demo(w, d.name, cl.Serial); err != nil {
			return err
		}
	}
	return nil
}

// demo exercises the shared Index interface.
func demo(w io.Writer, name string, idx core.Index) error {
	fmt.Fprintln(w, "##", name)

	vals, err := idx.Lookup(4242)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  Lookup(4242)            = %v\n", vals)

	if err := idx.Insert(4242, 99999); err != nil { // non-unique: a second value under the same key
		return err
	}
	if vals, err = idx.Lookup(4242); err != nil {
		return err
	}
	fmt.Fprintf(w, "  after Insert(4242)      = %v\n", vals)

	ok, err := idx.Delete(4242, 99999)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  Delete(4242, 99999)     = %v\n", ok)

	sum, count := uint64(0), 0
	if err := idx.Range(1000, 1009, func(k, v uint64) bool {
		sum += v
		count++
		return true
	}); err != nil {
		return err
	}
	fmt.Fprintf(w, "  Range[1000,1009]        = %d entries, value sum %d\n\n", count, sum)
	return nil
}
