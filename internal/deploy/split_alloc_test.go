//go:build !race

package deploy_test

import (
	"testing"

	"github.com/namdb/rdmatree/internal/core"
	"github.com/namdb/rdmatree/internal/deploy"
	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/partition"
	"github.com/namdb/rdmatree/internal/rdma/direct"
)

// TestSplitInsertAllocs pins the allocations of an insert that splits its
// leaf, on each design's serial client. The preload fills every leaf
// (Fill 1), and the walk visits one full leaf per insert: the partitions in
// turn, each from its first leaf onward. Inner nodes are full too, so some
// inserts split an inner node as well; that allocates nothing more.
//
// The race detector drops a quarter of sync.Pool's Puts, and a hybrid split
// insert takes two handler tree handles from the pool (TestPointOpAllocs'
// rows take one), so under -race its mean gains a whole allocation: the
// test runs in the plain build only.
func TestSplitInsertAllocs(t *testing.T) {
	leafCap := layout.New(512).LeafCap // the keys of a full leaf
	full := core.BuildSpec{N: keyspace / 2, At: func(i int) (uint64, uint64) { return 2 * uint64(i), uint64(i) }, Fill: 1}
	// Each partition's leaves start at its first key's slot and hold
	// leafCap keys each, all but its last full; key 2s+1 lands in the leaf
	// of slot s.
	part := partition.NewRangeUniform(servers, keyspace)
	var starts []int
	for s := 0; s < full.N; s++ {
		if s == 0 || part.Server(2*uint64(s)) != part.Server(2*uint64(s-1)) {
			starts = append(starts, s)
		}
	}
	splitKey := func(i int) uint64 { return 2*uint64(starts[i%servers]+leafCap*(i/servers)) + 1 }
	for _, c := range []struct {
		design nam.Design
		insert float64
	}{
		{nam.CoarseGrained, 1}, // the handler's response encode
		{nam.Hybrid, 3},        // a roomy insert's 1, and 2 for the split and its install RPC
		{nam.FineGrained, 0},
	} {
		t.Run(c.design.Name(), func(t *testing.T) {
			fab, dep := buildSpec(t, c.design, 0, full)
			cl, err := dep.Client(deploy.ClientOptions{Ep: fab.Endpoint(), Env: direct.Env{}})
			if err != nil {
				t.Fatal(err)
			}
			pages := func() (n uint64) {
				for s := 0; s < servers; s++ {
					n += fab.Server(s).Alloc.Used() / 512
				}
				return n
			}
			p0, i := pages(), 0
			got := testing.AllocsPerRun(1000, func() {
				if err := cl.Serial.Insert(splitKey(i), uint64(i)); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if got > c.insert {
				t.Errorf("split Insert: %v allocs per call, want <= %v", got, c.insert)
			}
			if split := pages() - p0; split < uint64(i) {
				t.Fatalf("%d inserts allocated %d pages: not every insert split", i, split)
			}
		})
	}
}
