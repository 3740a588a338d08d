package core_test

import (
	"testing"

	"github.com/namdb/rdmatree/internal/core"
	"github.com/namdb/rdmatree/internal/core/coarse"
	"github.com/namdb/rdmatree/internal/core/fine"
	"github.com/namdb/rdmatree/internal/core/hybrid"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/rdma/direct"
)

// TestRangeEndingOnSplitDuplicates splits a run of duplicate keys across
// leaf boundaries, so a leaf's inclusive fence equals the duplicated key and
// its right sibling holds more copies, then scans ranges that end on that
// key. A scan may stop only at a fence past its end key: stopping at a fence
// equal to it loses the copies the split moved right.
func TestRangeEndingOnSplitDuplicates(t *testing.T) {
	const (
		preload  = 2000
		keyspace = 4000
		dup      = 2001 // odd: not a preloaded key
		copies   = 150  // several 512-byte leaves' worth
	)
	spec := core.BuildSpec{
		N:         preload,
		At:        func(i int) (uint64, uint64) { return uint64(i * 2), uint64(i) },
		HeadEvery: 4, // head nodes on the chain: scans step over them past a fence
	}
	for _, cl := range deployAll(t, spec, keyspace) {
		cl := cl
		t.Run(cl.name, func(t *testing.T) {
			idx := cl.mk(0)
			for v := uint64(1); v <= copies; v++ {
				if err := idx.Insert(dup, v); err != nil {
					t.Fatalf("insert copy %d: %v", v, err)
				}
			}
			if n, err := cl.check(); err != nil {
				t.Fatalf("invariants (%d): %v", n, err)
			}
			var pc interface {
				Range(lo, hi uint64, emit func(k, v uint64) bool) error
			}
			switch cl.cat.Design {
			case nam.FineGrained:
				pc = fine.NewClient(cl.fab.Endpoint(), direct.Env{}, cl.cat, 1).Pipeline(8)
			case nam.CoarseGrained:
				pc = coarse.NewClient(cl.fab.Endpoint(), direct.Env{}, cl.cat).Pipeline(8)
			default:
				pc = hybrid.NewClient(cl.fab.Endpoint(), direct.Env{}, cl.cat, 1).Pipeline(8)
			}
			clients := map[string]func(lo, hi uint64, emit func(k, v uint64) bool) error{
				"serial":    idx.Range,
				"pipelined": pc.Range,
			}
			for mode, scan := range clients {
				for _, lo := range []uint64{dup - 9, dup, 0} {
					got := 0
					if err := scan(lo, dup, func(k, _ uint64) bool {
						if k == dup {
							got++
						}
						return true
					}); err != nil {
						t.Fatalf("%s scan [%d, %d]: %v", mode, lo, dup, err)
					}
					if got != copies {
						t.Errorf("%s scan [%d, %d] returned %d copies of %d; want %d", mode, lo, dup, got, dup, copies)
					}
				}
			}
		})
	}
}
