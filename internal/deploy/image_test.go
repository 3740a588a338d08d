package deploy_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/namdb/rdmatree/internal/core"
	"github.com/namdb/rdmatree/internal/deploy"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/partition"
	"github.com/namdb/rdmatree/internal/rdma/direct"
)

// TestBulkLoadImage pins the bytes a bulk load leaves behind: every server's
// whole region and its allocator watermark, hashed, after deploy.Build of
// 100 000 keys. Every page must land on the same server, at the same offset,
// with the same contents, however the loader batches its allocations and
// writes — the golden virtual-time results, the BENCH_*.json baselines and
// the replica resync extents (cut at the watermark) all rest on it.
func TestBulkLoadImage(t *testing.T) {
	const (
		n        = 100_000
		keyspace = 1 << 20
	)
	cases := []struct {
		name     string
		design   nam.Design
		replicas int
		want     string
	}{
		{"fine", nam.FineGrained, 0, "a5789c67d8c055af64156c9e8e53389e5eaae1eb2c1adcfbad450a0661636bd4"},
		{"coarse", nam.CoarseGrained, 0, "afd2257ffcdaa32966f5342d0670dcc99bedd192ad6ce040b0175a641aaa9a8a"},
		{"hybrid", nam.Hybrid, 0, "7dfa38b9b71ab01a1e012c1c93755319fb670074ca64376d2aedbed47322b3af"},
		{"fine/k=2", nam.FineGrained, 2, "2861afcd3958f65d92d7340a5dc03a8a41f3d88c25a7098593453bb43bea7798"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fab := direct.New(servers, region, nam.SuperblockBytes)
			if _, err := deploy.Build(fab, fab.Endpoint(), deploy.Options{
				Design:    c.design,
				PageBytes: 512,
				Part:      partition.NewRangeUniform(servers, keyspace),
				Replicas:  c.replicas,
			}, core.BuildSpec{
				N:         n,
				At:        func(i int) (uint64, uint64) { return uint64(i) * (keyspace / n), uint64(i) },
				HeadEvery: 8,
			}); err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var buf []byte
			for i := 0; i < servers; i++ {
				s := fab.Server(i)
				buf = s.Region.AppendLE(buf[:0], 0, int(s.Region.Size()/8))
				h.Write(buf)
				fmt.Fprintf(h, "watermark %d\n", s.Alloc.Watermark())
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Errorf("image hash %s; want %s", got, c.want)
			}
		})
	}
}
