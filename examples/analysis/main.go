// Analysis example: explore the paper's Section 2.3 design-space model
// programmatically — when does the fine-grained scheme's skew resilience pay
// for its extra traversal traffic?
//
// Run with: go run ./examples/analysis
package main

import (
	"fmt"
	"io"
	"os"

	"github.com/namdb/rdmatree/internal/analysis"
	"github.com/namdb/rdmatree/internal/stats"
)

func main() { run(os.Stdout) }

// run prints the four explorations to w.
func run(w io.Writer) {
	p := analysis.Defaults()
	fmt.Fprintln(w, analysis.Table1String(p))

	// 1. The paper's Figure 3: range queries, sel = 0.1%, skew z = 10.
	fmt.Fprintln(w, "Maximal throughput, range queries (sel=0.001, z=10):")
	fmt.Fprintln(w, stats.Table("memory servers", "ops/s",
		analysis.Fig3Series(p, 0.001, 10, []int{2, 4, 8, 16, 32, 64})...))

	// 2. How much skew does it take for FG to win at S=4? Sweep z.
	fmt.Fprintln(w, "Throughput vs skew amplification z (S=4, point queries):")
	fg := &stats.Series{Name: "FG"}
	cg := &stats.Series{Name: "CG Range"}
	for _, z := range []float64{1, 2, 5, 10, 20, 50} {
		q := analysis.Query{Skew: true, Z: z}
		fg.Append(z, analysis.MaxThroughput(p, analysis.FG, q))
		cg.Append(z, analysis.MaxThroughput(p, analysis.CGRange, q))
	}
	fmt.Fprintln(w, stats.Table("z", "ops/s", fg, cg))

	// 3. Page-size sensitivity: the fanout/height trade-off.
	fmt.Fprintln(w, "FG point-query cost vs page size (uniform):")
	bytesSer := &stats.Series{Name: "bytes/query"}
	tputSer := &stats.Series{Name: "max ops/s"}
	for _, page := range []int{256, 512, 1024, 2048, 4096} {
		pp := p
		pp.P = page
		q := analysis.Query{}
		bytesSer.Append(float64(page), analysis.QueryBytes(pp, analysis.FG, q))
		tputSer.Append(float64(page), analysis.MaxThroughput(pp, analysis.FG, q))
	}
	fmt.Fprintln(w, stats.Table("page bytes", "value", bytesSer, tputSer))

	// 4. Where hash partitioning hurts: range queries must visit all S
	// servers' indexes.
	fmt.Fprintln(w, "Hash vs range partitioning for range queries (uniform, sel=0.001):")
	rg := &stats.Series{Name: "CG Range"}
	hs := &stats.Series{Name: "CG Hash"}
	for _, s := range []int{2, 8, 32, 64} {
		pp := p
		pp.S = s
		q := analysis.Query{Range: true, Sel: 0.001}
		rg.Append(float64(s), analysis.MaxThroughput(pp, analysis.CGRange, q))
		hs.Append(float64(s), analysis.MaxThroughput(pp, analysis.CGHash, q))
	}
	fmt.Fprintln(w, stats.Table("memory servers", "ops/s", rg, hs))
}
