// YCSB example: run the paper's modified YCSB workloads (Table 3) against
// all three index designs on the simulated RDMA fabric and print a
// mini-version of the paper's Figure 8/12 comparison.
//
// Run with: go run ./examples/ycsb [-size 200000] [-clients 120]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"github.com/namdb/rdmatree/internal/bench"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/stats"
	"github.com/namdb/rdmatree/internal/workload"
)

func main() {
	size := flag.Int("size", 200_000, "initial data size D")
	clients := flag.Int("clients", 120, "client threads (40 per compute machine)")
	flag.Parse()
	if err := run(os.Stdout, *size, *clients); err != nil {
		log.Fatal(err)
	}
}

// run measures every workload row on every design with clients clients over
// size initial entries and prints the comparison to w.
func run(w io.Writer, size, clients int) error {
	designs := []nam.Design{nam.CoarseGrained, nam.FineGrained, nam.Hybrid}
	rows := []struct {
		name string
		mix  workload.Mix
		sel  float64
	}{
		{"A: 100% point queries", workload.WorkloadA, 0},
		{"B: 100% range queries (sel=0.01)", workload.WorkloadB, 0.01},
		{"C: 95% point / 5% insert", workload.WorkloadC, 0},
		{"D: 50% point / 50% insert", workload.WorkloadD, 0},
	}

	fmt.Fprintf(w, "Modified YCSB on a simulated NAM cluster: 4 memory servers, %d clients, D=%d\n\n",
		clients, size)
	for _, row := range rows {
		fmt.Fprintf(w, "Workload %s\n", row.name)
		for _, d := range designs {
			machines := (clients + 39) / 40
			cfg := bench.Config{
				Design:      d,
				Topology:    nam.PaperTopology(4, machines, (clients+machines-1)/machines),
				DataSize:    size,
				Mix:         row.mix,
				Selectivity: row.sel,
				HeadEvery:   32,
				Seed:        7,
			}
			if row.mix.RangePct > 0 {
				cfg.MeasureNS = 60_000_000
			}
			res, err := bench.Run(cfg)
			if err != nil {
				return fmt.Errorf("%v / %s: %w", d, row.name, err)
			}
			fmt.Fprintf(w, "  %-16s %10s ops/s   p50 %7.1fus   p99 %7.1fus   net %5.2f GB/s\n",
				d.String(),
				stats.FormatQty(res.Throughput),
				float64(res.Latency.Percentile(50))/1000,
				float64(res.Latency.Percentile(99))/1000,
				res.NetGBps)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "(virtual-time measurements on the calibrated simulated fabric; see EXPERIMENTS.md)")
	return nil
}
