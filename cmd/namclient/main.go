// Command namclient is a compute-server client for a NAM cluster of
// namserver processes. With the default fine-grained one-sided design
// (Section 4) all index logic runs here and the memory servers stay
// passive; with -design coarse or hybrid the servers run the matching
// design and serve its catalog, which the client fetches before anything
// else.
//
// Usage:
//
//	namclient -servers :7000,:7001 build -size 100000
//	namclient -servers :7000,:7001 put 42 4200
//	namclient -servers :7000,:7001 get 42
//	namclient -servers :7000,:7001 del 42 4200
//	namclient -servers :7000,:7001 scan 100 200
//	namclient -servers :7000,:7001 bench -clients 8 -seconds 3
//	namclient -servers :7000,:7001 bench -clients 1 -inflight 8
//	namclient -servers :7000,:7001 -design coarse scan 100 200
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/namdb/rdmatree/internal/core"
	"github.com/namdb/rdmatree/internal/core/fine"
	"github.com/namdb/rdmatree/internal/deploy"
	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/rdma/retry"
	"github.com/namdb/rdmatree/internal/rdma/tcpnet"
	"github.com/namdb/rdmatree/internal/telemetry"
	"github.com/namdb/rdmatree/internal/workload"
)

func main() {
	var (
		servers = flag.String("servers", ":7000", "comma-separated memory server addresses (order = server IDs)")
		page    = flag.Int("page", 1024, "index page size in bytes of a -design fine index (must match across all clients; coarse and hybrid servers serve theirs)")
		design  = flag.String("design", "fine", "fine (one-sided), coarse, or hybrid (servers must run the matching -design)")
	)
	flag.Parse()
	addrs := strings.Split(*servers, ",")
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	d, err := nam.ParseDesign(*design)
	if err != nil {
		log.Fatalf("namclient: %v", err)
	}

	// The coarse and hybrid servers serve their catalog; a client routing
	// keys by a catalog of its own could send them to the wrong partitions
	// without anything noticing.
	boot := tcpnet.Dial(addrs)
	dep, err := deploy.Connect(boot, d, *page)
	boot.Close()
	if err != nil {
		log.Fatalf("namclient: %v", err)
	}

	// Client-side robustness counters: every client runs under the shared
	// retry policy, and serial ones under operation-level recovery too, so
	// retries, QP reconnects, and epoch-fenced re-traversals are counted
	// here (servers only see the verbs that reached them).
	clientRec := telemetry.NewRecorder(len(addrs))
	retryPolicy := func(id int) *retry.Policy {
		return &retry.Policy{Seed: int64(id), Sleep: time.Sleep, Counters: clientRec}
	}
	// client dials its own connection and builds the client stack over it:
	// serial under the retry and recovery rings, or pipelined with inflight
	// operations in flight under the retry ring (the engine re-runs failed
	// operations itself).
	client := func(id, inflight int) (deploy.Client, *tcpnet.Endpoint) {
		ep := tcpnet.Dial(addrs)
		o := deploy.ClientOptions{ID: id, Ep: ep, Env: rdma.NopEnv{}, Inflight: inflight, Retry: retryPolicy(id)}
		if inflight == 0 {
			o.Recover, o.Counters = true, clientRec
		}
		cl, err := dep.Client(o)
		check(err)
		return cl, ep
	}

	switch args[0] {
	case "build":
		if d != nam.FineGrained {
			log.Fatal("namclient: build is for -design fine; coarse servers build their own partitions (namserver -size)")
		}
		fs := flag.NewFlagSet("build", flag.ExitOnError)
		size := fs.Int("size", 100000, "initial keys (0..size-1, value = key)")
		headEvery := fs.Int("headevery", 32, "head node spacing (0 = none)")
		fs.Parse(args[1:])
		ep := tcpnet.Dial(addrs)
		defer ep.Close()
		start := time.Now()
		_, err := fine.Build(ep, fine.Options{Layout: layout.New(*page)}, core.BuildSpec{
			N:         *size,
			At:        workload.DataItem,
			HeadEvery: *headEvery,
		})
		if err != nil {
			log.Fatalf("namclient: build: %v", err)
		}
		fmt.Printf("built fine-grained index with %d keys across %d servers in %v\n",
			*size, len(addrs), time.Since(start).Round(time.Millisecond))

	case "get":
		k := parseU64(args, 1)
		c, ep := client(0, 0)
		defer ep.Close()
		vals, err := c.Serial.Lookup(k)
		check(err)
		fmt.Printf("%d -> %v\n", k, vals)

	case "put":
		k, v := parseU64(args, 1), parseU64(args, 2)
		c, ep := client(0, 0)
		defer ep.Close()
		check(c.Serial.Insert(k, v))
		fmt.Printf("inserted (%d, %d)\n", k, v)

	case "del":
		k, v := parseU64(args, 1), parseU64(args, 2)
		c, ep := client(0, 0)
		defer ep.Close()
		ok, err := c.Serial.Delete(k, v)
		check(err)
		fmt.Printf("deleted (%d, %d): %v\n", k, v, ok)

	case "scan":
		lo, hi := parseU64(args, 1), parseU64(args, 2)
		c, ep := client(0, 0)
		defer ep.Close()
		n := 0
		check(c.Serial.Range(lo, hi, func(k, v uint64) bool {
			fmt.Printf("%d -> %d\n", k, v)
			n++
			return n < 1000
		}))
		fmt.Printf("(%d entries)\n", n)

	case "bench":
		fs := flag.NewFlagSet("bench", flag.ExitOnError)
		clients := fs.Int("clients", 4, "concurrent client goroutines")
		seconds := fs.Int("seconds", 3, "duration")
		size := fs.Int("size", 100000, "key space (must match build -size)")
		inflight := fs.Int("inflight", 0, "lookups each client keeps in flight through doorbell batches (0 = one at a time)")
		fs.Parse(args[1:])
		var ops atomic.Int64
		stop := make(chan struct{})
		for c := 0; c < *clients; c++ {
			c := c
			go func() {
				gen, err := workload.NewGenerator(workload.Config{
					Mix: workload.WorkloadA, DataSize: uint64(*size), Seed: 99, Clients: *clients,
				}, c)
				check(err)
				running := func() bool {
					select {
					case <-stop:
						return false
					default:
						return true
					}
				}
				cl, ep := client(c, *inflight)
				defer ep.Close()
				if pipe := cl.Pipelined; pipe != nil {
					var failed error
					done := func(_ []uint64, err error) {
						if err != nil {
							failed = err
						} else {
							ops.Add(1)
						}
					}
					for failed == nil && running() {
						pipe.Lookup(gen.Next().Key, done)
					}
					pipe.Drain()
					if failed != nil {
						log.Printf("client %d: %v", c, failed)
					}
					return
				}
				for running() {
					if _, err := cl.Serial.Lookup(gen.Next().Key); err != nil {
						log.Printf("client %d: %v", c, err)
						return
					}
					ops.Add(1)
				}
			}()
		}
		time.Sleep(time.Duration(*seconds) * time.Second)
		close(stop)
		total := ops.Load()
		fmt.Printf("%d lookups in %ds with %d clients, %d in flight each: %.0f lookups/s (wall clock, TCP transport)\n",
			total, *seconds, *clients, max(*inflight, 1), float64(total)/float64(*seconds))
		fmt.Printf("client-side recovery: verb_retries=%d qp_reconnects=%d op_recoveries=%d\n",
			clientRec.Retries(), clientRec.Reconnects(), clientRec.OpRecoveries())

	case "stats":
		// Fetch each server's live telemetry over the existing verb
		// connection (the nam.OpStats RPC) and pretty-print it. Works
		// against any -design: even passive memory servers answer it via
		// the telemetry handler decorator. The per-server documents include
		// the fault/retry/recovery counters (the "faults" section) alongside
		// the verb counters; the fetch itself runs under the client's retry
		// stack, whose own counters print at the end.
		ep := tcpnet.Dial(addrs)
		defer ep.Close()
		rep := retry.Wrap(ep, retryPolicy(0))
		for s := range addrs {
			fmt.Printf("server %d (%s):\n", s, addrs[s])
			m, err := telemetry.FetchStats(rep, s)
			if err != nil {
				fmt.Printf("  stats unavailable: %v\n", err)
				continue
			}
			blob, err := json.MarshalIndent(m, "  ", "  ")
			if err != nil {
				fmt.Printf("  stats unavailable: %v\n", err)
				continue
			}
			fmt.Printf("  %s\n", blob)
		}
		fmt.Printf("client-side recovery: verb_retries=%d qp_reconnects=%d op_recoveries=%d\n",
			clientRec.Retries(), clientRec.Reconnects(), clientRec.OpRecoveries())

	case "check":
		// A bare sweep: the verification wants raw errors, not the
		// retry/recovery stack.
		ep := tcpnet.Dial(addrs)
		defer ep.Close()
		live, err := dep.CheckInvariants(ep)
		check(err)
		fmt.Printf("index invariants OK, %d live entries\n", live)

	default:
		usage()
	}
}

func parseU64(args []string, i int) uint64 {
	if i >= len(args) {
		usage()
	}
	v, err := strconv.ParseUint(args[i], 10, 64)
	if err != nil {
		log.Fatalf("namclient: bad number %q", args[i])
	}
	return v
}

func check(err error) {
	if err != nil {
		log.Fatalf("namclient: %v", err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: namclient -servers a,b,c [-design fine|coarse|hybrid] [-page P] <command>
commands:
  build  -size N -headevery K   bulk-load keys 0..N-1 (-design fine)
  get    <key>                  point lookup
  put    <key> <value>          insert
  del    <key> <value>          delete one entry
  scan   <lo> <hi>              range scan (first 1000 entries)
  bench  -clients N -seconds S [-inflight K]
                                closed-loop point-query benchmark; K > 0 keeps K
                                lookups per client in flight (doorbell batches)
  stats                         fetch each server's live telemetry counters
  check                         verify every tree's invariants`)
	os.Exit(2)
}
