// kvstore: an ordered key-value store service built on the fine-grained
// distributed index over the TCP transport — the "ordered key-value store
// over RDMA-capable networks" application the paper's introduction motivates.
//
// The example boots a 3-server NAM cluster (in separate goroutines, speaking
// real TCP — the same agents cmd/namserver runs), bulk-loads it, serves a
// tiny line protocol (GET/PUT/DEL/SCAN) on a local port, and then drives
// itself through a demo session.
//
// Run with: go run ./examples/kvstore
package main

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strconv"
	"strings"

	"github.com/namdb/rdmatree/internal/core"
	"github.com/namdb/rdmatree/internal/core/fine"
	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/rdma/tcpnet"
)

const (
	memServers = 3
	pageBytes  = 1024
)

func main() {
	if err := run(os.Stdout, 50_000); err != nil {
		log.Fatal(err)
	}
}

// run boots the cluster, loads initial keys, serves the KV protocol and
// drives the demo session, writing the transcript to w.
func run(w io.Writer, initial int) error {
	// ---- boot the NAM memory servers (real TCP agents) ----
	var addrs []string
	for i := 0; i < memServers; i++ {
		srv := rdma.NewServer(i, 32<<20, nam.SuperblockBytes)
		agent := tcpnet.NewAgent(srv, nil)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		addrs = append(addrs, l.Addr().String())
		go agent.Serve(l)
		defer agent.Close()
	}
	fmt.Fprintf(w, "NAM memory servers up: %v\n", addrs)

	// ---- bulk-load the index (keys 0..N-1, value = key squared) ----
	boot := tcpnet.Dial(addrs)
	cat, err := fine.Build(boot, fine.Options{Layout: layout.New(pageBytes)}, core.BuildSpec{
		N:         initial,
		At:        func(i int) (uint64, uint64) { return uint64(i), uint64(i) * uint64(i) },
		HeadEvery: 32,
	})
	boot.Close()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "loaded %d keys across %d memory servers\n", initial, memServers)

	// ---- the KV service ----
	svcListener, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer svcListener.Close()
	go serveKV(svcListener, addrs, cat)
	fmt.Fprintf(w, "kvstore service on %s\n\n", svcListener.Addr())

	// ---- demo session ----
	conn, err := net.Dial("tcp", svcListener.Addr().String())
	if err != nil {
		return err
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	session := []string{
		"GET 7",
		"PUT 7 777",
		"GET 7",
		"DEL 7 777",
		"GET 7",
		"SCAN 100 105",
		"PUT 999999 1",
		"GET 999999",
	}
	for _, cmd := range session {
		fmt.Fprintf(w, "> %s\n", cmd)
		fmt.Fprintf(conn, "%s\n", cmd)
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %s", line)
			if !strings.HasPrefix(line, "|") {
				break
			}
		}
	}
	return nil
}

// serveKV accepts connections and executes KV commands against the
// distributed index. Every connection gets its own compute-thread endpoint.
func serveKV(l net.Listener, addrs []string, cat *nam.Catalog) {
	connID := 0
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		connID++
		go func(conn net.Conn, id int) {
			defer conn.Close()
			ep := tcpnet.Dial(addrs)
			defer ep.Close()
			idx := fine.NewClient(ep, rdma.NopEnv{}, cat, id)
			sc := bufio.NewScanner(conn)
			w := bufio.NewWriter(conn)
			for sc.Scan() {
				reply(w, idx, sc.Text())
				w.Flush()
			}
		}(conn, connID)
	}
}

func reply(w *bufio.Writer, idx core.Index, line string) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		fmt.Fprintln(w, "ERR empty command")
		return
	}
	num := func(i int) (uint64, bool) {
		if i >= len(fields) {
			return 0, false
		}
		v, err := strconv.ParseUint(fields[i], 10, 64)
		return v, err == nil
	}
	switch strings.ToUpper(fields[0]) {
	case "GET":
		k, ok := num(1)
		if !ok {
			fmt.Fprintln(w, "ERR usage: GET <key>")
			return
		}
		vals, err := idx.Lookup(k)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		if len(vals) == 0 {
			fmt.Fprintln(w, "NOTFOUND")
			return
		}
		fmt.Fprintf(w, "OK %v\n", vals)
	case "PUT":
		k, ok1 := num(1)
		v, ok2 := num(2)
		if !ok1 || !ok2 {
			fmt.Fprintln(w, "ERR usage: PUT <key> <value>")
			return
		}
		if err := idx.Insert(k, v); err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		fmt.Fprintln(w, "OK")
	case "DEL":
		k, ok1 := num(1)
		v, ok2 := num(2)
		if !ok1 || !ok2 {
			fmt.Fprintln(w, "ERR usage: DEL <key> <value>")
			return
		}
		ok, err := idx.Delete(k, v)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		if !ok {
			fmt.Fprintln(w, "NOTFOUND")
			return
		}
		fmt.Fprintln(w, "OK")
	case "SCAN":
		lo, ok1 := num(1)
		hi, ok2 := num(2)
		if !ok1 || !ok2 {
			fmt.Fprintln(w, "ERR usage: SCAN <lo> <hi>")
			return
		}
		n := 0
		err := idx.Range(lo, hi, func(k, v uint64) bool {
			fmt.Fprintf(w, "| %d = %d\n", k, v)
			n++
			return n < 100
		})
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		fmt.Fprintf(w, "OK %d entries\n", n)
	default:
		fmt.Fprintln(w, "ERR unknown command (GET/PUT/DEL/SCAN)")
	}
}
