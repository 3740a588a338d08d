package main

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"github.com/namdb/rdmatree/internal/core"
	"github.com/namdb/rdmatree/internal/core/fine"
	"github.com/namdb/rdmatree/internal/core/hybrid"
	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/partition"
	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/rdma/direct"
	"github.com/namdb/rdmatree/internal/rdma/retry"
	"github.com/namdb/rdmatree/internal/rdma/tcpnet"
	"github.com/namdb/rdmatree/internal/telemetry"
	"github.com/namdb/rdmatree/internal/workload"
)

// Fixed shape of every host deployment (ISSUE 12): 1 KB pages, a head node
// every 32 leaves, workload.DataItem preload.
const (
	pageBytes = 1024
	headEvery = 32
	// regionBytesPerKey sizes a server's region: a 1 KB leaf holds ~55
	// entries at the default 0.9 fill, so 19 B/key; 64 B/key leaves room for
	// inner levels, head nodes and every split the measured inserts cause.
	regionBytesPerKey = 64
	minRegionBytes    = 8 << 20
)

// deployment is one cold-started index deployment with a single client.
type deployment struct {
	// idx is the serial client under the stack cmd/namclient builds
	// (retry.Wrap → design client → core.Recover); nil on tcp-pipe8.
	idx core.Index
	// pipe is the pipelined client of tcp-pipe8; nil elsewhere.
	pipe *fine.PipelinedClient
	// wireBytes reads the bytes moved so far: both directions through the
	// agents' listeners on tcp, verb payload bytes at the endpoint on direct.
	wireBytes func() int64
	// rec receives the client stack's retry and recovery counters.
	rec *telemetry.Recorder
	// close stops the agents and closes the connections, waiting for both.
	close func()
}

func regionBytes(keys, servers int) int {
	b := keys * regionBytesPerKey / servers
	if b < minRegionBytes {
		b = minRegionBytes
	}
	return b
}

func buildSpec(keys int) core.BuildSpec {
	return core.BuildSpec{N: keys, At: workload.DataItem, HeadEvery: headEvery}
}

// namclientStack is the endpoint half of the client stack cmd/namclient
// builds: the shared retry policy with real sleeps.
func namclientStack(ep rdma.Endpoint, rec *telemetry.Recorder) rdma.Endpoint {
	return retry.Wrap(ep, &retry.Policy{Seed: 0, Sleep: time.Sleep, Counters: rec})
}

// countingListener counts the bytes of every accepted connection, both
// ways. It is how wire_bytes_per_op is measured without touching tcpnet.
type countingListener struct {
	net.Listener
	bytes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, bytes: l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// tcpCluster is a set of in-process tcpnet agents on loopback.
type tcpCluster struct {
	addrs  []string
	agents []*tcpnet.Agent
	served chan error
	bytes  atomic.Int64
}

// startTCPCluster listens on 127.0.0.1 and serves one agent per server.
func startTCPCluster(servers, regionBytes int, handler rdma.Handler) (*tcpCluster, error) {
	c := &tcpCluster{served: make(chan error, servers)} // one send per agent
	for i := 0; i < servers; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("listening for agent %d: %w", i, err)
		}
		agent := tcpnet.NewAgent(rdma.NewServer(i, regionBytes, nam.SuperblockBytes), handler)
		c.addrs = append(c.addrs, l.Addr().String())
		c.agents = append(c.agents, agent)
		go func() { c.served <- agent.Serve(countingListener{l, &c.bytes}) }()
	}
	return c, nil
}

// stop closes every agent and waits for its accept loop to return.
func (c *tcpCluster) stop() {
	for _, a := range c.agents {
		a.Close()
	}
	for range c.agents {
		<-c.served
	}
}

// deployTCP cold-starts the tcp-* deployment: two agents on loopback, the
// fine-grained index bulk-loaded over the wire, one client connection.
// inflight 0 selects the serial client, otherwise the pipelined one. A
// non-nil log puts the span shims at every boundary.
func deployTCP(keys, inflight int, log *spanLog) (*deployment, error) {
	const servers = 2
	cluster, err := startTCPCluster(servers, regionBytes(keys, servers), nil)
	if err != nil {
		return nil, err
	}
	setup := tcpnet.Dial(cluster.addrs)
	cat, err := fine.Build(setup, fine.Options{Layout: layout.New(pageBytes)}, buildSpec(keys))
	setup.Close()
	if err != nil {
		cluster.stop()
		return nil, fmt.Errorf("bulk-loading %d keys over tcp: %w", keys, err)
	}
	conn := tcpnet.Dial(cluster.addrs)
	d := &deployment{
		wireBytes: cluster.bytes.Load,
		rec:       telemetry.NewRecorder(servers),
		close:     func() { conn.Close(); cluster.stop() },
	}
	var ep rdma.Endpoint = conn
	if log != nil {
		ep, _ = wrapEndpoint(ep, log, "tcpnet")
	}
	if inflight > 0 {
		// The pipelined client embeds its own operation recovery and needs
		// the transport's native post/poll surface, which retry.Endpoint
		// does not forward — so it sits directly on the connection.
		d.pipe = fine.NewPipelinedClient(ep, rdma.NopEnv{}, cat, 0, inflight)
		return d, nil
	}
	ep = namclientStack(ep, d.rec)
	if log != nil {
		ep, _ = wrapEndpoint(ep, log, "retry")
	}
	d.idx = recoverStack(fine.NewClient(ep, rdma.NopEnv{}, cat, 0), d.rec, log, "fine")
	return d, nil
}

// recoverStack is the index half of the namclient stack: core.Recover around
// the design client, with span shims on both sides when tracing.
func recoverStack(client core.Index, rec *telemetry.Recorder, log *spanLog, design string) core.Index {
	if log == nil {
		return core.Recover(client, 0, rec)
	}
	return wrapIndex(core.Recover(wrapIndex(client, log, design), 0, rec), log, "recovered")
}

// deployDirect cold-starts direct-hybrid: four in-process servers, the
// hybrid index built through a setup endpoint, the traverse handler
// installed, one hybrid client under the namclient stack.
func deployDirect(keys int, log *spanLog) (*deployment, error) {
	const servers = 4
	fab := direct.New(servers, regionBytes(keys, servers), nam.SuperblockBytes)
	srv := hybrid.NewServer(fab, hybrid.Options{
		Layout: layout.New(pageBytes),
		Part:   partition.NewRangeUniform(servers, uint64(keys)),
	})
	cat, err := srv.Build(fab.Endpoint(), buildSpec(keys))
	if err != nil {
		return nil, fmt.Errorf("building hybrid index of %d keys: %w", keys, err)
	}
	handler := srv.Handler()
	if log != nil {
		handler = spanHandler(handler, log, "hybrid.handler")
	}
	fab.SetHandler(handler)

	d := &deployment{rec: telemetry.NewRecorder(servers), close: func() {}}
	// direct has no wire to tap, so the bottom shim stays in untraced runs
	// too, counting payload bytes (one indirect call and two adds per verb).
	ep, counter := wrapEndpoint(fab.Endpoint(), log, "direct")
	d.wireBytes = func() int64 { return counter.bytes }
	ep = namclientStack(ep, d.rec)
	if log != nil {
		ep, _ = wrapEndpoint(ep, log, "retry")
	}
	d.idx = recoverStack(hybrid.NewClient(ep, direct.Env{}, cat, 0), d.rec, log, "hybrid")
	return d, nil
}
