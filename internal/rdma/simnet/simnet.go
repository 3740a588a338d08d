// Package simnet implements the rdma verbs API on a discrete-event-simulated
// InfiniBand-style fabric, reproducing the performance behaviour of the
// paper's testbed (Section 6: dual-port FDR 4x, two memory servers per
// physical machine with the NIC attached to one socket, SRQ-based RPC
// handlers).
//
// Index data lives in real memory (rdma.Region) and all protocol code
// executes for real; only *time* is simulated. The cost model:
//
//   - One-sided verbs occupy the client machine's NIC, cross the wire, and
//     occupy the target server's NIC for a per-op processing cost plus
//     payload/bandwidth — the remote CPU is never involved.
//   - Two-sided RPCs additionally pass through the server's shared receive
//     queue and occupy a handler core (the machine's cores are shared by its
//     memory servers); servers whose NIC path crosses the inter-socket (QPI)
//     link pay a multiplier on CPU work; RPC response payloads are also
//     throttled by a per-machine CPU-egress station (the CPU-mediated copy
//     path that limits two-sided bulk transfers, Section 6.1).
//   - Co-located deployments (Appendix A.3) turn accesses to the machine's
//     own memory server into local memory operations.
//
// Everything is deterministic: equal configurations and workload seeds yield
// identical virtual-time results.
package simnet

import (
	"fmt"

	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/sim"
	"github.com/namdb/rdmatree/internal/stats"
)

// Config is the fabric's calibrated cost model. NewConfig supplies defaults
// matching the paper's testbed shape; see EXPERIMENTS.md for the
// calibration rationale.
type Config struct {
	Topology nam.Topology

	// RegionBytes is each memory server's registered region size.
	RegionBytes int

	// LinkLatencyNS is the one-way wire+switch latency.
	LinkLatencyNS int64
	// OneSidedClientNS is the client-NIC processing cost per one-sided verb.
	OneSidedClientNS int64
	// OneSidedServerNS is the server-NIC processing cost per one-sided verb
	// (the verbs-rate limit of the target NIC).
	OneSidedServerNS int64
	// SmallClientNS / SmallServerNS are the NIC costs of small (<= 16 byte
	// payload) one-sided verbs: atomics and single-word reads, which real
	// NICs process inline.
	SmallClientNS int64
	SmallServerNS int64
	// RPCNICNS is the NIC processing cost per two-sided message.
	RPCNICNS int64
	// ServerBW / ClientBW are NIC bandwidths in bytes/second.
	ServerBW float64
	ClientBW float64
	// LocalNS and LocalBW model co-located local memory accesses.
	LocalNS int64
	LocalBW float64
	// CPUCopyBW is the per-machine CPU-egress bandwidth for RPC response
	// payloads (the two-sided bulk-transfer limit).
	CPUCopyBW float64
	// HandlerCoresPerMachine is the CPU core pool shared by the memory
	// servers of one machine.
	HandlerCoresPerMachine int
	// HandlersPerServer is the number of SRQ worker processes per server.
	HandlersPerServer int
	// RPCBaseNS is the handler CPU cost per RPC before page visits.
	RPCBaseNS int64
	// VisitNS is the handler CPU cost per index page visited; wire it into
	// the design options (coarse.Options.VisitNS etc.).
	VisitNS int64
	// QPIFactor multiplies CPU work of servers that cross the inter-socket
	// link to reach the NIC.
	QPIFactor float64
	// ClientSpinNS / ServerSpinNS are the spin-wait backoff of Env.Pause.
	ClientSpinNS int64
	ServerSpinNS int64
	// ClientNICPipeline is the number of verbs a compute machine's NIC
	// processes concurrently (doorbell/completion handling is deeply
	// pipelined); wire bandwidth still serializes transfers.
	ClientNICPipeline int
}

// NewConfig returns the calibrated default model for a topology.
func NewConfig(top nam.Topology) Config {
	return Config{
		Topology:               top,
		RegionBytes:            256 << 20,
		LinkLatencyNS:          900,
		OneSidedClientNS:       250,
		OneSidedServerNS:       500,
		SmallClientNS:          100,
		SmallServerNS:          150,
		RPCNICNS:               400,
		ServerBW:               7e9,
		ClientBW:               7e9,
		LocalNS:                300,
		LocalBW:                25e9,
		CPUCopyBW:              5e9,
		HandlerCoresPerMachine: 20,
		HandlersPerServer:      20,
		RPCBaseNS:              10000,
		VisitNS:                2000,
		QPIFactor:              1.4,
		ClientSpinNS:           1000,
		ServerSpinNS:           500,
		ClientNICPipeline:      16,
	}
}

const (
	verbHeaderBytes = 32
	ackBytes        = 16
	rpcHeaderBytes  = 24
)

// Fabric is a simulated NAM cluster.
type Fabric struct {
	S   *sim.Sim
	Cfg Config

	servers   []*rdma.Server
	serverNIC []*sim.Resource // per memory server (one NIC port each)
	egress    []*sim.Resource // per memory machine: CPU-mediated RPC payload path
	clientOps []*sim.Resource // per compute machine: pipelined verb processing
	clientBW  []*sim.Resource // per compute machine: wire bandwidth
	cores     []*sim.Resource // per memory machine: handler core pool
	srqs      []*sim.Queue    // per memory server

	handler rdma.Handler
	started bool

	// BytesIn/BytesOut count network bytes through each server NIC
	// (Figure 9's utilization metric). Local (co-located) accesses are not
	// counted.
	BytesIn  *stats.PerServer
	BytesOut *stats.PerServer
}

var _ rdma.Fabric = (*Fabric)(nil)

// New builds a fabric on a simulation instance.
func New(s *sim.Sim, cfg Config) *Fabric {
	if err := cfg.Topology.Validate(); err != nil {
		panic(err)
	}
	top := cfg.Topology
	f := &Fabric{S: s, Cfg: cfg}
	for i := 0; i < top.MemServers; i++ {
		// Mapped, so the untouched bulk of a region sized for the worst case
		// costs neither zeroing nor memory; the heap serves if mapping fails.
		r, err := rdma.NewMappedRegion(cfg.RegionBytes)
		if err != nil {
			r = rdma.NewRegion(cfg.RegionBytes)
		}
		f.servers = append(f.servers, rdma.NewServerOn(i, r, nam.SuperblockBytes))
		f.serverNIC = append(f.serverNIC, sim.NewResource(s, 1))
		f.srqs = append(f.srqs, sim.NewQueue(s))
	}
	for m := 0; m < top.MemMachines(); m++ {
		f.cores = append(f.cores, sim.NewResource(s, cfg.HandlerCoresPerMachine))
		f.egress = append(f.egress, sim.NewResource(s, 1))
	}
	for m := 0; m < top.ComputeMachines; m++ {
		f.clientOps = append(f.clientOps, sim.NewResource(s, cfg.ClientNICPipeline))
		f.clientBW = append(f.clientBW, sim.NewResource(s, 1))
	}
	f.BytesIn = stats.NewPerServer(top.MemServers)
	f.BytesOut = stats.NewPerServer(top.MemServers)
	return f
}

// Release returns the memory servers' regions to the system. Call it once
// the simulation has been shut down and nothing reads the regions any more;
// a later access to a region panics.
func (f *Fabric) Release() {
	for _, srv := range f.servers {
		if err := srv.Region.Release(); err != nil {
			// Unmapping a mapping New made fails only on a bug.
			panic(fmt.Sprintf("simnet: releasing server %d's region: %v", srv.ID, err))
		}
	}
}

// NumServers implements rdma.Fabric.
func (f *Fabric) NumServers() int { return len(f.servers) }

// Server implements rdma.Fabric.
func (f *Fabric) Server(i int) *rdma.Server { return f.servers[i] }

// SetHandler implements rdma.Fabric.
func (f *Fabric) SetHandler(h rdma.Handler) { f.handler = h }

// qpi returns the CPU multiplier for a server.
func (f *Fabric) qpi(server int) float64 {
	if f.Cfg.Topology.ServerCrossesQPI(server) {
		return f.Cfg.QPIFactor
	}
	return 1
}

// Start spawns the SRQ handler processes. Call after SetHandler and before
// issuing RPCs.
func (f *Fabric) Start() {
	if f.started {
		panic("simnet: Start called twice")
	}
	f.started = true
	for srv := range f.servers {
		srv := srv
		machine := f.Cfg.Topology.MachineOfServer(srv)
		for w := 0; w < f.Cfg.HandlersPerServer; w++ {
			f.S.Spawn(fmt.Sprintf("srv%d/handler%d", srv, w), func(p *sim.Proc) {
				f.handlerLoop(p, srv, machine)
			})
		}
	}
}

// rpcJob is one RPC in flight: the request on its way through the target
// server's SRQ and the response a handler fills in. An endpoint reuses its
// jobs; a job is free again once done has fired and the poster has read resp.
type rpcJob struct {
	server int
	req    []byte
	resp   []byte
	done   *sim.Event
	leg    func(q *sim.Proc) // the job's fork leg in a Poll batch: e.callLeg(q, job)
}

func (e *endpoint) newJob() *rpcJob {
	job := &rpcJob{done: sim.NewEvent(e.f.S)}
	job.leg = func(q *sim.Proc) { e.callLeg(q, job) }
	return job
}

// arm readies a free job for a request to server.
func (job *rpcJob) arm(server int, req []byte) {
	job.server, job.req, job.resp = server, req, nil
	job.done.Reset()
}

func (f *Fabric) handlerLoop(p *sim.Proc, srv, machine int) {
	// Boxed once: converting the struct to rdma.Env per call would allocate.
	var env rdma.Env = &handlerEnv{p: p, factor: f.qpi(srv), spin: f.Cfg.ServerSpinNS}
	for {
		job := f.srqs[srv].Get(p).(*rpcJob)
		f.cores[machine].Acquire(p)
		env.Charge(f.Cfg.RPCBaseNS)
		resp, _ := f.handler(env, srv, job.req)
		f.cores[machine].Release()
		job.resp = resp
		job.done.Fire()
	}
}

// handlerEnv charges handler CPU work in virtual time, scaled by the QPI
// factor; spin waits hold the core (busy waiting, Section 6.3).
type handlerEnv struct {
	p      *sim.Proc
	factor float64
	spin   int64
}

// Charge implements rdma.Env.
func (e handlerEnv) Charge(ns int64) {
	if ns > 0 {
		e.p.Sleep(int64(float64(ns) * e.factor))
	}
}

// Pause implements rdma.Env.
func (e handlerEnv) Pause() { e.p.Sleep(e.spin) }

// Now exposes the handler's virtual clock (telemetry.Clock) so server-side
// spans and latencies are measured in simulated time.
func (e handlerEnv) Now() int64 { return e.p.Now() }

// ClientEnv returns the execution environment for a client process.
func (f *Fabric) ClientEnv(p *sim.Proc) rdma.Env {
	return clientEnv{p: p, spin: f.Cfg.ClientSpinNS}
}

type clientEnv struct {
	p    *sim.Proc
	spin int64
}

// Charge implements rdma.Env.
func (e clientEnv) Charge(ns int64) {
	if ns > 0 {
		e.p.Sleep(ns)
	}
}

// Pause implements rdma.Env.
func (e clientEnv) Pause() { e.p.Sleep(e.spin) }

// Now exposes the client's virtual clock (telemetry.Clock).
func (e clientEnv) Now() int64 { return e.p.Now() }

// clientNICUse charges a client-NIC visit: the per-verb processing cost on
// the pipelined op station and the payload on the bandwidth station.
func (f *Fabric) clientNICUse(p *sim.Proc, machine int, opNS int64, bytes int) {
	if opNS > 0 {
		f.clientOps[machine].Use(p, opNS)
	}
	if bytes > 0 {
		f.clientBW[machine].Use(p, bwNS(bytes, f.Cfg.ClientBW))
	}
}

func bwNS(bytes int, bw float64) int64 {
	if bytes <= 0 {
		return 0
	}
	return int64(float64(bytes) / bw * 1e9)
}

// Endpoint returns the timed endpoint of one client thread; it must only be
// used from within the given process.
func (f *Fabric) Endpoint(clientID int, p *sim.Proc) rdma.Endpoint {
	return &endpoint{f: f, client: clientID, machine: f.Cfg.Topology.MachineOfClient(clientID), p: p}
}

type endpoint struct {
	f       *Fabric
	client  int
	machine int
	p       *sim.Proc

	// Async post/poll state (see Poll).
	q         rdma.PostQueue
	unflushed int
	jobs      []*rpcJob // per posted Call, in posting order; nil = rejected
	jobPool   []*rpcJob // every job Poll has made, reused batch after batch
	callJob   *rpcJob   // the blocking Call's job

	// Doorbell-batch state shared by ReadMulti and Poll, sized on first use
	// and reused by every batch: per-server tallies, each server's fork leg,
	// and the join the client waits on for the slowest leg.
	srvReq   []int // per-server request bytes of the current batch
	srvResp  []int // per-server response bytes
	srvWire  []int // per-server payload bytes the server NIC streams
	srvCount []int // per-server one-sided verb count
	legs     []func(q *sim.Proc)
	join     *sim.Event
	pending  int // legs (server shares and posted calls) not yet finished
}

var _ rdma.Endpoint = (*endpoint)(nil)
var _ rdma.AsyncEndpoint = (*endpoint)(nil)

func (e *endpoint) NumServers() int { return len(e.f.servers) }

// isLocal reports whether server is co-located with this client's machine.
func (e *endpoint) isLocal(server int) bool {
	top := e.f.Cfg.Topology
	return top.CoLocated && top.MachineOfServer(server) == e.machine
}

// oneSided models the timing of a single one-sided verb carrying reqBytes to
// the server and respBytes back. small selects the inline-op NIC costs
// (atomics, single-word reads).
func (e *endpoint) oneSided(server, reqBytes, respBytes int, small bool) {
	cfg := &e.f.Cfg
	if e.isLocal(server) {
		e.p.Sleep(cfg.LocalNS + bwNS(reqBytes+respBytes, cfg.LocalBW))
		return
	}
	clientOp, serverOp := cfg.OneSidedClientNS, cfg.OneSidedServerNS
	if small {
		clientOp, serverOp = cfg.SmallClientNS, cfg.SmallServerNS
	}
	e.f.clientNICUse(e.p, e.machine, clientOp, reqBytes)
	e.p.Sleep(cfg.LinkLatencyNS)
	e.f.serverNIC[server].Use(e.p, serverOp+bwNS(reqBytes+respBytes, cfg.ServerBW))
	e.f.BytesIn.Add(server, int64(reqBytes))
	e.f.BytesOut.Add(server, int64(respBytes))
	e.p.Sleep(cfg.LinkLatencyNS)
	e.f.clientNICUse(e.p, e.machine, 0, respBytes)
}

func (e *endpoint) Read(p rdma.RemotePtr, dst []uint64) error {
	if p.IsNull() {
		return fmt.Errorf("simnet: null pointer")
	}
	e.oneSided(p.Server(), verbHeaderBytes, len(dst)*8+ackBytes, len(dst) <= 2)
	e.f.servers[p.Server()].Region.Read(p.Offset(), dst)
	return nil
}

func (e *endpoint) ReadMulti(ps []rdma.RemotePtr, dst [][]uint64) error {
	if len(ps) == 0 {
		return nil
	}
	cfg := &e.f.Cfg
	// Selectively signalled batch: post all READs at once, wait for the
	// last completion. The client NIC processes one doorbell plus the
	// aggregate inbound payload; each target server NIC serializes its own
	// share; only one round trip of latency is exposed. Servers are visited
	// in ID order to keep the simulation deterministic.
	e.beginBatch()
	total := 0
	for i, p := range ps {
		if p.IsNull() {
			return fmt.Errorf("simnet: null pointer in batch")
		}
		b := len(dst[i]) * 8
		e.srvResp[p.Server()] += b + ackBytes
		e.srvCount[p.Server()]++
		total += b
	}
	allLocal := true
	for srv, n := range e.srvCount {
		if n > 0 && !e.isLocal(srv) {
			allLocal = false
		}
	}
	if allLocal {
		e.p.Sleep(cfg.LocalNS*int64(len(ps)) + bwNS(total, cfg.LocalBW))
	} else {
		e.f.clientNICUse(e.p, e.machine, cfg.OneSidedClientNS, verbHeaderBytes*len(ps))
		e.p.Sleep(cfg.LinkLatencyNS)
		// The posted READs hit all target servers in parallel; the client
		// observes the slowest one (fork-join). Doorbell batching: each
		// server NIC charges one amortized (small) op for the whole batch
		// plus its payload stream.
		for srv, n := range e.srvCount {
			if n == 0 || e.isLocal(srv) {
				continue
			}
			e.srvReq[srv] = verbHeaderBytes * n
			e.srvWire[srv] = e.srvResp[srv]
			e.pending++
			e.f.S.Spawn("batchread", e.legs[srv])
		}
		if e.pending > 0 {
			e.join.Wait(e.p)
		}
		e.p.Sleep(cfg.LinkLatencyNS)
		e.f.clientNICUse(e.p, e.machine, 0, total)
	}
	for i, p := range ps {
		e.f.servers[p.Server()].Region.Read(p.Offset(), dst[i])
	}
	return nil
}

func (e *endpoint) Write(p rdma.RemotePtr, src []uint64) error {
	if p.IsNull() {
		return fmt.Errorf("simnet: null pointer")
	}
	e.oneSided(p.Server(), verbHeaderBytes+len(src)*8, ackBytes, len(src) <= 2)
	e.f.servers[p.Server()].Region.Write(p.Offset(), src)
	return nil
}

func (e *endpoint) CompareAndSwap(p rdma.RemotePtr, old, new uint64) (uint64, error) {
	if p.IsNull() {
		return 0, fmt.Errorf("simnet: null pointer")
	}
	e.oneSided(p.Server(), verbHeaderBytes+16, ackBytes+8, true)
	return e.f.servers[p.Server()].Region.CompareAndSwap(p.Offset(), old, new), nil
}

func (e *endpoint) FetchAdd(p rdma.RemotePtr, delta uint64) (uint64, error) {
	if p.IsNull() {
		return 0, fmt.Errorf("simnet: null pointer")
	}
	e.oneSided(p.Server(), verbHeaderBytes+8, ackBytes+8, true)
	return e.f.servers[p.Server()].Region.FetchAdd(p.Offset(), delta), nil
}

func (e *endpoint) Alloc(server int, n int) (rdma.RemotePtr, error) {
	// Allocation is a fetch-and-add on the server's bump pointer.
	e.oneSided(server, verbHeaderBytes+8, ackBytes+8, true)
	off, err := e.f.servers[server].Alloc.Alloc(n)
	if err != nil {
		return rdma.NullPtr, err
	}
	return rdma.MakePtr(server, off), nil
}

func (e *endpoint) Free(p rdma.RemotePtr, n int) error {
	e.oneSided(p.Server(), verbHeaderBytes+8, ackBytes, true)
	e.f.servers[p.Server()].Alloc.Free(p.Offset(), n)
	return nil
}

func (e *endpoint) Call(server int, req []byte) ([]byte, error) {
	if e.f.handler == nil {
		return nil, fmt.Errorf("simnet: no RPC handler installed")
	}
	if !e.f.started {
		return nil, fmt.Errorf("simnet: Start not called")
	}
	cfg := &e.f.Cfg
	local := e.isLocal(server)
	reqBytes := len(req) + rpcHeaderBytes
	if local {
		e.p.Sleep(cfg.LocalNS)
	} else {
		e.f.clientNICUse(e.p, e.machine, cfg.RPCNICNS, reqBytes)
		e.p.Sleep(cfg.LinkLatencyNS)
		e.f.serverNIC[server].Use(e.p, cfg.RPCNICNS+bwNS(reqBytes, cfg.ServerBW))
		e.f.BytesIn.Add(server, int64(reqBytes))
	}
	if e.callJob == nil {
		e.callJob = e.newJob()
	}
	job := e.callJob
	job.arm(server, req)
	e.f.srqs[server].Put(job)
	job.done.Wait(e.p)
	resp := job.resp
	job.req, job.resp = nil, nil
	respBytes := len(resp) + rpcHeaderBytes
	machine := cfg.Topology.MachineOfServer(server)
	if local {
		e.p.Sleep(cfg.LocalNS + bwNS(respBytes, cfg.LocalBW))
		return resp, nil
	}
	// Response path: CPU-mediated egress, server NIC, wire, client NIC.
	e.f.egress[machine].Use(e.p, bwNS(respBytes, cfg.CPUCopyBW))
	e.f.serverNIC[server].Use(e.p, cfg.RPCNICNS+bwNS(respBytes, cfg.ServerBW))
	e.f.BytesOut.Add(server, int64(respBytes))
	e.p.Sleep(cfg.LinkLatencyNS)
	e.f.clientNICUse(e.p, e.machine, 0, respBytes)
	return resp, nil
}

// beginBatch readies the doorbell-batch state for a new batch.
func (e *endpoint) beginBatch() {
	if e.legs == nil {
		n := len(e.f.servers)
		e.srvReq, e.srvResp, e.srvWire, e.srvCount = make([]int, n), make([]int, n), make([]int, n), make([]int, n)
		e.legs = make([]func(q *sim.Proc), n)
		for srv := range e.legs {
			srv := srv
			e.legs[srv] = func(q *sim.Proc) { e.serverLeg(q, srv) }
		}
		e.join = sim.NewEvent(e.f.S)
	}
	clear(e.srvReq)
	clear(e.srvResp)
	clear(e.srvWire)
	clear(e.srvCount)
	e.join.Reset()
	e.pending = 0
}

// serverLeg is one target server's share of a doorbell batch: its NIC
// charges one amortized (small) op for the whole share plus the payload
// stream.
func (e *endpoint) serverLeg(q *sim.Proc, srv int) {
	cfg := &e.f.Cfg
	e.f.serverNIC[srv].Use(q, cfg.SmallServerNS+bwNS(e.srvWire[srv], cfg.ServerBW))
	e.f.BytesIn.Add(srv, int64(e.srvReq[srv]))
	e.f.BytesOut.Add(srv, int64(e.srvResp[srv]))
	e.legDone()
}

// callLeg carries one posted RPC of a Poll batch along the path of a
// blocking Call: request through both NICs and the wire, the server's SRQ
// and handler, and the response back.
func (e *endpoint) callLeg(q *sim.Proc, job *rpcJob) {
	cfg := &e.f.Cfg
	server := job.server
	local := e.isLocal(server)
	reqBytes := len(job.req) + rpcHeaderBytes
	if local {
		q.Sleep(cfg.LocalNS)
	} else {
		e.f.clientNICUse(q, e.machine, cfg.RPCNICNS, reqBytes)
		q.Sleep(cfg.LinkLatencyNS)
		e.f.serverNIC[server].Use(q, cfg.RPCNICNS+bwNS(reqBytes, cfg.ServerBW))
		e.f.BytesIn.Add(server, int64(reqBytes))
	}
	e.f.srqs[server].Put(job)
	job.done.Wait(q)
	respBytes := len(job.resp) + rpcHeaderBytes
	machine := cfg.Topology.MachineOfServer(server)
	if local {
		q.Sleep(cfg.LocalNS + bwNS(respBytes, cfg.LocalBW))
	} else {
		e.f.egress[machine].Use(q, bwNS(respBytes, cfg.CPUCopyBW))
		e.f.serverNIC[server].Use(q, cfg.RPCNICNS+bwNS(respBytes, cfg.ServerBW))
		e.f.BytesOut.Add(server, int64(respBytes))
		q.Sleep(cfg.LinkLatencyNS)
		e.f.clientNICUse(q, e.machine, 0, respBytes)
	}
	e.legDone()
}

// legDone retires one fork leg; the last one releases the waiting client.
func (e *endpoint) legDone() {
	e.pending--
	if e.pending == 0 {
		e.join.Fire()
	}
}

// --- non-blocking post/poll surface (rdma.AsyncEndpoint) -----------------

// PostRead implements rdma.AsyncEndpoint.
func (e *endpoint) PostRead(p rdma.RemotePtr, dst []uint64) rdma.Token {
	e.unflushed++
	return e.q.Post(rdma.Posted{Op: rdma.PostOpRead, P: p, Dst: dst})
}

// PostWrite implements rdma.AsyncEndpoint.
func (e *endpoint) PostWrite(p rdma.RemotePtr, src []uint64) rdma.Token {
	e.unflushed++
	return e.q.Post(rdma.Posted{Op: rdma.PostOpWrite, P: p, Src: src})
}

// PostCAS implements rdma.AsyncEndpoint.
func (e *endpoint) PostCAS(p rdma.RemotePtr, old, new uint64) rdma.Token {
	e.unflushed++
	return e.q.Post(rdma.Posted{Op: rdma.PostOpCAS, P: p, A: old, B: new})
}

// PostFetchAdd implements rdma.AsyncEndpoint.
func (e *endpoint) PostFetchAdd(p rdma.RemotePtr, delta uint64) rdma.Token {
	e.unflushed++
	return e.q.Post(rdma.Posted{Op: rdma.PostOpFetchAdd, P: p, A: delta})
}

// PostCall implements rdma.AsyncEndpoint.
func (e *endpoint) PostCall(server int, req []byte) rdma.Token {
	e.unflushed++
	return e.q.Post(rdma.Posted{Op: rdma.PostOpCall, Server: server, Req: req})
}

// Flush implements rdma.AsyncEndpoint: one doorbell write covers every verb
// posted since the last flush, so the client NIC's per-verb processing cost
// is paid once per batch — the cross-op generalization of ReadMulti's in-op
// amortization.
func (e *endpoint) Flush() {
	if e.unflushed == 0 {
		return
	}
	e.unflushed = 0
	e.f.clientOps[e.machine].Use(e.p, e.f.Cfg.OneSidedClientNS)
}

// postedBytes returns the request/response wire bytes of a buffered
// one-sided verb, mirroring the blocking verbs' accounting.
func postedBytes(v *rdma.Posted) (req, resp int) {
	switch v.Op {
	case rdma.PostOpRead:
		return verbHeaderBytes, len(v.Dst)*8 + ackBytes
	case rdma.PostOpWrite:
		return verbHeaderBytes + len(v.Src)*8, ackBytes
	case rdma.PostOpCAS:
		return verbHeaderBytes + 16, ackBytes + 8
	case rdma.PostOpFetchAdd:
		return verbHeaderBytes + 8, ackBytes + 8
	}
	return 0, 0
}

// callError classifies a rejected PostCall at completion-assembly time.
func (e *endpoint) callError(server int) error {
	if e.f.handler == nil {
		return fmt.Errorf("simnet: no RPC handler installed")
	}
	if !e.f.started {
		return fmt.Errorf("simnet: Start not called")
	}
	return fmt.Errorf("simnet: call to unknown server %d", server)
}

// Poll implements rdma.AsyncEndpoint. The whole outstanding batch is one
// generalized selectively-signalled doorbell batch: every posted verb leaves
// the client in the same scheduling quantum, each target server's NIC
// serializes its own share (one amortized op cost plus the payload stream,
// exactly ReadMulti's model), the posted RPCs ride their own fork paths, and
// the client observes the slowest leg — one exposed round trip for the whole
// batch. Memory effects execute in posting order after the join, so
// same-page verb pairs (page READ + version READ) keep the RC in-order
// guarantee the fused read protocol relies on, across operations.
func (e *endpoint) Poll(out []rdma.Completion) []rdma.Completion {
	vs := e.q.Pending()
	if len(vs) == 0 {
		return out
	}
	e.Flush() // unflushed verbs still ring a (late) doorbell
	cfg := &e.f.Cfg
	e.beginBatch()
	var (
		reqRemote, respRemote int // client-NIC wire bytes, one-sided verbs
		localNS               int64
		localBytes            int
		calls                 int
	)
	for i := range vs {
		v := &vs[i]
		if v.Op == rdma.PostOpCall {
			if e.f.handler == nil || !e.f.started || v.Server < 0 || v.Server >= len(e.f.servers) {
				e.jobs = append(e.jobs, nil)
				continue
			}
			if calls == len(e.jobPool) {
				e.jobPool = append(e.jobPool, e.newJob())
			}
			job := e.jobPool[calls]
			calls++
			job.arm(v.Server, v.Req)
			e.jobs = append(e.jobs, job)
			e.pending++
			e.f.S.Spawn("asynccall", job.leg)
			continue
		}
		if v.P.IsNull() {
			continue // completes with an error below, no wire traffic
		}
		req, resp := postedBytes(v)
		srv := v.P.Server()
		if e.isLocal(srv) {
			localNS += cfg.LocalNS
			localBytes += req + resp
			continue
		}
		e.srvReq[srv] += req
		e.srvResp[srv] += resp
		e.srvCount[srv]++
		reqRemote += req
		respRemote += resp
	}
	remote := false
	for srv := range e.srvCount {
		if e.srvCount[srv] == 0 {
			continue
		}
		remote = true
		e.srvWire[srv] = e.srvReq[srv] + e.srvResp[srv]
		e.pending++
		e.f.S.Spawn("asyncbatch", e.legs[srv])
	}
	if localNS > 0 {
		e.p.Sleep(localNS + bwNS(localBytes, cfg.LocalBW))
	}
	if remote {
		e.f.clientNICUse(e.p, e.machine, 0, reqRemote)
		e.p.Sleep(cfg.LinkLatencyNS)
	}
	if e.pending > 0 {
		e.join.Wait(e.p)
	}
	if remote {
		e.p.Sleep(cfg.LinkLatencyNS)
		e.f.clientNICUse(e.p, e.machine, 0, respRemote)
	}
	// Memory effects and completion assembly, in posting order.
	callIdx := 0
	for i := range vs {
		v := &vs[i]
		c := rdma.Completion{Token: v.Tok}
		switch v.Op {
		case rdma.PostOpCall:
			job := e.jobs[callIdx]
			callIdx++
			if job == nil {
				c.Err = e.callError(v.Server)
			} else {
				c.Resp = job.resp
				job.req, job.resp = nil, nil
			}
		default:
			if v.P.IsNull() {
				c.Err = fmt.Errorf("simnet: null pointer")
				break
			}
			r := e.f.servers[v.P.Server()].Region
			switch v.Op {
			case rdma.PostOpRead:
				r.Read(v.P.Offset(), v.Dst)
			case rdma.PostOpWrite:
				r.Write(v.P.Offset(), v.Src)
			case rdma.PostOpCAS:
				//rdmavet:allow caschecked -- transport executes the posted CAS; the prior value is delivered in Completion.Val for the poster to compare
				c.Val = r.CompareAndSwap(v.P.Offset(), v.A, v.B)
			case rdma.PostOpFetchAdd:
				c.Val = r.FetchAdd(v.P.Offset(), v.A)
			}
		}
		out = append(out, c)
	}
	e.q.Clear()
	clear(e.jobs)
	e.jobs = e.jobs[:0]
	return out
}

// SetupEndpoint returns an untimed endpoint for bulk loading: operations
// execute immediately without consuming virtual time or fabric resources.
func (f *Fabric) SetupEndpoint() rdma.Endpoint { return &setupEndpoint{f: f} }

type setupEndpoint struct {
	f *Fabric
}

var _ rdma.Endpoint = (*setupEndpoint)(nil)

func (e *setupEndpoint) NumServers() int { return len(e.f.servers) }

func (e *setupEndpoint) Read(p rdma.RemotePtr, dst []uint64) error {
	e.f.servers[p.Server()].Region.Read(p.Offset(), dst)
	return nil
}

func (e *setupEndpoint) ReadMulti(ps []rdma.RemotePtr, dst [][]uint64) error {
	for i, p := range ps {
		e.f.servers[p.Server()].Region.Read(p.Offset(), dst[i])
	}
	return nil
}

func (e *setupEndpoint) Write(p rdma.RemotePtr, src []uint64) error {
	e.f.servers[p.Server()].Region.Write(p.Offset(), src)
	return nil
}

func (e *setupEndpoint) CompareAndSwap(p rdma.RemotePtr, old, new uint64) (uint64, error) {
	return e.f.servers[p.Server()].Region.CompareAndSwap(p.Offset(), old, new), nil
}

func (e *setupEndpoint) FetchAdd(p rdma.RemotePtr, delta uint64) (uint64, error) {
	return e.f.servers[p.Server()].Region.FetchAdd(p.Offset(), delta), nil
}

func (e *setupEndpoint) Alloc(server int, n int) (rdma.RemotePtr, error) {
	off, err := e.f.servers[server].Alloc.Alloc(n)
	if err != nil {
		return rdma.NullPtr, err
	}
	return rdma.MakePtr(server, off), nil
}

func (e *setupEndpoint) Free(p rdma.RemotePtr, n int) error {
	e.f.servers[p.Server()].Alloc.Free(p.Offset(), n)
	return nil
}

func (e *setupEndpoint) Call(int, []byte) ([]byte, error) {
	return nil, fmt.Errorf("simnet: RPC on setup endpoint")
}

// Utilization reports per-resource busy fractions over a measurement window
// — which station saturates explains every throughput plateau in the
// experiments.
type Utilization struct {
	ServerNIC []float64 // per memory server
	Egress    []float64 // per memory machine (RPC payload path)
	Cores     []float64 // per memory machine (handler core pool)
	ClientOps []float64 // per compute machine (verb processing)
	ClientBW  []float64 // per compute machine (wire bandwidth)
}

// Max returns the largest utilization across all stations.
func (u Utilization) Max() (name string, util float64) {
	scan := func(n string, vs []float64) {
		for _, v := range vs {
			if v > util {
				name, util = n, v
			}
		}
	}
	scan("server-nic", u.ServerNIC)
	scan("cpu-egress", u.Egress)
	scan("handler-cores", u.Cores)
	scan("client-nic-ops", u.ClientOps)
	scan("client-bw", u.ClientBW)
	return name, util
}

// BusySnapshot captures the busy counters of every station; pass it to
// UtilizationSince at the end of the window.
func (f *Fabric) BusySnapshot() []sim.Time {
	var out []sim.Time
	for _, r := range f.serverNIC {
		out = append(out, r.BusyTime())
	}
	for _, r := range f.egress {
		out = append(out, r.BusyTime())
	}
	for _, r := range f.cores {
		out = append(out, r.BusyTime())
	}
	for _, r := range f.clientOps {
		out = append(out, r.BusyTime())
	}
	for _, r := range f.clientBW {
		out = append(out, r.BusyTime())
	}
	return out
}

// UtilizationSince computes utilization over [since, now] from a snapshot
// taken at the window start.
func (f *Fabric) UtilizationSince(snap []sim.Time, since sim.Time) Utilization {
	var u Utilization
	i := 0
	take := func(rs []*sim.Resource) []float64 {
		out := make([]float64, len(rs))
		for j, r := range rs {
			out[j] = r.Utilization(snap[i], since)
			i++
		}
		return out
	}
	u.ServerNIC = take(f.serverNIC)
	u.Egress = take(f.egress)
	u.Cores = take(f.cores)
	u.ClientOps = take(f.clientOps)
	u.ClientBW = take(f.clientBW)
	return u
}

// loadSampleNS is the minimum window ServerCoreLoad averages over before it
// re-samples: an instantaneous busy fraction of a 20-core pool is 0/20ths or
// k/20ths of whatever happens to run this nanosecond, while a ~50µs window
// (thousands of handler visits under load) is a stable signal.
const loadSampleNS = 50_000

// ServerCoreLoad returns a load probe for the handler-core pool backing
// memory server srv: each call reports the pool's utilization in [0,1],
// averaged over a sliding window of at least loadSampleNS of virtual time.
// The designs' servers piggyback it on RPC replies (nam.Response.Load) so
// adaptive clients see the server-CPU signal without extra round trips. The
// returned closure is driven only by virtual time, so runs stay
// deterministic; it is owned by the server's handler processes, which the
// simulator serializes like any other shared handler state.
func (f *Fabric) ServerCoreLoad(srv int) func() float64 {
	r := f.cores[f.Cfg.Topology.MachineOfServer(srv)]
	var (
		lastBusy sim.Time = r.BusyTime()
		lastNow  sim.Time = f.S.Now()
		util     float64
	)
	return func() float64 {
		if now := f.S.Now(); now-lastNow >= loadSampleNS {
			util = r.Utilization(lastBusy, lastNow)
			if util > 1 {
				util = 1 // transient over-accounting at window edges
			}
			lastBusy, lastNow = r.BusyTime(), now
		}
		return util
	}
}
