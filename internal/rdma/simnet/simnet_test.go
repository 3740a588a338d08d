package simnet

import (
	"testing"

	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/rdma/rdmatest"
	"github.com/namdb/rdmatree/internal/sim"
)

func testTopology() nam.Topology {
	return nam.Topology{
		MemServers:           4,
		MemServersPerMachine: 2,
		ComputeMachines:      2,
		ClientsPerMachine:    4,
	}
}

func TestOneSidedReadTiming(t *testing.T) {
	s := sim.New()
	cfg := NewConfig(testTopology())
	f := New(s, cfg)
	// Expected: clientNIC(op + 32B/bw) + lat + serverNIC(op + (1024+32+16)/bw) + lat + clientNIC(1040/bw).
	var elapsed sim.Time
	s.Spawn("c", func(p *sim.Proc) {
		ep := f.Endpoint(0, p)
		dst := make([]uint64, 128)
		start := p.Now()
		if err := ep.Read(rdma.MakePtr(0, 64), dst); err != nil {
			t.Error(err)
		}
		elapsed = p.Now() - start
	})
	s.Run()
	want := cfg.OneSidedClientNS + bwNS(32, cfg.ClientBW) +
		cfg.LinkLatencyNS +
		cfg.OneSidedServerNS + bwNS(32+1024+16, cfg.ServerBW) +
		cfg.LinkLatencyNS +
		bwNS(1024+16, cfg.ClientBW)
	if elapsed != want {
		t.Fatalf("read latency = %d; want %d", elapsed, want)
	}
}

func TestOneSidedDataFidelity(t *testing.T) {
	s := sim.New()
	f := New(s, NewConfig(testTopology()))
	s.Spawn("c", func(p *sim.Proc) {
		ep := f.Endpoint(0, p)
		ptr := rdma.MakePtr(2, 128)
		if err := ep.Write(ptr, []uint64{7, 8, 9}); err != nil {
			t.Error(err)
			return
		}
		dst := make([]uint64, 3)
		if err := ep.Read(ptr, dst); err != nil {
			t.Error(err)
			return
		}
		if dst[0] != 7 || dst[2] != 9 {
			t.Errorf("read back %v", dst)
		}
		if old, err := ep.CompareAndSwap(ptr, 7, 70); err != nil || old != 7 {
			t.Errorf("CAS old=%d err=%v", old, err)
		}
		if old, err := ep.FetchAdd(ptr, 5); err != nil || old != 70 {
			t.Errorf("FAA old=%d err=%v", old, err)
		}
	})
	s.Run()
}

func TestNICSerializationQueues(t *testing.T) {
	// Two clients on the SAME compute machine issuing simultaneously must
	// serialize on the shared client NIC.
	s := sim.New()
	cfg := NewConfig(testTopology())
	f := New(s, cfg)
	done := make([]sim.Time, 2)
	for i := 0; i < 2; i++ {
		i := i
		s.Spawn("c", func(p *sim.Proc) {
			ep := f.Endpoint(i*2, p) // clients 0 and 2 are both on machine 0
			dst := make([]uint64, 128)
			if err := ep.Read(rdma.MakePtr(i, 0), dst); err != nil {
				t.Error(err)
			}
			done[i] = p.Now()
		})
	}
	s.Run()
	if done[0] == done[1] {
		t.Fatalf("reads did not serialize on shared client NIC: %v", done)
	}
}

func TestRPCRoundTrip(t *testing.T) {
	s := sim.New()
	cfg := NewConfig(testTopology())
	f := New(s, cfg)
	f.SetHandler(func(env rdma.Env, server int, req []byte) ([]byte, rdma.Work) {
		env.Charge(1000)
		return append([]byte{byte(server)}, req...), rdma.Work{PagesTouched: 1}
	})
	f.Start()
	var elapsed sim.Time
	s.Spawn("c", func(p *sim.Proc) {
		ep := f.Endpoint(0, p)
		start := p.Now()
		resp, err := ep.Call(1, []byte("ping"))
		if err != nil {
			t.Error(err)
			return
		}
		if resp[0] != 1 || string(resp[1:]) != "ping" {
			t.Errorf("resp %q", resp)
		}
		elapsed = p.Now() - start
	})
	s.RunUntil(1_000_000)
	s.Shutdown()
	// Must include base CPU (6000 * 1.4 QPI for server 1) + charged work.
	min := cfg.RPCBaseNS + 1000 + 2*cfg.LinkLatencyNS
	if elapsed < min {
		t.Fatalf("RPC latency %d below floor %d", elapsed, min)
	}
}

func TestRPCQPIFactorSlowsSecondServer(t *testing.T) {
	s := sim.New()
	cfg := NewConfig(testTopology())
	f := New(s, cfg)
	f.SetHandler(func(env rdma.Env, server int, req []byte) ([]byte, rdma.Work) {
		env.Charge(10000)
		return []byte{1}, rdma.Work{}
	})
	f.Start()
	var lat [2]sim.Time
	s.Spawn("c", func(p *sim.Proc) {
		ep := f.Endpoint(0, p)
		for srv := 0; srv < 2; srv++ {
			start := p.Now()
			if _, err := ep.Call(srv, []byte("x")); err != nil {
				t.Error(err)
				return
			}
			lat[srv] = p.Now() - start
		}
	})
	s.RunUntil(10_000_000)
	s.Shutdown()
	if lat[1] <= lat[0] {
		t.Fatalf("QPI server not slower: srv0=%d srv1=%d", lat[0], lat[1])
	}
}

func TestHandlerCoreSaturation(t *testing.T) {
	// More concurrent RPCs than cores: throughput must be bounded by the
	// core pool, and latency must inflate.
	s := sim.New()
	top := testTopology()
	top.ClientsPerMachine = 40
	cfg := NewConfig(top)
	cfg.HandlerCoresPerMachine = 4
	cfg.HandlersPerServer = 8
	f := New(s, cfg)
	const cpuNS = 10000
	f.SetHandler(func(env rdma.Env, server int, req []byte) ([]byte, rdma.Work) {
		env.Charge(cpuNS)
		return []byte{1}, rdma.Work{}
	})
	f.Start()
	completed := 0
	for c := 0; c < 40; c++ {
		c := c
		s.Spawn("c", func(p *sim.Proc) {
			ep := f.Endpoint(c, p)
			for {
				if _, err := ep.Call(0, []byte("x")); err != nil {
					t.Error(err)
					return
				}
				completed++
			}
		})
	}
	const horizon = 10_000_000 // 10ms virtual
	s.RunUntil(horizon)
	s.Shutdown()
	// Server 0's machine has 4 cores at 10us+6us base => max ~4/16us = 250k/s
	// => 2500 ops in 10ms. Allow slack.
	if completed > 2800 {
		t.Fatalf("completed %d ops; core pool not limiting", completed)
	}
	if completed < 1500 {
		t.Fatalf("completed only %d ops; implausibly slow", completed)
	}
}

func TestByteAccounting(t *testing.T) {
	s := sim.New()
	cfg := NewConfig(testTopology())
	f := New(s, cfg)
	s.Spawn("c", func(p *sim.Proc) {
		ep := f.Endpoint(0, p)
		dst := make([]uint64, 128)
		if err := ep.Read(rdma.MakePtr(3, 0), dst); err != nil {
			t.Error(err)
		}
	})
	s.Run()
	if f.BytesOut.Get(3) != 1024+16 {
		t.Fatalf("server 3 out bytes = %d; want %d", f.BytesOut.Get(3), 1024+16)
	}
	if f.BytesIn.Get(3) != 32 {
		t.Fatalf("server 3 in bytes = %d; want 32", f.BytesIn.Get(3))
	}
	if f.BytesOut.Get(0) != 0 {
		t.Fatal("wrong server accounted")
	}
}

func TestReadMultiMasksLatency(t *testing.T) {
	s := sim.New()
	cfg := NewConfig(testTopology())
	f := New(s, cfg)
	const n = 8
	var batched, serial sim.Time
	s.Spawn("batch", func(p *sim.Proc) {
		ep := f.Endpoint(0, p)
		ptrs := make([]rdma.RemotePtr, n)
		bufs := make([][]uint64, n)
		for i := range ptrs {
			ptrs[i] = rdma.MakePtr(i%4, uint64(i)*1024)
			bufs[i] = make([]uint64, 128)
		}
		start := p.Now()
		if err := ep.ReadMulti(ptrs, bufs); err != nil {
			t.Error(err)
		}
		batched = p.Now() - start
	})
	s.Run()
	s2 := sim.New()
	f2 := New(s2, cfg)
	s2.Spawn("serial", func(p *sim.Proc) {
		ep := f2.Endpoint(0, p)
		start := p.Now()
		for i := 0; i < n; i++ {
			dst := make([]uint64, 128)
			if err := ep.Read(rdma.MakePtr(i%4, uint64(i)*1024), dst); err != nil {
				t.Error(err)
			}
		}
		serial = p.Now() - start
	})
	s2.Run()
	if batched >= serial {
		t.Fatalf("batched read (%d) not faster than serial (%d)", batched, serial)
	}
}

func TestCoLocationLocalAccessFaster(t *testing.T) {
	top := nam.Topology{
		MemServers: 2, MemServersPerMachine: 1,
		ComputeMachines: 2, ClientsPerMachine: 2,
		CoLocated: true,
	}
	s := sim.New()
	cfg := NewConfig(top)
	f := New(s, cfg)
	var localT, remoteT sim.Time
	s.Spawn("c", func(p *sim.Proc) {
		ep := f.Endpoint(0, p) // machine 0, local server 0
		dst := make([]uint64, 128)
		start := p.Now()
		if err := ep.Read(rdma.MakePtr(0, 0), dst); err != nil {
			t.Error(err)
		}
		localT = p.Now() - start
		start = p.Now()
		if err := ep.Read(rdma.MakePtr(1, 0), dst); err != nil {
			t.Error(err)
		}
		remoteT = p.Now() - start
	})
	s.Run()
	if localT*3 > remoteT {
		t.Fatalf("local access (%d) not much faster than remote (%d)", localT, remoteT)
	}
	// Local accesses do not appear in network byte counters.
	if f.BytesOut.Get(0) != 0 {
		t.Fatal("local access counted as network traffic")
	}
	if f.BytesOut.Get(1) == 0 {
		t.Fatal("remote access not counted")
	}
}

func TestSetupEndpointConsumesNoTime(t *testing.T) {
	s := sim.New()
	f := New(s, NewConfig(testTopology()))
	ep := f.SetupEndpoint()
	if err := ep.Write(rdma.MakePtr(0, 0), []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	dst := make([]uint64, 3)
	if err := ep.Read(rdma.MakePtr(0, 0), dst); err != nil {
		t.Fatal(err)
	}
	if dst[1] != 2 {
		t.Fatalf("read back %v", dst)
	}
	if s.Now() != 0 {
		t.Fatalf("setup endpoint advanced virtual time to %d", s.Now())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (sim.Time, int64) {
		s := sim.New()
		cfg := NewConfig(testTopology())
		f := New(s, cfg)
		f.SetHandler(func(env rdma.Env, server int, req []byte) ([]byte, rdma.Work) {
			env.Charge(2000)
			return req, rdma.Work{}
		})
		f.Start()
		for c := 0; c < 8; c++ {
			c := c
			s.Spawn("c", func(p *sim.Proc) {
				ep := f.Endpoint(c, p)
				for i := 0; i < 50; i++ {
					if c%2 == 0 {
						if _, err := ep.Call(c%4, []byte{byte(i)}); err != nil {
							t.Error(err)
							return
						}
					} else {
						dst := make([]uint64, 16)
						if err := ep.Read(rdma.MakePtr(c%4, uint64(i*128)), dst); err != nil {
							t.Error(err)
							return
						}
					}
				}
			})
		}
		s.RunUntil(50_000_000)
		now := s.Now()
		bytes := f.BytesOut.Total()
		s.Shutdown()
		return now, bytes
	}
	t1, b1 := run()
	t2, b2 := run()
	if t1 != t2 || b1 != b2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", t1, b1, t2, b2)
	}
}

// TestAsyncBatchOneExposedRTT pins the pipelining payoff in the performance
// model: N posted reads to one server complete in roughly one exposed round
// trip — one doorbell, one amortized server op cost, payload streamed —
// rather than N serial round trips.
func TestAsyncBatchOneExposedRTT(t *testing.T) {
	const n = 8
	topo := testTopology()
	run := func(async bool) sim.Time {
		s := sim.New()
		cfg := NewConfig(topo)
		f := New(s, cfg)
		var elapsed sim.Time
		s.Spawn("c", func(p *sim.Proc) {
			ep := f.Endpoint(0, p)
			dsts := make([][]uint64, n)
			for i := range dsts {
				dsts[i] = make([]uint64, 64)
			}
			start := p.Now()
			if async {
				a, ok := interface{}(ep).(rdma.AsyncEndpoint)
				if !ok {
					t.Error("simnet endpoint must implement rdma.AsyncEndpoint")
					return
				}
				for i := range dsts {
					a.PostRead(rdma.MakePtr(0, uint64(1024+512*i)), dsts[i])
				}
				a.Flush()
				comps := a.Poll(nil)
				for _, c := range comps {
					if c.Err != nil {
						t.Error(c.Err)
					}
				}
			} else {
				for i := range dsts {
					if err := ep.Read(rdma.MakePtr(0, uint64(1024+512*i)), dsts[i]); err != nil {
						t.Error(err)
					}
				}
			}
			elapsed = p.Now() - start
		})
		s.Run()
		return elapsed
	}
	serial, pipelined := run(false), run(true)
	if pipelined*3 >= serial {
		t.Fatalf("pipelined batch of %d reads took %d ns vs %d serial — expected >3x overlap", n, pipelined, serial)
	}
}

// TestAsyncDataFidelityAndOrder verifies posted verbs mutate the simulated
// regions identically to their blocking counterparts, in posting order, with
// per-verb completions.
func TestAsyncDataFidelityAndOrder(t *testing.T) {
	s := sim.New()
	f := New(s, NewConfig(testTopology()))
	f.SetHandler(func(env rdma.Env, server int, req []byte) ([]byte, rdma.Work) {
		return append([]byte{byte(server)}, req...), rdma.Work{}
	})
	f.Start()
	s.Spawn("c", func(p *sim.Proc) {
		ep := f.Endpoint(0, p)
		a := interface{}(ep).(rdma.AsyncEndpoint)
		ptr := rdma.MakePtr(2, 128)
		dst := make([]uint64, 2)
		a.PostWrite(ptr, []uint64{7, 8})
		a.PostCAS(ptr, 7, 70)  // must observe the earlier posted write
		a.PostFetchAdd(ptr, 5) // must observe the CAS
		a.PostRead(ptr, dst)   // must observe both atomics
		a.PostCall(1, []byte{9})
		a.PostRead(rdma.NullPtr, nil)
		a.Flush()
		comps := a.Poll(nil)
		if len(comps) != 6 {
			t.Errorf("got %d completions", len(comps))
			return
		}
		for i, c := range comps {
			if c.Token != rdma.Token(i) {
				t.Errorf("completion %d carries token %d", i, c.Token)
			}
		}
		if comps[1].Err != nil || comps[1].Val != 7 {
			t.Errorf("posted CAS saw %d, want 7 (in-order effects)", comps[1].Val)
		}
		if comps[2].Err != nil || comps[2].Val != 70 {
			t.Errorf("posted FAA saw %d, want 70", comps[2].Val)
		}
		if dst[0] != 75 || dst[1] != 8 {
			t.Errorf("posted read %v, want [75 8]", dst)
		}
		if comps[4].Err != nil || len(comps[4].Resp) != 2 || comps[4].Resp[0] != 1 || comps[4].Resp[1] != 9 {
			t.Errorf("posted call: %+v", comps[4])
		}
		if comps[5].Err == nil {
			t.Error("null-pointer post completed without error")
		}
	})
	s.Run()
}

// TestAllocMidBatch pins the blocking-Alloc-between-posts rule of the
// rdma.AsyncEndpoint contract on the simulated fabric: the blocking Alloc
// consumes virtual time of its own while the posted verbs wait unflushed.
func TestAllocMidBatch(t *testing.T) {
	s := sim.New()
	f := New(s, NewConfig(testTopology()))
	f.Start()
	s.Spawn("c", func(p *sim.Proc) {
		rdmatest.AllocMidBatch(t, f.Endpoint(0, p).(rdma.AsyncEndpoint), rdma.MakePtr(2, 128), 1)
	})
	s.Run()
}

// TestServerCoreLoad drives RPCs at a server whose handler charges heavy CPU
// work and checks the load probe: idle before traffic, high (in [0,1])
// while handlers saturate, sampled over >= loadSampleNS windows.
func TestServerCoreLoad(t *testing.T) {
	s := sim.New()
	cfg := NewConfig(testTopology())
	cfg.HandlerCoresPerMachine = 2
	cfg.HandlersPerServer = 2
	f := New(s, cfg)
	probe := f.ServerCoreLoad(0)
	var busy []float64
	f.SetHandler(func(env rdma.Env, server int, req []byte) ([]byte, rdma.Work) {
		env.Charge(40_000)
		busy = append(busy, probe())
		return req, rdma.Work{}
	})
	f.Start()
	if got := probe(); got != 0 {
		t.Fatalf("idle probe = %v, want 0", got)
	}
	for c := 0; c < 4; c++ {
		c := c
		s.Spawn("c", func(p *sim.Proc) {
			ep := f.Endpoint(c%2, p)
			for i := 0; i < 40; i++ {
				if _, err := ep.Call(0, []byte("x")); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	s.RunUntil(50_000_000)
	s.Shutdown()
	if len(busy) == 0 {
		t.Fatal("handler never ran")
	}
	maxU := 0.0
	for _, u := range busy {
		if u < 0 || u > 1 {
			t.Fatalf("probe out of range: %v", u)
		}
		if u > maxU {
			maxU = u
		}
	}
	// Four closed-loop clients against a 2-core pool charging 40µs per
	// request keep the pool near saturation once the first sampling window
	// has elapsed.
	if maxU < 0.5 {
		t.Fatalf("saturated pool never sampled above 0.5 (max %v)", maxU)
	}
}

// batchFixture is a started fabric whose handler answers every RPC with a
// fixed reply after 100 ns of CPU, and the buffers of a mixed batch: page
// and version READs across servers, as the fused read protocol issues them.
type batchFixture struct {
	s    *sim.Sim
	f    *Fabric
	ptrs []rdma.RemotePtr
	dsts [][]uint64
}

func newBatchFixture() *batchFixture {
	s := sim.New()
	f := New(s, NewConfig(testTopology()))
	reply := []byte("ok")
	f.SetHandler(func(env rdma.Env, _ int, _ []byte) ([]byte, rdma.Work) {
		env.Charge(100)
		return reply, rdma.Work{}
	})
	f.Start()
	b := &batchFixture{s: s, f: f}
	for i := 0; i < 4; i++ {
		b.ptrs = append(b.ptrs, rdma.MakePtr(i%2, uint64(4096+1024*i)), rdma.MakePtr(i%2, uint64(4096+1024*i)))
		b.dsts = append(b.dsts, make([]uint64, 128), make([]uint64, 1))
	}
	return b
}

func (b *batchFixture) close() {
	b.s.Shutdown()
	b.f.Release()
}

// loop runs op back to back in one client process until shutdown.
func (b *batchFixture) loop(t testing.TB, op func(ep rdma.Endpoint) error) {
	b.s.Spawn("c", func(p *sim.Proc) {
		ep := b.f.Endpoint(0, p)
		for {
			if err := op(ep); err != nil {
				t.Error(err)
				return
			}
		}
	})
}

func TestBatchedVerbsAllocateNothing(t *testing.T) {
	req := []byte("req")
	var out []rdma.Completion
	ops := map[string]func(b *batchFixture, ep rdma.Endpoint) error{
		"ReadMulti": func(b *batchFixture, ep rdma.Endpoint) error { return ep.ReadMulti(b.ptrs, b.dsts) },
		"Poll": func(b *batchFixture, ep rdma.Endpoint) error {
			a := ep.(rdma.AsyncEndpoint)
			for i, p := range b.ptrs {
				a.PostRead(p, b.dsts[i])
			}
			a.PostCAS(rdma.MakePtr(1, 64), 0, 0)
			a.PostCall(2, req)
			a.PostCall(3, req)
			a.Flush()
			out = a.Poll(out[:0])
			for _, c := range out {
				if c.Err != nil {
					return c.Err
				}
			}
			return nil
		},
		"Call": func(_ *batchFixture, ep rdma.Endpoint) error {
			_, err := ep.Call(1, req)
			return err
		},
	}
	for name, op := range ops {
		t.Run(name, func(t *testing.T) {
			b := newBatchFixture()
			defer b.close()
			b.loop(t, func(ep rdma.Endpoint) error { return op(b, ep) })
			b.s.RunUntil(1_000_000) // size the scratch, the pools and the queues
			n := testing.AllocsPerRun(50, func() { b.s.RunUntil(b.s.Now() + 100_000) })
			if n != 0 {
				t.Fatalf("%v allocations per 100 µs of batches; want 0", n)
			}
		})
	}
}

func BenchmarkReadMulti(b *testing.B) {
	b.ReportAllocs()
	fx := newBatchFixture()
	defer fx.close()
	done := 0
	fx.s.Spawn("c", func(p *sim.Proc) {
		ep := fx.f.Endpoint(0, p)
		for ; done < b.N; done++ {
			if err := ep.ReadMulti(fx.ptrs, fx.dsts); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ResetTimer()
	fx.s.Run()
}
