package faultnet

import (
	"errors"
	"testing"

	"github.com/namdb/rdmatree/internal/rdma"
)

// nopEndpoint is an always-succeeding rdma.Endpoint: the tests below pin the
// decorator's fault decisions, not the inner transport.
type nopEndpoint struct{ verbs int }

func (n *nopEndpoint) Read(p rdma.RemotePtr, dst []uint64) error { n.verbs++; return nil }
func (n *nopEndpoint) ReadMulti(ps []rdma.RemotePtr, dst [][]uint64) error {
	n.verbs++
	return nil
}
func (n *nopEndpoint) Write(p rdma.RemotePtr, src []uint64) error { n.verbs++; return nil }
func (n *nopEndpoint) CompareAndSwap(p rdma.RemotePtr, old, new uint64) (uint64, error) {
	n.verbs++
	return old, nil
}
func (n *nopEndpoint) FetchAdd(p rdma.RemotePtr, delta uint64) (uint64, error) {
	n.verbs++
	return 0, nil
}
func (n *nopEndpoint) Alloc(server int, sz int) (rdma.RemotePtr, error) {
	n.verbs++
	return rdma.MakePtr(server, 64), nil
}
func (n *nopEndpoint) Free(p rdma.RemotePtr, sz int) error { n.verbs++; return nil }
func (n *nopEndpoint) Call(server int, req []byte) ([]byte, error) {
	n.verbs++
	return nil, nil
}
func (n *nopEndpoint) NumServers() int { return 4 }

// countingCounters records fault kinds.
type countingCounters map[string]int

func (c countingCounters) CountFault(kind string) { c[kind]++ }

// faultTrace runs verbs against a fresh endpoint for (sched, client) and
// records which of them failed.
func faultTrace(sched Schedule, client, verbs int) []bool {
	net := New(sched, nil)
	ep := net.Endpoint(&nopEndpoint{}, client)
	p := rdma.MakePtr(1, 64)
	trace := make([]bool, verbs)
	for i := range trace {
		trace[i] = ep.Read(p, nil) != nil
	}
	return trace
}

// TestDeterministicStreams pins the seeding contract: the same (seed,
// client) draws the identical fault sequence, a different client or seed a
// different one.
func TestDeterministicStreams(t *testing.T) {
	sched := Schedule{Seed: 42, DropRate: 0.2}
	a := faultTrace(sched, 3, 500)
	b := faultTrace(sched, 3, 500)
	faults := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verb %d: same (seed, client) diverged", i)
		}
		if a[i] {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("20% drop rate injected nothing in 500 verbs")
	}
	c := faultTrace(sched, 4, 500)
	d := faultTrace(Schedule{Seed: 43, DropRate: 0.2}, 3, 500)
	same := func(x []bool) bool {
		for i := range a {
			if a[i] != x[i] {
				return false
			}
		}
		return true
	}
	if same(c) {
		t.Error("different clients drew identical fault streams")
	}
	if same(d) {
		t.Error("different seeds drew identical fault streams")
	}
}

// TestDropSurfacesTimeout pins the error type of a dropped completion.
func TestDropSurfacesTimeout(t *testing.T) {
	cnt := countingCounters{}
	net := New(Schedule{Seed: 1, DropRate: 1}, cnt)
	ep := net.Endpoint(&nopEndpoint{}, 0)
	err := ep.Write(rdma.MakePtr(0, 64), nil)
	if !errors.Is(err, rdma.ErrTimeout) {
		t.Fatalf("drop surfaced %v, want ErrTimeout", err)
	}
	if !rdma.IsTransient(err) {
		t.Fatal("timeout must be transient")
	}
	if cnt[FaultDrop] != 1 {
		t.Fatalf("drop counter = %d, want 1", cnt[FaultDrop])
	}
}

// TestDelayAccountsOrTimesOut pins the two delay outcomes: within the
// deadline the verb executes and the latency is accumulated; past it the
// verb times out unexecuted.
func TestDelayAccountsOrTimesOut(t *testing.T) {
	cnt := countingCounters{}
	net := New(Schedule{Seed: 7, DelayRate: 1, DeadlineNS: 1000, MaxDelayNS: 2000}, cnt)
	inner := &nopEndpoint{}
	ep := net.Endpoint(inner, 0)
	p := rdma.MakePtr(2, 64)
	timeouts := 0
	for i := 0; i < 200; i++ {
		if err := ep.Read(p, nil); err != nil {
			if !errors.Is(err, rdma.ErrTimeout) {
				t.Fatalf("delayed verb surfaced %v, want ErrTimeout", err)
			}
			timeouts++
		}
	}
	if timeouts == 0 || timeouts == 200 {
		t.Fatalf("delays in [1, 2000]ns vs 1000ns deadline should mix outcomes, got %d/200 timeouts", timeouts)
	}
	if ep.DelayedNS <= 0 {
		t.Fatal("within-deadline delays not accumulated")
	}
	if inner.verbs != 200-timeouts {
		t.Fatalf("inner saw %d verbs, want %d (timed-out verbs must not execute)", inner.verbs, 200-timeouts)
	}
	if cnt[FaultDelay] == 0 || cnt[FaultDelayTimeout] != timeouts {
		t.Fatalf("counters delay=%d delay-timeout=%d, want >0 and %d", cnt[FaultDelay], cnt[FaultDelayTimeout], timeouts)
	}
}

// TestQPErrorUntilReconnect pins the QP state machine: after a scheduled QP
// error every verb to that server fails until Reconnect, and other servers
// stay reachable.
func TestQPErrorUntilReconnect(t *testing.T) {
	net := New(Schedule{Seed: 5, QPErrorEvery: 10}, nil)
	inner := &nopEndpoint{}
	ep := net.Endpoint(inner, 0)
	p := rdma.MakePtr(1, 64)
	var qpErr error
	for i := 0; i < 100 && qpErr == nil; i++ {
		qpErr = ep.Read(p, nil)
	}
	if !errors.Is(qpErr, rdma.ErrQPError) {
		t.Fatalf("QPErrorEvery=10 never broke the QP in 100 verbs (last err %v)", qpErr)
	}
	if err := ep.Read(p, nil); !errors.Is(err, rdma.ErrQPError) {
		t.Fatalf("broken QP must keep failing, got %v", err)
	}
	if err := ep.Read(rdma.MakePtr(2, 64), nil); err != nil {
		t.Fatalf("other servers must stay reachable, got %v", err)
	}
	if err := ep.Reconnect(1); err != nil {
		t.Fatalf("reconnect to healthy server: %v", err)
	}
	if err := ep.Read(p, nil); err != nil {
		t.Fatalf("verb after reconnect: %v", err)
	}
}

// TestScriptedCrashRestart pins the crash window: while down verbs fail with
// ErrQPError and Reconnect with ErrServerDown; reconnect attempts advance
// the tick, so a blocked client alone reaches the restart.
func TestScriptedCrashRestart(t *testing.T) {
	cnt := countingCounters{}
	net := New(Schedule{Seed: 9, Steps: []Step{{AtTick: 5, Server: 1, DownForTicks: 20}}}, cnt)
	ep := net.Endpoint(&nopEndpoint{}, 0)
	p := rdma.MakePtr(1, 64)
	for i := 0; i < 4; i++ {
		if err := ep.Read(p, nil); err != nil {
			t.Fatalf("verb %d before the crash: %v", i, err)
		}
	}
	if err := ep.Read(p, nil); !errors.Is(err, rdma.ErrQPError) {
		t.Fatalf("verb into the crash window got %v, want ErrQPError", err)
	}
	sawDown := false
	for i := 0; i < 50; i++ {
		err := ep.Reconnect(1)
		if err == nil {
			break
		}
		if !errors.Is(err, rdma.ErrServerDown) {
			t.Fatalf("reconnect while down got %v, want ErrServerDown", err)
		}
		sawDown = true
	}
	if !sawDown {
		t.Fatal("never observed the down window")
	}
	if err := ep.Read(p, nil); err != nil {
		t.Fatalf("verb after restart: %v", err)
	}
	if cnt["crash"] != 1 || cnt[FaultServerDown] == 0 {
		t.Fatalf("counters crash=%d server-down=%d, want 1 and >0", cnt["crash"], cnt[FaultServerDown])
	}
}

// TestRegionLossIsPermanent pins the Lose semantics: after a restart without
// the region, verbs and reconnects fail with the permanent ErrServerLost.
func TestRegionLossIsPermanent(t *testing.T) {
	net := New(Schedule{Seed: 11, Steps: []Step{{AtTick: 2, Server: 2, DownForTicks: 3, Lose: true}}}, nil)
	ep := net.Endpoint(&nopEndpoint{}, 0)
	p := rdma.MakePtr(2, 64)
	var err error
	for i := 0; i < 20; i++ {
		if err = ep.Read(p, nil); errors.Is(err, rdma.ErrServerLost) {
			break
		}
		if err != nil {
			err = ep.Reconnect(2)
			if errors.Is(err, rdma.ErrServerLost) {
				break
			}
		}
	}
	if !errors.Is(err, rdma.ErrServerLost) {
		t.Fatalf("region loss never surfaced ErrServerLost (last err %v)", err)
	}
	if rdma.IsTransient(err) {
		t.Fatal("ErrServerLost must not be transient")
	}
	if err := ep.Read(rdma.MakePtr(1, 64), nil); err != nil {
		t.Fatalf("surviving servers must stay reachable, got %v", err)
	}
}

// TestZeroScheduleIsTransparent pins the pass-through contract used by the
// conformance tests: a zero schedule never fails or delays a verb.
func TestZeroScheduleIsTransparent(t *testing.T) {
	net := New(Schedule{}, nil)
	inner := &nopEndpoint{}
	ep := net.Endpoint(inner, 0)
	for i := 0; i < 1000; i++ {
		if err := ep.Read(rdma.MakePtr(i%4, 64), nil); err != nil {
			t.Fatalf("zero schedule injected a fault: %v", err)
		}
	}
	if inner.verbs != 1000 || ep.DelayedNS != 0 {
		t.Fatalf("zero schedule must delegate everything undelayed (verbs=%d delayed=%d)", inner.verbs, ep.DelayedNS)
	}
}

// TestScriptedDrop pins Schedule.Drop: exactly the listed verb ordinals fail
// with ErrTimeout, and the probabilistic stream is not moved by them.
func TestScriptedDrop(t *testing.T) {
	trace := faultTrace(Schedule{Drop: []int64{2, 5, 6}}, 0, 8)
	want := []bool{false, true, false, false, true, true, false, false}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("scripted drops: got %v, want %v", trace, want)
		}
	}
	base := faultTrace(Schedule{Seed: 3, DropRate: 0.3}, 1, 64)
	both := faultTrace(Schedule{Seed: 3, DropRate: 0.3, Drop: []int64{10}}, 1, 64)
	for i := range base {
		if want := base[i] || i == 9; both[i] != want {
			t.Fatalf("verb %d: scripted drop moved the seeded stream", i+1)
		}
	}
}
