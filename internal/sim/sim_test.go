package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	s := New()
	var at1, at2 Time
	s.Spawn("p", func(p *Proc) {
		p.Sleep(100)
		at1 = p.Now()
		p.Sleep(250)
		at2 = p.Now()
	})
	s.Run()
	if at1 != 100 || at2 != 350 {
		t.Fatalf("got times %d, %d; want 100, 350", at1, at2)
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	s := New()
	var at Time = -1
	s.Spawn("p", func(p *Proc) {
		p.Sleep(-5)
		at = p.Now()
	})
	s.Run()
	if at != 0 {
		t.Fatalf("time after negative sleep = %d; want 0", at)
	}
}

func TestProcessesInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		s := New()
		var order []string
		s.Spawn("a", func(p *Proc) {
			p.Sleep(10)
			order = append(order, "a10")
			p.Sleep(20)
			order = append(order, "a30")
		})
		s.Spawn("b", func(p *Proc) {
			p.Sleep(20)
			order = append(order, "b20")
			p.Sleep(20)
			order = append(order, "b40")
		})
		s.Run()
		return order
	}
	want := []string{"a10", "b20", "a30", "b40"}
	for trial := 0; trial < 10; trial++ {
		got := run()
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %v; want %v", trial, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v; want %v", trial, got, want)
			}
		}
	}
}

func TestEqualTimeFIFOOrder(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Spawn("p", func(p *Proc) {
			p.Sleep(100)
			order = append(order, i)
		})
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v; want ascending spawn order", order)
		}
	}
}

func TestAtCallback(t *testing.T) {
	s := New()
	fired := Time(-1)
	s.At(500, func() { fired = s.Now() })
	s.Run()
	if fired != 500 {
		t.Fatalf("callback at %d; want 500", fired)
	}
}

func TestRunUntilStopsAndAdvancesClock(t *testing.T) {
	s := New()
	count := 0
	s.Spawn("p", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(10)
			count++
		}
	})
	s.RunUntil(55)
	if count != 5 {
		t.Fatalf("count after RunUntil(55) = %d; want 5", count)
	}
	if s.Now() != 55 {
		t.Fatalf("Now() = %d; want 55", s.Now())
	}
	s.Shutdown()
}

func TestResourceSerializesUse(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		s.Spawn("p", func(p *Proc) {
			r.Use(p, 100)
			ends = append(ends, p.Now())
		})
	}
	s.Run()
	want := []Time{100, 200, 300}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v; want %v", ends, want)
		}
	}
}

func TestResourceCapacityTwoRunsPairsConcurrently(t *testing.T) {
	s := New()
	r := NewResource(s, 2)
	var ends []Time
	for i := 0; i < 4; i++ {
		s.Spawn("p", func(p *Proc) {
			r.Use(p, 100)
			ends = append(ends, p.Now())
		})
	}
	s.Run()
	want := []Time{100, 100, 200, 200}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v; want %v", ends, want)
		}
	}
}

func TestResourceFIFOGranting(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Spawn("p", func(p *Proc) {
			p.Sleep(Time(i)) // arrive in index order
			r.Acquire(p)
			p.Sleep(50)
			order = append(order, i)
			r.Release()
		})
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("grant order = %v; want FIFO", order)
		}
	}
}

func TestTryAcquire(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	if !r.TryAcquire() {
		t.Fatal("first TryAcquire failed")
	}
	if r.TryAcquire() {
		t.Fatal("second TryAcquire succeeded on full resource")
	}
	r.Release()
	if !r.TryAcquire() {
		t.Fatal("TryAcquire after Release failed")
	}
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := New()
	r := NewResource(s, 1)
	r.Release()
}

func TestQueueBlockingGet(t *testing.T) {
	s := New()
	q := NewQueue(s)
	var got any
	var at Time
	s.Spawn("consumer", func(p *Proc) {
		got = q.Get(p)
		at = p.Now()
	})
	s.Spawn("producer", func(p *Proc) {
		p.Sleep(300)
		q.Put(42)
	})
	s.Run()
	if got != 42 || at != 300 {
		t.Fatalf("got %v at %d; want 42 at 300", got, at)
	}
}

func TestQueueFIFO(t *testing.T) {
	s := New()
	q := NewQueue(s)
	q.Put(1)
	q.Put(2)
	q.Put(3)
	var got []int
	s.Spawn("c", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p).(int))
		}
	})
	s.Run()
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("got %v; want [1 2 3]", got)
		}
	}
	if q.MaxLen() != 3 {
		t.Fatalf("MaxLen = %d; want 3", q.MaxLen())
	}
}

func TestQueueMultipleGetters(t *testing.T) {
	s := New()
	q := NewQueue(s)
	var got []int
	for i := 0; i < 3; i++ {
		s.Spawn("c", func(p *Proc) {
			got = append(got, q.Get(p).(int))
		})
	}
	s.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(10)
			q.Put(i)
		}
	})
	s.Run()
	if len(got) != 3 {
		t.Fatalf("got %v; want 3 items", got)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("got %v; want FIFO delivery [1 2 3]", got)
		}
	}
}

func TestEventWakesAllWaiters(t *testing.T) {
	s := New()
	e := NewEvent(s)
	woke := 0
	for i := 0; i < 4; i++ {
		s.Spawn("w", func(p *Proc) {
			e.Wait(p)
			woke++
		})
	}
	s.Spawn("firer", func(p *Proc) {
		p.Sleep(100)
		e.Fire()
		e.Fire() // idempotent
	})
	s.Run()
	if woke != 4 {
		t.Fatalf("woke = %d; want 4", woke)
	}
	if !e.Fired() {
		t.Fatal("event not marked fired")
	}
	// Waiting on a fired event returns immediately.
	returned := false
	s.Spawn("late", func(p *Proc) {
		e.Wait(p)
		returned = true
	})
	s.Run()
	if !returned {
		t.Fatal("late waiter did not return")
	}
}

func TestShutdownUnwindsParkedProcesses(t *testing.T) {
	s := New()
	q := NewQueue(s)
	started := 0
	for i := 0; i < 8; i++ {
		s.Spawn("blocked", func(p *Proc) {
			started++
			q.Get(p) // blocks forever
			t.Error("process resumed past Get after shutdown")
		})
	}
	s.RunUntil(10)
	if started != 8 {
		t.Fatalf("started = %d; want 8", started)
	}
	s.Shutdown()
	// All goroutines must have exited; a second shutdown is a no-op.
	s.Shutdown()
}

func TestSpawnFromWithinProcess(t *testing.T) {
	s := New()
	var childAt Time = -1
	s.Spawn("parent", func(p *Proc) {
		p.Sleep(100)
		p.Sim().Spawn("child", func(c *Proc) {
			c.Sleep(50)
			childAt = c.Now()
		})
		p.Sleep(500)
	})
	s.Run()
	if childAt != 150 {
		t.Fatalf("child finished at %d; want 150", childAt)
	}
}

func TestYieldPreservesFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		s.Spawn("p", func(p *Proc) {
			p.Yield()
			order = append(order, i)
		})
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v; want FIFO", order)
		}
	}
}

func BenchmarkSleepWakeup(b *testing.B) {
	b.ReportAllocs()
	s := New()
	s.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	s.Run()
}

func BenchmarkResourceHandoff(b *testing.B) {
	b.ReportAllocs()
	s := New()
	r := NewResource(s, 1)
	for w := 0; w < 4; w++ {
		s.Spawn("p", func(p *Proc) {
			for i := 0; i < b.N/4; i++ {
				r.Use(p, 1)
			}
		})
	}
	b.ResetTimer()
	s.Run()
}

func TestResourceBusyTimeAndUtilization(t *testing.T) {
	s := New()
	r := NewResource(s, 2)
	for i := 0; i < 2; i++ {
		s.Spawn("p", func(p *Proc) {
			r.Use(p, 100)
		})
	}
	s.Run()
	if got := r.BusyTime(); got != 200 {
		t.Fatalf("BusyTime = %d; want 200", got)
	}
	// Both units busy for the whole [0,100] window: utilization 1.
	s2 := New()
	r2 := NewResource(s2, 1)
	s2.Spawn("p", func(p *Proc) {
		r2.Use(p, 50)
		p.Sleep(50)
	})
	s2.Run()
	if u := r2.Utilization(0, 0); u < 0.49 || u > 0.51 {
		t.Fatalf("Utilization = %f; want 0.5", u)
	}
}

func TestHandoffKeepsEqualTimeFIFOOrder(t *testing.T) {
	// At t=10 the callback runs first (scheduled before any process ran),
	// then a, b, c in spawn order; a's Fire schedules w1 and w2 behind them.
	// Control passes process to process without the driver in between.
	s := New()
	var order []string
	e := NewEvent(s)
	s.At(10, func() { order = append(order, "cb") })
	for _, name := range []string{"a", "b", "c"} {
		name := name
		s.Spawn(name, func(p *Proc) {
			p.Sleep(10)
			order = append(order, name)
			if name == "a" {
				e.Fire()
			}
		})
	}
	for _, name := range []string{"w1", "w2"} {
		name := name
		s.Spawn(name, func(p *Proc) {
			e.Wait(p)
			order = append(order, fmt.Sprintf("%s@%d", name, p.Now()))
		})
	}
	s.Run()
	want := fmt.Sprint([]string{"cb", "a", "b", "c", "w1@10", "w2@10"})
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("order = %s; want %s", got, want)
	}
}

func TestRunUntilStopsDuringHandoff(t *testing.T) {
	// Two processes ping-pong through queues and never give control back
	// on their own; RunUntil must still stop at its limit.
	s := New()
	ping, pong := NewQueue(s), NewQueue(s)
	var hops int
	var latest Time
	s.Spawn("ping", func(p *Proc) {
		for {
			p.Sleep(10)
			hops++
			latest = p.Now()
			pong.Put(hops)
			ping.Get(p)
		}
	})
	s.Spawn("pong", func(p *Proc) {
		for {
			pong.Get(p)
			p.Sleep(10)
			hops++
			latest = p.Now()
			ping.Put(hops)
		}
	})
	s.RunUntil(55)
	if hops != 5 || latest != 50 || s.Now() != 55 {
		t.Fatalf("after RunUntil(55): hops %d, last at %d, now %d; want 5, 50, 55", hops, latest, s.Now())
	}
	s.RunUntil(100)
	if hops != 10 || latest != 100 {
		t.Fatalf("after RunUntil(100): hops %d, last at %d; want 10, 100", hops, latest)
	}
	s.Shutdown()
}

func TestAtCallbacksPoppedByProcessRunInOrder(t *testing.T) {
	// The sleeper holds control whenever a callback is due, so it pops and
	// runs them itself; they must interleave with its wakeups in (time,
	// schedule) order.
	s := New()
	var log []string
	for _, at := range []Time{25, 5, 15, 15, 30} {
		at := at
		s.At(at, func() { log = append(log, fmt.Sprintf("cb%d@%d", at, s.Now())) })
	}
	s.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10)
			log = append(log, fmt.Sprintf("p@%d", p.Now()))
		}
	})
	s.Run()
	want := fmt.Sprint([]string{"cb5@5", "p@10", "cb15@15", "cb15@15", "p@20", "cb25@25", "cb30@30", "p@30"})
	if got := fmt.Sprint(log); got != want {
		t.Fatalf("log = %s; want %s", got, want)
	}
}

func TestExitingProcessPassesControlOn(t *testing.T) {
	s := New()
	var woke Time = -1
	s.Spawn("short", func(p *Proc) { p.Sleep(5) })
	s.Spawn("goexit", func(p *Proc) {
		p.Sleep(7)
		runtime.Goexit() // what t.FailNow does inside a process
	})
	s.Spawn("long", func(p *Proc) {
		p.Sleep(10)
		woke = p.Now()
	})
	s.Run() // returns only if the last exit hands control back to the driver
	if woke != 10 {
		t.Fatalf("long woke at %d; want 10", woke)
	}
	// The exited processes are pooled, not lost: later spawns run on them.
	ran := 0
	s.Spawn("again", func(p *Proc) { ran++ })
	s.Run()
	if ran != 1 {
		t.Fatalf("spawn after exits ran %d times; want 1", ran)
	}
}

func TestShutdownUnwindsParkedAndPooledProcesses(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New()
	q := NewQueue(s)
	unwound := 0
	for i := 0; i < 4; i++ {
		s.Spawn("parked", func(p *Proc) {
			defer func() { unwound++ }()
			q.Get(p)
		})
		s.Spawn("pooled", func(p *Proc) { p.Sleep(1) })
	}
	s.RunUntil(10)
	if len(s.free) != 4 {
		t.Fatalf("%d pooled processes; want 4", len(s.free))
	}
	s.Shutdown()
	if unwound != 4 {
		t.Fatalf("%d parked processes unwound; want 4", unwound)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left after Shutdown; want %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPooledProcessIgnoresStaleWakeup(t *testing.T) {
	s := New()
	first := s.Spawn("first", func(p *Proc) { p.Sleep(1) })
	s.Run()
	// A wakeup left addressed to the pooled process, due in the middle of
	// its next life's sleep.
	s.schedule(50, first, nil)
	var woke Time = -1
	second := s.Spawn("second", func(p *Proc) {
		p.Sleep(100)
		woke = p.Now()
	})
	if second != first {
		t.Fatal("second spawn did not reuse the pooled process")
	}
	s.Run()
	if woke != 101 {
		t.Fatalf("reused process woke at %d; want 101", woke)
	}
}

// steadyAllocs runs rounds of the simulation (each advancing virtual time
// by span) and reports the allocations per round once the simulation's
// storage has grown to its working size.
func steadyAllocs(s *Sim, span Time) float64 {
	s.RunUntil(s.Now() + 10*span) // grow queues and lists first
	return testing.AllocsPerRun(100, func() { s.RunUntil(s.Now() + span) })
}

func TestSteadyStateAllocatesNothing(t *testing.T) {
	cases := map[string]func(s *Sim){
		"sleep": func(s *Sim) {
			s.Spawn("p", func(p *Proc) {
				for {
					p.Sleep(1)
				}
			})
		},
		"contended-resource": func(s *Sim) {
			r := NewResource(s, 1)
			for i := 0; i < 4; i++ {
				s.Spawn("p", func(p *Proc) {
					for {
						r.Use(p, 1)
					}
				})
			}
		},
		"queue": func(s *Sim) {
			q := NewQueue(s)
			item := new(int)
			s.Spawn("producer", func(p *Proc) {
				for {
					q.Put(item)
					q.Put(item)
					p.Sleep(1)
				}
			})
			for i := 0; i < 2; i++ {
				s.Spawn("consumer", func(p *Proc) {
					for {
						q.Get(p)
					}
				})
			}
		},
		"event": func(s *Sim) {
			e := NewEvent(s)
			s.Spawn("firer", func(p *Proc) {
				for {
					p.Sleep(1)
					e.Fire()
					e.Reset()
				}
			})
			for i := 0; i < 3; i++ {
				s.Spawn("waiter", func(p *Proc) {
					for {
						e.Wait(p)
					}
				})
			}
		},
		"spawn-exit": func(s *Sim) {
			leg := func(p *Proc) { p.Sleep(1) }
			s.Spawn("forker", func(p *Proc) {
				for {
					s.Spawn("leg", leg)
					s.Spawn("leg", leg)
					p.Sleep(2)
				}
			})
		},
	}
	for name, setup := range cases {
		t.Run(name, func(t *testing.T) {
			s := New()
			defer s.Shutdown()
			setup(s)
			if n := steadyAllocs(s, 10); n != 0 {
				t.Fatalf("%v allocations per round; want 0", n)
			}
			if s.Events() == 0 {
				t.Fatal("no events executed")
			}
		})
	}
}

func BenchmarkQueuePutGet(b *testing.B) {
	b.ReportAllocs()
	s := New()
	q := NewQueue(s)
	item := new(int)
	s.Spawn("consumer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Get(p)
		}
	})
	s.Spawn("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Put(item)
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	s.Run()
}
