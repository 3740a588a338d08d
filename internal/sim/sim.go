// Package sim implements a small deterministic discrete-event simulation
// kernel with cooperative processes, counted resources and FIFO queues.
//
// The kernel is the substrate for the simulated RDMA fabric
// (internal/rdma/simnet): simulated compute clients and memory-server RPC
// handlers run as processes, NICs and CPU cores are resources, and virtual
// time advances only when every runnable process has blocked.
//
// Processes are real goroutines, but exactly one goroutine — the driver
// inside Run/RunUntil, or one process — holds control at any moment. Control
// moves by direct handoff: a process that parks (on Sleep, Resource.Acquire,
// Queue.Get, ...) or exits pops the next due events itself. At callbacks run
// in pop order on whichever goroutine holds control; a wakeup of the parking
// process itself returns without any goroutine switch; a wakeup of another
// process resumes that process directly and then blocks the parker. Only an
// empty queue, or a next event past RunUntil's limit, hands control back to
// the driver. Every transfer is a channel send by the holder, which then
// blocks on its own channel and touches nothing else, so the single-runner
// property holds and each transfer orders the previous holder's writes
// before the next holder's reads. This gives sequential consistency for all
// data touched by processes and makes runs fully deterministic: events at
// equal virtual times fire in FIFO schedule order, the same order whichever
// goroutine pops them.
//
// A process whose function returns is kept, with its goroutine, for the next
// Spawn, so short-lived processes (a batch's fork legs) cost no goroutine
// creation. A pooled process is never woken by an event scheduled for its
// previous life: a process is resumed only by the last wakeup scheduled for
// it, and the Spawn that reuses it schedules a new one.
package sim

import (
	"fmt"
	"math"
)

// Time is virtual time in nanoseconds.
type Time = int64

// MaxTime is the largest representable virtual time.
const MaxTime Time = math.MaxInt64

// event is a process wakeup (proc != nil) or an At callback (fn != nil).
type event struct {
	at   Time
	seq  uint64
	proc *Proc
	fn   func()
}

// before is the queue order: time, then schedule order.
func before(a, b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// eventQueue is a 4-ary min-heap of events by (at, seq). Events are stored by
// value, so pushing and popping allocate nothing once the slice has grown;
// (at, seq) is a total order, so the pop order is exactly that of any other
// correct priority queue.
type eventQueue []event

func (q *eventQueue) push(ev event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !before(&ev, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	*q = h
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			for j := c + 1; j < c+4 && j < n; j++ {
				if before(&h[j], &h[m]) {
					m = j
				}
			}
			if !before(&h[m], &last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	*q = h
	return top
}

type resumeSignal int

const (
	resumeRun resumeSignal = iota
	resumeStop
)

// errStopped is panicked inside process goroutines when the simulation shuts
// down; the process wrapper recovers it and unwinds cleanly.
type stoppedError struct{}

func (stoppedError) Error() string { return "sim: simulation stopped" }

// Sim is a discrete-event simulation instance. Create with New. A Sim must
// only be driven from a single goroutine (the one calling Run/RunUntil), and
// process code must only interact with the Sim through its own *Proc.
type Sim struct {
	now    Time
	seq    uint64
	events uint64
	limit  Time // events after limit stay queued; set by Run/RunUntil
	queue  eventQueue
	yield  chan struct{} // hands control back to the driver
	procs  map[*Proc]struct{}
	free   []*Proc // exited processes whose goroutines await the next Spawn
	closed bool
}

// New returns an empty simulation at virtual time zero.
func New() *Sim {
	return &Sim{
		yield: make(chan struct{}, 1),
		procs: make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Events returns the number of events executed so far: process wakeups
// delivered plus At callbacks run.
func (s *Sim) Events() uint64 { return s.events }

func (s *Sim) schedule(at Time, p *Proc, fn func()) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	if p != nil {
		p.wake = s.seq
	}
	s.queue.push(event{at: at, seq: s.seq, proc: p, fn: fn})
}

// At schedules fn to run at virtual time t (or now, if t is in the past).
// fn runs with control of the simulation, on whichever goroutine holds it,
// and must not block.
func (s *Sim) At(t Time, fn func()) { s.schedule(t, nil, fn) }

// Proc is the handle a process uses to interact with the simulation. All
// methods must be called from the process's own goroutine. The handle
// belongs to the process until its function returns; a later Spawn may
// reuse it.
type Proc struct {
	s      *Sim
	name   string
	fn     func(p *Proc)
	resume chan resumeSignal
	// wake is the sequence number of the one event allowed to resume the
	// process (0: none). Scheduling a wakeup sets it and delivering one
	// clears it, so a wakeup left over from an earlier park, or from a
	// pooled process's previous life, is dropped when it pops.
	wake uint64
}

// Spawn starts a new process executing fn. The process becomes runnable at
// the current virtual time. Spawn may be called before Run or from within
// another process.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	if s.closed {
		panic("sim: Spawn after Shutdown")
	}
	var p *Proc
	if n := len(s.free); n > 0 {
		p = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		p = &Proc{s: s, resume: make(chan resumeSignal, 1)}
		s.procs[p] = struct{}{}
		go p.loop()
	}
	p.name, p.fn = name, fn
	s.schedule(s.now, p, nil)
	return p
}

// loop is a process goroutine: it runs one function per Spawn, returning to
// the free list in between, until Shutdown stops it.
func (p *Proc) loop() {
	defer func() {
		switch r := recover(); r.(type) {
		case stoppedError:
			p.s.yield <- struct{}{}
		case nil:
			// runtime.Goexit (t.FailNow in a test's process): the goroutine
			// is gone for good, so pass control on without waiting.
			delete(p.s.procs, p)
			p.s.transfer(p.s.next())
		default:
			panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
		}
	}()
	p.wait()
	for {
		p.fn(p)
		p.fn = nil
		p.s.free = append(p.s.free, p)
		p.park()
	}
}

// next executes due events until one resumes a process, and returns that
// process; nil means nothing is due by the limit and the driver must take
// control back.
func (s *Sim) next() *Proc {
	for len(s.queue) > 0 && s.queue[0].at <= s.limit {
		ev := s.queue.pop()
		s.now = ev.at
		if ev.proc == nil {
			s.events++
			ev.fn()
			continue
		}
		if ev.proc.wake != ev.seq {
			continue // superseded wakeup
		}
		ev.proc.wake = 0
		s.events++
		return ev.proc
	}
	return nil
}

// transfer hands control to p, or to the driver when p is nil.
func (s *Sim) transfer(p *Proc) {
	if p == nil {
		s.yield <- struct{}{}
		return
	}
	p.resume <- resumeRun
}

// drive runs events up to the limit from the driver's goroutine and returns
// once control comes back to it.
func (s *Sim) drive(limit Time) {
	s.limit = limit
	if p := s.next(); p != nil {
		s.transfer(p)
		<-s.yield
	}
}

// Run executes events until the event queue is empty.
func (s *Sim) Run() { s.drive(MaxTime) }

// RunUntil executes events with time <= t. The clock is left at min(t, time
// of last event executed); if events remain they stay queued.
func (s *Sim) RunUntil(t Time) {
	s.drive(t)
	if s.now < t {
		s.now = t
	}
}

// Shutdown terminates every parked and pooled process and marks the
// simulation closed. It must be called from the driver (not from inside a
// process). Blocking primitives inside processes unwind via an internal
// panic that the process wrapper recovers.
func (s *Sim) Shutdown() {
	s.closed = true
	s.limit = -1 // an unwinding process that parks hands straight back
	for p := range s.procs {
		delete(s.procs, p)
		p.resume <- resumeStop
		<-s.yield
	}
	s.queue = s.queue[:0]
	s.free = nil
}

// park gives up control until the process's wakeup is delivered.
func (p *Proc) park() {
	next := p.s.next()
	if next == p {
		return
	}
	p.s.transfer(next)
	p.wait()
}

// wait blocks until control is handed to the process.
func (p *Proc) wait() {
	if <-p.resume == resumeStop {
		panic(stoppedError{})
	}
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.s.now }

// Sim returns the simulation this process belongs to.
func (p *Proc) Sim() *Sim { return p.s }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Sleep suspends the process for d nanoseconds of virtual time. Negative
// durations are treated as zero.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.s.schedule(p.s.now+d, p, nil)
	p.park()
}

// Yield suspends the process until the scheduler has drained all events at
// the current instant, preserving FIFO order with respect to other runnable
// processes.
func (p *Proc) Yield() { p.Sleep(0) }

// Resource is a counted resource (semaphore) with FIFO granting, e.g. a pool
// of CPU cores or a NIC processing unit. It tracks aggregate busy time so
// runs can report utilization.
type Resource struct {
	s        *Sim
	capacity int
	inUse    int
	waiters  fifo[*Proc]
	// busy accumulates unit-nanoseconds of held capacity; lastChange is the
	// last time inUse changed.
	busy       Time
	lastChange Time
}

// NewResource creates a resource with the given capacity (>= 1).
func NewResource(s *Sim, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{s: s, capacity: capacity}
}

// account folds the elapsed busy time up to now into the running total.
func (r *Resource) account() {
	now := r.s.now
	r.busy += Time(r.inUse) * (now - r.lastChange)
	r.lastChange = now
}

// Acquire obtains one unit, blocking in virtual time until available.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity && r.waiters.len() == 0 {
		r.account()
		r.inUse++
		return
	}
	r.waiters.push(p)
	p.park() // resumed by Release via scheduled wake
	// Unit was transferred to us by Release; inUse already accounts for it.
}

// TryAcquire obtains one unit if immediately available.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.capacity && r.waiters.len() == 0 {
		r.account()
		r.inUse++
		return true
	}
	return false
}

// Release returns one unit, waking the oldest waiter if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release without Acquire")
	}
	if r.waiters.len() > 0 {
		// Transfer the unit directly to the oldest waiter; wake it at the
		// current instant in FIFO order.
		r.s.schedule(r.s.now, r.waiters.pop(), nil)
		return
	}
	r.account()
	r.inUse--
}

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// Capacity returns the resource capacity.
func (r *Resource) Capacity() int { return r.capacity }

// QueueLen returns the number of processes waiting to acquire.
func (r *Resource) QueueLen() int { return r.waiters.len() }

// BusyTime returns the accumulated unit-nanoseconds of held capacity up to
// the current virtual time.
func (r *Resource) BusyTime() Time {
	return r.busy + Time(r.inUse)*(r.s.now-r.lastChange)
}

// Utilization returns BusyTime divided by capacity over the window
// [since, now], in [0, 1+]. Callers snapshot BusyTime at the window start.
func (r *Resource) Utilization(busyAtStart, since Time) float64 {
	window := r.s.now - since
	if window <= 0 {
		return 0
	}
	return float64(r.BusyTime()-busyAtStart) / float64(window) / float64(r.capacity)
}

// Use acquires the resource, sleeps for the given service time, and
// releases. It models a visit to a FIFO service station.
func (r *Resource) Use(p *Proc, service Time) {
	r.Acquire(p)
	p.Sleep(service)
	r.Release()
}

// Queue is an unbounded FIFO message queue (a simpy-style store). Put never
// blocks; Get blocks in virtual time until an item is available.
type Queue struct {
	s       *Sim
	items   fifo[any]
	getters fifo[*Proc]
	// maxLen tracks the high-water mark, for instrumentation.
	maxLen int
}

// NewQueue creates an empty queue.
func NewQueue(s *Sim) *Queue { return &Queue{s: s} }

// Put appends v and wakes the oldest blocked getter, if any. It may be
// called from process or scheduler context.
func (q *Queue) Put(v any) {
	q.items.push(v)
	if q.items.len() > q.maxLen {
		q.maxLen = q.items.len()
	}
	if q.getters.len() > 0 {
		q.s.schedule(q.s.now, q.getters.pop(), nil)
	}
}

// Get removes and returns the oldest item, blocking in virtual time while
// the queue is empty.
func (q *Queue) Get(p *Proc) any {
	for q.items.len() == 0 {
		q.getters.push(p)
		p.park()
	}
	return q.items.pop()
}

// Len returns the current queue length.
func (q *Queue) Len() int { return q.items.len() }

// MaxLen returns the high-water mark of the queue length.
func (q *Queue) MaxLen() int { return q.maxLen }

// Event is a one-shot level-triggered signal processes can wait on.
type Event struct {
	s       *Sim
	fired   bool
	waiters []*Proc
}

// NewEvent creates an unfired event.
func NewEvent(s *Sim) *Event { return &Event{s: s} }

// Fire marks the event fired and wakes all waiters. Firing twice is a no-op.
func (e *Event) Fire() {
	if e.fired {
		return
	}
	e.fired = true
	for _, w := range e.waiters {
		e.s.schedule(e.s.now, w, nil)
	}
	clear(e.waiters)
	e.waiters = e.waiters[:0]
}

// Reset re-arms a fired event, so one Event can serve a sequence of
// one-shot waits without reallocating. No process may be waiting on it.
func (e *Event) Reset() {
	if len(e.waiters) > 0 {
		panic("sim: Reset of an event with waiters")
	}
	e.fired = false
}

// Fired reports whether the event has fired.
func (e *Event) Fired() bool { return e.fired }

// Wait blocks the process in virtual time until the event fires.
func (e *Event) Wait(p *Proc) {
	if e.fired {
		return
	}
	e.waiters = append(e.waiters, p)
	p.park()
}

// fifo is a FIFO list that keeps its storage: pop advances a head index
// instead of slicing the front away, and push compacts before it would grow,
// so a list that fills and drains repeatedly stops allocating.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

func (f *fifo[T]) push(v T) {
	if f.head > 0 && len(f.buf) == cap(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf, f.head = f.buf[:n], 0
	}
	f.buf = append(f.buf, v)
}

func (f *fifo[T]) pop() T {
	v := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero
	f.head++
	if f.head == len(f.buf) {
		f.buf, f.head = f.buf[:0], 0
	}
	return v
}
