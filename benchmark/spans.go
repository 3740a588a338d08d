package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/namdb/rdmatree/internal/core"
	"github.com/namdb/rdmatree/internal/rdma"
)

// span is one record of the traced run: a layer boundary crossed on behalf
// of an operation. Times are nanoseconds since the log was created.
type span struct {
	Layer  layerID `json:"layer"` // index into the file's "layers" list
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Parent int32   `json:"parent"` // index of the span that caused this one; -1 for a root
	Op     int64   `json:"op"`     // harness operation id; -1 for work shared by several ops
}

// layerID names a layer boundary registered with spanLog.layer.
type layerID int32

// maxFileSpans bounds the span file: the per-layer totals cover every span
// of the traced run, the file holds the first maxFileSpans of them.
const maxFileSpans = 200_000

// spanLog collects the spans of one client goroutine. It is not safe for
// concurrent use: like the endpoint and client it observes, it belongs to
// the goroutine that runs the operations (direct runs RPC handlers on that
// same goroutine, and tcpnet's agents carry no shim).
type spanLog struct {
	now func() int64

	spans []span // first maxFileSpans spans, for the file
	total int64  // spans recorded, stored or not
	op    int64  // current operation id
	// off suspends recording; flip it only while no span is open.
	off bool
	// opNS is the total duration of the root spans.
	opNS int64

	// open is the stack of spans begun and not yet ended.
	open []openSpan

	// Per-layer totals over all spans, indexed by layerID: a layer's self
	// time is its spans' duration minus the part their child spans cover.
	layers []string
	self   []int64
	count  []int64
}

type openSpan struct {
	layer    layerID
	start    int64
	children int64 // duration covered by ended child spans
	idx      int32 // index in spans, -1 when past the file limit
}

func newSpanLog() *spanLog {
	t0 := time.Now()
	return newSpanLogClock(func() int64 { return int64(time.Since(t0)) })
}

func newSpanLogClock(now func() int64) *spanLog {
	return &spanLog{
		now:   now,
		spans: make([]span, 0, maxFileSpans),
		open:  make([]openSpan, 0, 16),
		op:    -1,
	}
}

// layer registers (or finds) the layer boundary called name.
func (l *spanLog) layer(name string) layerID {
	for i, n := range l.layers {
		if n == name {
			return layerID(i)
		}
	}
	l.layers = append(l.layers, name)
	l.self = append(l.self, 0)
	l.count = append(l.count, 0)
	return layerID(len(l.layers) - 1)
}

// begin opens a span of layer id under the innermost open span.
func (l *spanLog) begin(id layerID) {
	if l.off {
		return
	}
	o := openSpan{layer: id, start: l.now(), idx: -1}
	if len(l.spans) < cap(l.spans) {
		parent := int32(-1)
		if n := len(l.open); n > 0 {
			parent = l.open[n-1].idx
		}
		o.idx = int32(len(l.spans))
		l.spans = append(l.spans, span{Layer: id, Start: o.start, Parent: parent, Op: l.op})
	}
	l.open = append(l.open, o)
	l.total++
}

// end closes the innermost open span and books its self time.
func (l *spanLog) end() {
	if l.off {
		return
	}
	n := len(l.open) - 1
	o := l.open[n]
	l.open = l.open[:n]
	end := l.now()
	dur := end - o.start
	if o.idx >= 0 {
		l.spans[o.idx].End = end
	}
	l.self[o.layer] += dur - o.children
	l.count[o.layer]++
	if n > 0 {
		l.open[n-1].children += dur
	} else {
		l.opNS += dur
	}
}

// retro records an already finished root span (a pipelined operation, whose
// begin and end interleave with other operations'). Its whole duration is
// booked as self time: what ran inside it is shared with the other
// operations in flight and carries op -1.
func (l *spanLog) retro(id layerID, op, start, end int64) {
	if len(l.spans) < cap(l.spans) {
		l.spans = append(l.spans, span{Layer: id, Start: start, End: end, Parent: -1, Op: op})
	}
	l.total++
	l.self[id] += end - start
	l.count[id]++
	l.opNS += end - start
}

// selfNS returns the self time booked to the layers whose name starts with
// prefix, and the number of their spans.
func (l *spanLog) selfNS(prefix string) (ns, spans int64) {
	for i, n := range l.layers {
		if strings.HasPrefix(n, prefix) {
			ns += l.self[i]
			spans += l.count[i]
		}
	}
	return ns, spans
}

// opTotals returns the total duration of the operation spans and the sum of
// every layer's self time. When every span nests inside an operation span —
// the serial workloads — the two agree by construction; the traced run
// prints their ratio as a check that no shim lost a span.
func (l *spanLog) opTotals() (opNS, selfNS int64) {
	for _, s := range l.self {
		selfNS += s
	}
	return l.opNS, selfNS
}

// writeFile writes the stored spans and the per-layer totals as one JSON
// document.
func (l *spanLog) writeFile(path string) error {
	self := map[string]int64{}
	count := map[string]int64{}
	for i, n := range l.layers {
		self[n], count[n] = l.self[i], l.count[i]
	}
	doc := struct {
		TotalSpans int64            `json:"total_spans"`
		Layers     []string         `json:"layers"`
		SelfNS     map[string]int64 `json:"self_ns"`
		Count      map[string]int64 `json:"count"`
		Spans      []span           `json:"spans"`
	}{l.total, l.layers, self, count, l.spans}
	blob, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encoding span file: %w", err)
	}
	return os.WriteFile(path, blob, 0o644)
}

// --- the shims ------------------------------------------------------------

// spanEndpoint forwards an rdma.Endpoint, counting verbs and payload bytes
// always and recording one span per verb when log is non-nil. Reconnect is
// forwarded when the inner endpoint has it, as retry.Endpoint does.
type spanEndpoint struct {
	inner rdma.Endpoint
	log   *spanLog
	ids   [numVerbs]layerID // one layer per verb, registered once

	verbs int64
	bytes int64 // payload bytes both ways
}

type verbID int

const (
	verbRead verbID = iota
	verbReadMulti
	verbWrite
	verbCAS
	verbFetchAdd
	verbAlloc
	verbFree
	verbCall
	verbFlush
	verbPoll
	numVerbs
)

var verbNames = [numVerbs]string{"read", "readmulti", "write", "cas", "fetchadd", "alloc", "free", "call", "flush", "poll"}

var (
	_ rdma.Endpoint      = (*spanEndpoint)(nil)
	_ rdma.Reconnector   = (*spanEndpoint)(nil)
	_ rdma.AsyncEndpoint = (*spanAsyncEndpoint)(nil)
)

// wrapEndpoint puts a shim named name around inner. When inner has the
// non-blocking surface the shim has it too, so rdma.Async keeps picking the
// transport's native path.
func wrapEndpoint(inner rdma.Endpoint, log *spanLog, name string) (rdma.Endpoint, *spanEndpoint) {
	s := &spanEndpoint{inner: inner, log: log}
	if log != nil {
		for v, verb := range verbNames {
			s.ids[v] = log.layer(name + "." + verb)
		}
	}
	if a, ok := inner.(rdma.AsyncEndpoint); ok {
		return &spanAsyncEndpoint{spanEndpoint: s, async: a}, s
	}
	return s, s
}

func (e *spanEndpoint) enter(v verbID) {
	e.verbs++
	if e.log != nil {
		e.log.begin(e.ids[v])
	}
}

func (e *spanEndpoint) leave() {
	if e.log != nil {
		e.log.end()
	}
}

func (e *spanEndpoint) Read(p rdma.RemotePtr, dst []uint64) error {
	e.enter(verbRead)
	err := e.inner.Read(p, dst)
	e.leave()
	e.bytes += int64(8 * len(dst))
	return err
}

func (e *spanEndpoint) ReadMulti(ps []rdma.RemotePtr, dst [][]uint64) error {
	e.enter(verbReadMulti)
	err := e.inner.ReadMulti(ps, dst)
	e.leave()
	for _, d := range dst {
		e.bytes += int64(8 * len(d))
	}
	return err
}

func (e *spanEndpoint) Write(p rdma.RemotePtr, src []uint64) error {
	e.enter(verbWrite)
	err := e.inner.Write(p, src)
	e.leave()
	e.bytes += int64(8 * len(src))
	return err
}

func (e *spanEndpoint) CompareAndSwap(p rdma.RemotePtr, old, new uint64) (uint64, error) {
	e.enter(verbCAS)
	prev, err := e.inner.CompareAndSwap(p, old, new)
	e.leave()
	e.bytes += 24
	return prev, err
}

func (e *spanEndpoint) FetchAdd(p rdma.RemotePtr, delta uint64) (uint64, error) {
	e.enter(verbFetchAdd)
	prev, err := e.inner.FetchAdd(p, delta)
	e.leave()
	e.bytes += 16
	return prev, err
}

func (e *spanEndpoint) Alloc(server int, n int) (rdma.RemotePtr, error) {
	e.enter(verbAlloc)
	p, err := e.inner.Alloc(server, n)
	e.leave()
	e.bytes += 16
	return p, err
}

func (e *spanEndpoint) Free(p rdma.RemotePtr, n int) error {
	e.enter(verbFree)
	err := e.inner.Free(p, n)
	e.leave()
	e.bytes += 16
	return err
}

func (e *spanEndpoint) Call(server int, req []byte) ([]byte, error) {
	e.enter(verbCall)
	resp, err := e.inner.Call(server, req)
	e.leave()
	e.bytes += int64(len(req) + len(resp))
	return resp, err
}

func (e *spanEndpoint) NumServers() int { return e.inner.NumServers() }

func (e *spanEndpoint) Reconnect(server int) error {
	if rc, ok := e.inner.(rdma.Reconnector); ok {
		return rc.Reconnect(server)
	}
	return nil
}

// spanAsyncEndpoint adds the post/flush/poll surface. Posting is buffering
// only, so it is counted and not spanned; Flush and Poll, where the wire
// work happens, each get a span.
type spanAsyncEndpoint struct {
	*spanEndpoint
	async rdma.AsyncEndpoint
}

func (e *spanAsyncEndpoint) PostRead(p rdma.RemotePtr, dst []uint64) rdma.Token {
	e.verbs++
	e.bytes += int64(8 * len(dst))
	return e.async.PostRead(p, dst)
}

func (e *spanAsyncEndpoint) PostWrite(p rdma.RemotePtr, src []uint64) rdma.Token {
	e.verbs++
	e.bytes += int64(8 * len(src))
	return e.async.PostWrite(p, src)
}

func (e *spanAsyncEndpoint) PostCAS(p rdma.RemotePtr, old, new uint64) rdma.Token {
	e.verbs++
	e.bytes += 24
	return e.async.PostCAS(p, old, new)
}

func (e *spanAsyncEndpoint) PostFetchAdd(p rdma.RemotePtr, delta uint64) rdma.Token {
	e.verbs++
	e.bytes += 16
	return e.async.PostFetchAdd(p, delta)
}

func (e *spanAsyncEndpoint) PostCall(server int, req []byte) rdma.Token {
	e.verbs++
	e.bytes += int64(len(req))
	return e.async.PostCall(server, req)
}

func (e *spanAsyncEndpoint) Flush() {
	if e.log != nil {
		e.log.begin(e.ids[verbFlush])
	}
	e.async.Flush()
	e.leave()
}

func (e *spanAsyncEndpoint) Poll(out []rdma.Completion) []rdma.Completion {
	if e.log != nil {
		e.log.begin(e.ids[verbPoll])
	}
	base := len(out)
	out = e.async.Poll(out)
	e.leave()
	for i := base; i < len(out); i++ {
		e.bytes += int64(len(out[i].Resp))
	}
	return out
}

// spanIndex forwards a core.Index (and InvalidateRoot) with one span per
// operation.
type spanIndex struct {
	inner core.Index
	log   *spanLog
	id    layerID
}

func wrapIndex(inner core.Index, log *spanLog, name string) *spanIndex {
	return &spanIndex{inner: inner, log: log, id: log.layer(name)}
}

var (
	_ core.Index           = (*spanIndex)(nil)
	_ core.RootInvalidator = (*spanIndex)(nil)
)

func (s *spanIndex) Lookup(key uint64) ([]uint64, error) {
	s.log.begin(s.id)
	v, err := s.inner.Lookup(key)
	s.log.end()
	return v, err
}

func (s *spanIndex) Range(lo, hi uint64, emit func(k, v uint64) bool) error {
	s.log.begin(s.id)
	err := s.inner.Range(lo, hi, emit)
	s.log.end()
	return err
}

func (s *spanIndex) Insert(key, value uint64) error {
	s.log.begin(s.id)
	err := s.inner.Insert(key, value)
	s.log.end()
	return err
}

func (s *spanIndex) Delete(key, value uint64) (bool, error) {
	s.log.begin(s.id)
	ok, err := s.inner.Delete(key, value)
	s.log.end()
	return ok, err
}

func (s *spanIndex) InvalidateRoot() {
	if inv, ok := s.inner.(core.RootInvalidator); ok {
		inv.InvalidateRoot()
	}
}

// spanHandler wraps an RPC handler with one span per call. On direct the
// handler runs on the calling client's goroutine, so the span nests under
// that client's call span.
func spanHandler(h rdma.Handler, log *spanLog, name string) rdma.Handler {
	id := log.layer(name)
	return func(env rdma.Env, server int, req []byte) ([]byte, rdma.Work) {
		log.begin(id)
		resp, w := h(env, server, req)
		log.end()
		return resp, w
	}
}
