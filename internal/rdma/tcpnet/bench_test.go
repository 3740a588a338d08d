package tcpnet

import (
	"testing"

	"github.com/namdb/rdmatree/internal/rdma"
)

const benchPageWords = 128 // a 1 KB index page

// hotPath is the verb set of the index hot path on two loopback agents: a
// page to read and write, its first word as version/lock word, and eight
// page buffers for a doorbell round.
type hotPath struct {
	ep    *Endpoint
	page  rdma.RemotePtr
	buf   []uint64
	ptrs  []rdma.RemotePtr // ReadMulti: page + version word
	dsts  [][]uint64
	bufs  [][]uint64
	comps []rdma.Completion
}

func newHotPath(tb testing.TB) *hotPath {
	echo := func(_ rdma.Env, _ int, req []byte) ([]byte, rdma.Work) { return req, rdma.Work{} }
	addrs, _ := startCluster(tb, 2, echo)
	h := &hotPath{ep: Dial(addrs), buf: make([]uint64, benchPageWords)}
	tb.Cleanup(h.ep.Close)
	var err error
	if h.page, err = h.ep.Alloc(1, 8*benchPageWords); err != nil {
		tb.Fatal(err)
	}
	h.ptrs = []rdma.RemotePtr{h.page, h.page}
	h.dsts = [][]uint64{h.buf, make([]uint64, 1)}
	for i := 0; i < 8; i++ {
		h.bufs = append(h.bufs, make([]uint64, benchPageWords))
	}
	return h
}

// flush8 is one pipelined round as pipeline.Engine issues it: eight posted
// reads, one doorbell, one poll.
func (h *hotPath) flush8(tb testing.TB) {
	for _, dst := range h.bufs {
		h.ep.PostRead(h.page, dst)
	}
	h.ep.Flush()
	h.comps = h.ep.Poll(h.comps[:0])
	for _, c := range h.comps {
		if c.Err != nil {
			tb.Fatal(c.Err)
		}
	}
}

// maxCallAllocs is what a Call may allocate: the caller's copy of the
// response (see Endpoint.complete). The echo handler adds none.
const maxCallAllocs = 1

// TestVerbsAllocateNothing gates the allocation-free frame path. AllocsPerRun
// counts the whole process, so the in-process agents' side of every verb is
// included.
func TestVerbsAllocateNothing(t *testing.T) {
	h := newHotPath(t)
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	req := make([]byte, 42) // a nam.Request's size
	verbs := []struct {
		name string
		max  float64
		run  func()
	}{
		{"Read", 0, func() { check(h.ep.Read(h.page, h.buf)) }},
		{"ReadMulti", 0, func() { check(h.ep.ReadMulti(h.ptrs, h.dsts)) }},
		{"Write", 0, func() { check(h.ep.Write(h.page, h.buf)) }},
		{"CompareAndSwap", 0, func() {
			// The Write above left the page zeroed.
			if prior, err := h.ep.CompareAndSwap(h.page, 0, 0); err != nil || prior != 0 {
				t.Fatalf("CAS on a zeroed word: prior %d, err %v", prior, err)
			}
		}},
		{"FetchAdd", 0, func() { _, err := h.ep.FetchAdd(h.page, 1); check(err) }},
		{"Post8FlushPoll", 0, func() { h.flush8(t) }},
		{"Call", maxCallAllocs, func() { _, err := h.ep.Call(0, req); check(err) }},
	}
	for _, v := range verbs {
		v.run() // warm-up: dial, grow both sides' scratch buffers
		if got := testing.AllocsPerRun(200, v.run); got > v.max {
			t.Errorf("%s: %.0f allocs per run, want at most %.0f", v.name, got, v.max)
		}
	}
}

func BenchmarkTCPReadPage(b *testing.B) {
	h := newHotPath(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.ep.Read(h.page, h.buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCPReadMulti2(b *testing.B) {
	h := newHotPath(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.ep.ReadMulti(h.ptrs, h.dsts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCPFlush8(b *testing.B) {
	h := newHotPath(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.flush8(b)
	}
}
