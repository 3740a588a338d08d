package nam

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/namdb/rdmatree/internal/rdma"
)

func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{Op: OpLookup, Key: 42},
		{Op: OpRange, Key: 10, End: 99},
		{Op: OpInsert, Key: 7, Value: 70},
		{Op: OpDelete, Key: 7, Value: 70},
		{Op: OpTraverse, Key: 123456789},
		{Op: OpInstall, End: 55, Left: rdma.MakePtr(1, 512), Right: rdma.MakePtr(2, 1024)},
		{Op: OpCatalog},
	}
	for _, r := range reqs {
		got, err := DecodeRequest(r.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if got != r {
			t.Fatalf("round trip: got %+v want %+v", got, r)
		}
	}
}

func TestRequestRoundTripProperty(t *testing.T) {
	f := func(op uint8, key, end, value uint64, ls, rs uint8, lo, ro uint64) bool {
		r := Request{
			Op: op, Key: key, End: end, Value: value,
			Left:  rdma.MakePtr(int(ls%rdma.MaxServers), lo%rdma.MaxOffset),
			Right: rdma.MakePtr(int(rs%rdma.MaxServers), ro%rdma.MaxOffset),
		}
		got, err := DecodeRequest(r.Encode())
		return err == nil && got == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRequestAppendTo pins the caller-owned encoding the blocking RPC path
// uses: AppendTo extends dst with exactly Encode's bytes, and into a buffer
// with room it allocates nothing.
func TestRequestAppendTo(t *testing.T) {
	r := Request{Op: OpInstall, Key: 1, End: 55, Value: 9, Left: rdma.MakePtr(1, 512), Right: rdma.MakePtr(2, 1024), Group: 3}
	b := r.AppendTo([]byte{0xee})
	if want := append([]byte{0xee}, r.Encode()...); string(b) != string(want) {
		t.Fatalf("AppendTo = %x, want %x", b, want)
	}
	buf := make([]byte, 0, requestBytes)
	if a := testing.AllocsPerRun(100, func() { buf = r.AppendTo(buf[:0]) }); a != 0 {
		t.Errorf("AppendTo into a buffer with room allocates %v times, want 0", a)
	}
}

func TestDecodeRequestShort(t *testing.T) {
	if _, err := DecodeRequest([]byte{1, 2, 3}); err == nil {
		t.Fatal("short request accepted")
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resps := []Response{
		{Status: StatusOK},
		{Status: StatusNotFound},
		{Status: StatusOK, Ptr: rdma.MakePtr(3, 4096)},
		{Status: StatusOK, Values: []uint64{1, 2, 3}},
		{Status: StatusOK, Pairs: []uint64{10, 100, 11, 110}},
		{Status: StatusErr, Err: "boom"},
		{Status: StatusOK, Values: []uint64{9}, Pairs: []uint64{1, 2}, Err: ""},
		{Status: StatusOK, Ptr: rdma.MakePtr(1, 64), Load: 87},
		{Status: StatusOK, Load: 100},
	}
	for _, r := range resps {
		got, err := DecodeResponse(r.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != r.Status || got.Ptr != r.Ptr || got.Err != r.Err {
			t.Fatalf("round trip: got %+v want %+v", got, r)
		}
		if got.Load != r.Load {
			t.Fatalf("round trip load: got %d want %d", got.Load, r.Load)
		}
		if len(got.Values) != len(r.Values) || len(got.Pairs) != len(r.Pairs) {
			t.Fatalf("round trip lengths: got %+v want %+v", got, r)
		}
		for i := range r.Values {
			if got.Values[i] != r.Values[i] {
				t.Fatalf("values differ: %v vs %v", got.Values, r.Values)
			}
		}
		for i := range r.Pairs {
			if got.Pairs[i] != r.Pairs[i] {
				t.Fatalf("pairs differ: %v vs %v", got.Pairs, r.Pairs)
			}
		}
	}
}

// dirtyResponse carries every field, including the dirty-page trailer with
// all three kinds.
var dirtyResponse = Response{
	Status: StatusErr,
	Ptr:    rdma.MakePtr(1, 64),
	Values: []uint64{4, 5},
	Pairs:  []uint64{1, 10},
	Err:    "partial",
	Dirty: []DirtyPage{
		{Kind: DirtyFull, Ptr: rdma.MakePtr(0, 512), Words: []uint64{2, 3, 4}},
		{Kind: DirtyFresh, Ptr: rdma.MakePtr(2, 1024), Words: []uint64{0, 7}},
		{Kind: DirtyWord, Ptr: rdma.MakePtr(0, 8), Words: []uint64{99}},
	},
	Load: 42,
}

// TestResponseRoundTripDirty round-trips the dirty-page and load trailers.
func TestResponseRoundTripDirty(t *testing.T) {
	r := dirtyResponse
	got, err := DecodeResponse(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != r.Status || got.Ptr != r.Ptr || got.Err != r.Err || got.Load != r.Load ||
		len(got.Values) != 2 || got.Values[1] != 5 || len(got.Pairs) != 2 || got.Pairs[1] != 10 {
		t.Fatalf("round trip: got %+v want %+v", got, r)
	}
	if len(got.Dirty) != len(r.Dirty) {
		t.Fatalf("dirty pages: got %d want %d", len(got.Dirty), len(r.Dirty))
	}
	for i, d := range r.Dirty {
		g := got.Dirty[i]
		if g.Kind != d.Kind || g.Ptr != d.Ptr || len(g.Words) != len(d.Words) {
			t.Fatalf("dirty[%d]: got %+v want %+v", i, g, d)
		}
		for j := range d.Words {
			if g.Words[j] != d.Words[j] {
				t.Fatalf("dirty[%d] words: got %v want %v", i, g.Words, d.Words)
			}
		}
	}
}

// TestResponseEncodeOneAlloc pins Encode's exact buffer sizing: one
// allocation per reply, and no spare capacity, with or without dirty pages.
func TestResponseEncodeOneAlloc(t *testing.T) {
	for name, r := range map[string]*Response{
		"plain": {Status: StatusOK, Values: []uint64{1, 2, 3}, Load: 7},
		"dirty": &dirtyResponse,
	} {
		if a := testing.AllocsPerRun(100, func() { _ = r.Encode() }); a != 1 {
			t.Errorf("%s: Encode allocates %v times, want 1", name, a)
		}
		if b := r.Encode(); len(b) != cap(b) {
			t.Errorf("%s: encoded %d bytes into a %d-byte buffer", name, len(b), cap(b))
		}
	}
}

// TestDecodeResponseNoLoadTrailer pins backward compatibility: a response
// encoded before the load trailer existed (bytes end after the dirty-page
// trailer) decodes with Load 0.
func TestDecodeResponseNoLoadTrailer(t *testing.T) {
	r := Response{Status: StatusOK, Ptr: rdma.MakePtr(2, 128), Load: 55}
	b := r.Encode()
	got, err := DecodeResponse(b[:len(b)-1])
	if err != nil {
		t.Fatal(err)
	}
	if got.Load != 0 || got.Ptr != r.Ptr {
		t.Fatalf("pre-load decode: got Load=%d Ptr=%v, want Load=0 Ptr=%v", got.Load, got.Ptr, r.Ptr)
	}
}

func TestDecodeResponseTruncated(t *testing.T) {
	r := Response{Status: StatusOK, Values: []uint64{1, 2, 3, 4}}
	b := r.Encode()
	for cut := 1; cut < len(b); cut += 7 {
		if _, err := DecodeResponse(b[:cut]); err == nil && cut < len(b)-1 {
			// Some prefixes may decode if counts are zeroed; only the full
			// buffer must decode losslessly. Just ensure no panic.
			continue
		}
	}
}

func TestErrResponseHelpers(t *testing.T) {
	r := ErrResponse(errTest("x failed"))
	if r.Status != StatusErr {
		t.Fatal("status")
	}
	dec, err := DecodeResponse(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.AsError() == nil {
		t.Fatal("AsError returned nil for error response")
	}
	ok := Response{Status: StatusOK}
	if ok.AsError() != nil {
		t.Fatal("AsError non-nil for OK")
	}
}

func TestRetryResponseRoundTrip(t *testing.T) {
	r := RetryResponse(errTest("handler out of budget"))
	if r.Status != StatusRetry {
		t.Fatal("status")
	}
	dec, err := DecodeResponse(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	aerr := dec.AsError()
	if !errors.Is(aerr, ErrRemoteRetry) {
		t.Fatalf("decoded retry response does not wrap ErrRemoteRetry: %v", aerr)
	}
	if errors.Is(ErrResponse(errTest("opaque")).AsError(), ErrRemoteRetry) {
		t.Fatal("opaque error response must not read as retryable")
	}
}

type errTest string

func (e errTest) Error() string { return string(e) }

func TestCatalogRoundTrip(t *testing.T) {
	c := &Catalog{
		Design:      Hybrid,
		PageBytes:   1024,
		Servers:     4,
		PartKind:    PartRange,
		RootWords:   []rdma.RemotePtr{RootWordPtr(0), RootWordPtr(1), RootWordPtr(2), RootWordPtr(3)},
		RangeBounds: []uint64{100, 200, 300},
	}
	got, err := DecodeCatalog(c.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Design != c.Design || got.PageBytes != c.PageBytes || got.Servers != c.Servers || got.PartKind != c.PartKind {
		t.Fatalf("catalog header: %+v", got)
	}
	if len(got.RootWords) != 4 || got.RootWords[2] != RootWordPtr(2) {
		t.Fatalf("roots: %v", got.RootWords)
	}
	if len(got.RangeBounds) != 3 || got.RangeBounds[1] != 200 {
		t.Fatalf("bounds: %v", got.RangeBounds)
	}
	p := got.Partitioner()
	if p.Server(50) != 0 || p.Server(150) != 1 || p.Server(250) != 2 || p.Server(350) != 3 {
		t.Fatal("partitioner from catalog wrong")
	}
}

func TestCatalogHashPartitioner(t *testing.T) {
	c := &Catalog{Design: CoarseGrained, Servers: 4, PartKind: PartHash}
	p := c.Partitioner()
	if p.Servers() != 4 {
		t.Fatalf("servers = %d", p.Servers())
	}
	if got := p.CoversRange(1, 2); len(got) != 4 {
		t.Fatal("hash partitioner must cover all servers for ranges")
	}
}

func TestTopology(t *testing.T) {
	top := PaperTopology(4, 6, 40)
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
	if top.MemMachines() != 2 {
		t.Fatalf("MemMachines = %d", top.MemMachines())
	}
	if top.Clients() != 240 {
		t.Fatalf("Clients = %d", top.Clients())
	}
	if top.MachineOfServer(0) != 0 || top.MachineOfServer(1) != 0 || top.MachineOfServer(2) != 1 {
		t.Fatal("server machine mapping wrong")
	}
	if top.ServerCrossesQPI(0) || !top.ServerCrossesQPI(1) {
		t.Fatal("QPI mapping wrong")
	}
	if top.LocalServer(0) != -1 {
		t.Fatal("non-colocated topology has local servers")
	}
}

func TestTopologyCoLocated(t *testing.T) {
	top := Topology{
		MemServers: 4, MemServersPerMachine: 1,
		ComputeMachines: 4, ClientsPerMachine: 20,
		CoLocated: true,
	}
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < top.Clients(); c++ {
		s := top.LocalServer(c)
		if s != c%4 {
			t.Fatalf("client %d local server = %d", c, s)
		}
	}
	bad := top
	bad.ComputeMachines = 3
	if bad.Validate() == nil {
		t.Fatal("mismatched co-location accepted")
	}
}

func TestTopologyValidation(t *testing.T) {
	bad := []Topology{
		{},
		{MemServers: 1, MemServersPerMachine: 0, ComputeMachines: 1, ClientsPerMachine: 1},
		{MemServers: 1, MemServersPerMachine: 1, ComputeMachines: 0, ClientsPerMachine: 1},
	}
	for i, tp := range bad {
		if tp.Validate() == nil {
			t.Fatalf("topology %d accepted: %+v", i, tp)
		}
	}
}
