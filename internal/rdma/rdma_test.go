package rdma

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestRemotePtrRoundTrip(t *testing.T) {
	cases := []struct {
		server int
		offset uint64
	}{
		{0, 0},
		{0, 8},
		{1, 0},
		{127, MaxOffset},
		{63, 1 << 40},
	}
	for _, c := range cases {
		p := MakePtr(c.server, c.offset)
		if p.IsNull() {
			t.Fatalf("MakePtr(%d,%#x) is null", c.server, c.offset)
		}
		if p.Server() != c.server || p.Offset() != c.offset {
			t.Fatalf("round trip (%d,%#x) -> (%d,%#x)", c.server, c.offset, p.Server(), p.Offset())
		}
	}
}

func TestRemotePtrRoundTripProperty(t *testing.T) {
	f := func(server uint8, offset uint64) bool {
		s := int(server % MaxServers)
		o := (offset % MaxOffset) &^ 7
		p := MakePtr(s, o)
		return !p.IsNull() && p.Server() == s && p.Offset() == o
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNullPtr(t *testing.T) {
	if !NullPtr.IsNull() {
		t.Fatal("NullPtr not null")
	}
	if NullPtr.String() != "null" {
		t.Fatalf("NullPtr.String() = %q", NullPtr.String())
	}
	if MakePtr(0, 0).IsNull() {
		t.Fatal("pointer to server 0 offset 0 must not be null")
	}
}

func TestRemotePtrAdd(t *testing.T) {
	p := MakePtr(5, 100)
	q := p.Add(24)
	if q.Server() != 5 || q.Offset() != 124 {
		t.Fatalf("Add: got (%d,%d)", q.Server(), q.Offset())
	}
}

func TestMakePtrPanicsOnBadServer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MakePtr(MaxServers, 0)
}

func TestRegionReadWrite(t *testing.T) {
	r := NewRegion(1024)
	src := []uint64{1, 2, 3, 4, 5}
	r.Write(64, src)
	dst := make([]uint64, 5)
	r.Read(64, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("read back %v; want %v", dst, src)
		}
	}
	// Unwritten memory reads as zero.
	r.Read(512, dst)
	for _, v := range dst {
		if v != 0 {
			t.Fatalf("unwritten memory read %v; want zeros", dst)
		}
	}
}

func TestMappedRegionRelease(t *testing.T) {
	r, err := NewMappedRegion(1<<20 + 13)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 1<<20+16 {
		t.Fatalf("Size = %d; want %d", r.Size(), 1<<20+16)
	}
	dst := make([]uint64, 3)
	r.Read(1<<19, dst) // untouched pages read as zero
	if dst[0]|dst[1]|dst[2] != 0 {
		t.Fatalf("fresh mapping read %v; want zeros", dst)
	}
	r.Write(1<<19, []uint64{7, 8, 9})
	if got := r.CompareAndSwap(1<<19+8, 8, 80); got != 8 || r.Load(1<<19+8) != 80 {
		t.Fatalf("CAS on mapped region returned %d, left %d", got, r.Load(1<<19+8))
	}
	if err := r.Release(); err != nil {
		t.Fatal(err)
	}
	if r.Size() != 0 {
		t.Fatalf("Size after Release = %d; want 0", r.Size())
	}
	if err := r.Release(); err != nil {
		t.Fatalf("second Release: %v", err)
	}
	// The released region no longer addresses the unmapped memory: an
	// access panics like any out-of-range access instead of faulting.
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on access after Release")
		}
	}()
	r.Load(1 << 19)
}

func TestRegionSizeRoundsUp(t *testing.T) {
	r := NewRegion(13)
	if r.Size() != 16 {
		t.Fatalf("Size = %d; want 16", r.Size())
	}
}

func TestRegionUnalignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unaligned offset")
		}
	}()
	r := NewRegion(64)
	r.Load(4)
}

func TestRegionOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range access")
		}
	}()
	r := NewRegion(64)
	r.Read(56, make([]uint64, 2))
}

func TestRegionCASSemantics(t *testing.T) {
	r := NewRegion(64)
	r.Store(8, 42)
	// Successful CAS returns the old value.
	if got := r.CompareAndSwap(8, 42, 99); got != 42 {
		t.Fatalf("CAS returned %d; want 42", got)
	}
	if r.Load(8) != 99 {
		t.Fatalf("value after CAS = %d; want 99", r.Load(8))
	}
	// Failed CAS returns the current value and does not modify.
	if got := r.CompareAndSwap(8, 42, 7); got != 99 {
		t.Fatalf("failed CAS returned %d; want 99", got)
	}
	if r.Load(8) != 99 {
		t.Fatalf("value mutated by failed CAS: %d", r.Load(8))
	}
}

func TestRegionFetchAdd(t *testing.T) {
	r := NewRegion(64)
	r.Store(16, 10)
	if got := r.FetchAdd(16, 5); got != 10 {
		t.Fatalf("FetchAdd returned %d; want 10", got)
	}
	if r.Load(16) != 15 {
		t.Fatalf("value after FetchAdd = %d; want 15", r.Load(16))
	}
}

func TestRegionConcurrentAtomics(t *testing.T) {
	r := NewRegion(64)
	const goroutines = 8
	const perG = 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.FetchAdd(0, 1)
			}
		}()
	}
	wg.Wait()
	if got := r.Load(0); got != goroutines*perG {
		t.Fatalf("counter = %d; want %d", got, goroutines*perG)
	}
}

func TestRegionConcurrentCASLock(t *testing.T) {
	// A CAS-based spinlock protecting a plain counter word must not lose
	// updates.
	r := NewRegion(64)
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				for {
					if r.CompareAndSwap(0, 0, 1) == 0 {
						break
					}
				}
				r.Store(8, r.Load(8)+1)
				if r.CompareAndSwap(0, 1, 0) != 1 {
					t.Error("lock word corrupted")
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Load(8); got != goroutines*perG {
		t.Fatalf("counter = %d; want %d", got, goroutines*perG)
	}
}

func TestAllocatorBumpAndReuse(t *testing.T) {
	a := NewAllocator(0, 1024)
	o1, err := a.Alloc(100) // rounds to 104
	if err != nil {
		t.Fatal(err)
	}
	o2, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if o1 == o2 {
		t.Fatal("two allocations returned the same offset")
	}
	if o1%8 != 0 || o2%8 != 0 {
		t.Fatalf("unaligned allocations %d, %d", o1, o2)
	}
	a.Free(o1, 100)
	o3, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if o3 != o1 {
		t.Fatalf("freed block not reused: got %d want %d", o3, o1)
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	a := NewAllocator(0, 64)
	if _, err := a.Alloc(64); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(8); err != ErrOutOfMemory {
		t.Fatalf("err = %v; want ErrOutOfMemory", err)
	}
}

func TestAllocatorReservedStart(t *testing.T) {
	a := NewAllocator(128, 1024)
	off, err := a.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if off < 128 {
		t.Fatalf("allocation %d inside reserved area", off)
	}
}

func TestAllocatorConcurrent(t *testing.T) {
	a := NewAllocator(0, 1<<20)
	var mu sync.Mutex
	seen := make(map[uint64]bool)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				off, err := a.Alloc(64)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if seen[off] {
					t.Errorf("offset %d allocated twice", off)
				}
				seen[off] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestAllocatorUsedAccounting(t *testing.T) {
	a := NewAllocator(0, 1024)
	o, _ := a.Alloc(64)
	if a.Used() != 64 {
		t.Fatalf("Used = %d; want 64", a.Used())
	}
	a.Free(o, 64)
	if a.Used() != 0 {
		t.Fatalf("Used after free = %d; want 0", a.Used())
	}
	if a.Remaining() != 1024-64 {
		t.Fatalf("Remaining = %d; want %d", a.Remaining(), 1024-64)
	}
}

func TestAllocatorFreeRejectsBogusOffsets(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Free accepted a bogus offset", name)
			}
		}()
		f()
	}

	a := NewAllocator(128, 1024)
	off, err := a.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}

	mustPanic("misaligned", func() { a.Free(off+4, 64) })
	mustPanic("before start", func() { a.Free(64, 64) })
	mustPanic("past bump pointer", func() { a.Free(off+64, 64) })
	mustPanic("tail past bump pointer", func() { a.Free(off, 128) })

	// The genuine block is still accepted and reused after the rejections.
	a.Free(off, 64)
	got, err := a.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if got != off {
		t.Fatalf("freed block not reused: got %#x, want %#x", got, off)
	}
}

func TestNewServerLayout(t *testing.T) {
	s := NewServer(3, 4096, 256)
	if s.ID != 3 {
		t.Fatalf("ID = %d", s.ID)
	}
	if s.Region.Size() != 4096 {
		t.Fatalf("region size = %d", s.Region.Size())
	}
	off, err := s.Alloc.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if off < 256 {
		t.Fatalf("allocation %d inside reserved superblock", off)
	}
}
