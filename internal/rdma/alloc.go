package rdma

import (
	"fmt"
	"sync"
)

// Allocator manages allocation of page-sized blocks inside one memory
// server's Region. It backs the RDMA_ALLOC verb used by the fine-grained
// index protocol (Listing 4 of the paper) to install new pages after splits,
// and the epoch garbage collector's frees.
//
// The allocator is a bump allocator with per-size free lists. It is safe for
// concurrent use: on the direct and tcpnet transports multiple compute
// threads allocate concurrently.
type Allocator struct {
	mu    sync.Mutex
	start uint64
	end   uint64
	next  uint64
	free  map[int][]uint64 // size in bytes -> free offsets (LIFO)
}

// ErrOutOfMemory is returned when a server's region is exhausted.
var ErrOutOfMemory = fmt.Errorf("rdma: region out of memory")

// NewAllocator creates an allocator managing bytes [start, end) of a region.
// Offsets are rounded to 8-byte alignment.
func NewAllocator(start, end uint64) *Allocator {
	start = (start + 7) &^ 7
	end = end &^ 7
	if end < start {
		end = start
	}
	return &Allocator{start: start, end: end, next: start, free: make(map[int][]uint64)}
}

func blockSize(n int) int {
	if n <= 0 {
		panic("rdma: alloc of non-positive size")
	}
	return (n + 7) &^ 7
}

// Alloc returns the offset of a block of at least n bytes.
func (a *Allocator) Alloc(n int) (uint64, error) {
	size := blockSize(n)
	a.mu.Lock()
	defer a.mu.Unlock()
	if lst := a.free[size]; len(lst) > 0 {
		off := lst[len(lst)-1]
		a.free[size] = lst[:len(lst)-1]
		return off, nil
	}
	if a.next+uint64(size) > a.end {
		return 0, ErrOutOfMemory
	}
	off := a.next
	a.next += uint64(size)
	return off, nil
}

// Free returns a block of n bytes at offset off to the allocator. The caller
// must pass the same size it allocated with. Free panics on offsets the
// allocator never handed out — misaligned, before the managed range, or past
// the bump pointer — because accepting one would hand the same words to two
// owners on the next Alloc and corrupt a remote page silently.
func (a *Allocator) Free(off uint64, n int) {
	if err := a.TryFree(off, n); err != nil {
		panic(err.Error())
	}
}

// TryFree is Free for operands an untrusted peer chose (tcpnet's agent): what
// Free panics on, TryFree returns and leaves the allocator untouched.
func (a *Allocator) TryFree(off uint64, n int) error {
	if n <= 0 {
		return fmt.Errorf("rdma: free of non-positive size %d", n)
	}
	size := blockSize(n)
	a.mu.Lock()
	defer a.mu.Unlock()
	if off%8 != 0 {
		return fmt.Errorf("rdma: free of misaligned offset %#x", off)
	}
	if off < a.start || off > a.next || uint64(size) > a.next-off {
		return fmt.Errorf("rdma: free of [%#x,+%d) outside allocated range [%#x,%#x)",
			off, size, a.start, a.next)
	}
	a.free[size] = append(a.free[size], off)
	return nil
}

// Used returns the number of bytes handed out and never freed, for
// instrumentation. It over-counts by freed-then-unreused blocks' fragmentation
// only in the bump area.
func (a *Allocator) Used() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	used := a.next - a.start
	for size, lst := range a.free {
		used -= uint64(size) * uint64(len(lst))
	}
	return used
}

// Remaining returns the bytes still available in the bump area.
func (a *Allocator) Remaining() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.end - a.next
}

// Watermark returns the bump pointer: one past the highest byte offset ever
// handed out. The extent [start, Watermark()) covers every allocation this
// allocator has made (including since-freed ones), which is exactly what a
// replica rebuild must copy to reconstruct a lost slab.
func (a *Allocator) Watermark() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.next
}
