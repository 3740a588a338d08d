package rdma

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"unsafe"
)

// Region is a registered memory region of one memory server: the target of
// all one-sided verbs.
//
// Memory is word-addressed internally ([]uint64) and byte-addressed at the
// API (offsets must be 8-byte aligned), mirroring the constraint that RDMA
// atomics operate on aligned 8-byte words. The region provides the
// consistency a real RDMA NIC provides:
//   - Load, Store, CompareAndSwap, FetchAdd and one-word Read/Write (version
//     and root words) are atomic;
//   - a multi-word Read, Write, AppendLE or WriteLE, and Zero, move the range
//     as one memory move, the way a NIC moves a page in one DMA: it is *not*
//     atomic with respect to concurrent writers, and a word of it that races
//     with a writer may be torn. A multi-word read loads its first word
//     atomically before the rest, so a READ that starts at a page's version
//     word and a version re-read after it bracket the whole copy: the index
//     protocols validate every multi-word READ that way, as in the paper's
//     Listing 2, and must (and do) retry a copy that fails it.
//
// Under the race detector, and on hosts that may reorder plain loads, the
// bulk accessors fall back to per-word atomics (see bulkMoves).
//
// A region lives either on the Go heap (NewRegion) or over a memory mapping
// (RegionOver, NewMappedRegion). A mapped region is returned to the system by
// Release, or by a finalizer if it becomes unreachable unreleased; every
// accessor that touches the words keeps the region reachable until it is
// done with them, so the backstop can never unmap memory under an access.
type Region struct {
	words []uint64
	mem   []byte             // the mapping words addresses; nil on the heap
	unmap func([]byte) error // returns mem to the system
}

// NewRegion allocates a zeroed region of the given size in bytes (rounded up
// to a multiple of 8).
func NewRegion(sizeBytes int) *Region {
	if sizeBytes < 0 {
		panic("rdma: negative region size")
	}
	return &Region{words: make([]uint64, (sizeBytes+7)/8)}
}

// RegionOver returns a region addressing the memory of a mapping: mem must
// be 8-byte aligned (a mapping is page-aligned) and stay mapped until unmap
// is called with it. Release calls unmap once, after the region has stopped
// addressing mem; so does a finalizer if the region is never released.
func RegionOver(mem []byte, unmap func([]byte) error) *Region {
	if uintptr(unsafe.Pointer(unsafe.SliceData(mem)))%8 != 0 {
		panic("rdma: mapping is not 8-byte aligned")
	}
	r := &Region{
		words: unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(mem))), len(mem)/8),
		mem:   mem,
		unmap: unmap,
	}
	runtime.SetFinalizer(r, (*Region).Release)
	return r
}

// Release gives up the region's memory: a mapping goes back to the system,
// heap memory to the garbage collector. The region then has size zero, so a
// later access panics instead of touching unmapped memory. Release must not
// run concurrently with an access; a second Release is a no-op.
func (r *Region) Release() error {
	mem := r.mem
	r.words, r.mem = nil, nil
	if mem == nil {
		return nil
	}
	runtime.SetFinalizer(r, nil)
	return r.unmap(mem)
}

// Size returns the region size in bytes.
func (r *Region) Size() uint64 { return uint64(len(r.words)) * 8 }

func (r *Region) wordIndex(off uint64) int {
	if off%8 != 0 {
		panic(fmt.Sprintf("rdma: unaligned offset %#x", off))
	}
	w := off / 8
	if w >= uint64(len(r.words)) {
		panic(fmt.Sprintf("rdma: offset %#x beyond region of %d bytes", off, r.Size()))
	}
	return int(w)
}

// checkRange panics if [off, off+n*8) is not inside the region.
func (r *Region) checkRange(off uint64, n int) int {
	w := r.wordIndex(off)
	if w+n > len(r.words) {
		panic(fmt.Sprintf("rdma: range [%#x,+%d words) beyond region of %d bytes", off, n, r.Size()))
	}
	return w
}

// Contains reports whether the range of the given number of words at byte
// offset off is 8-byte aligned and inside the region: what the accessors
// below panic on. A transport checks peer-chosen operands with it first.
func (r *Region) Contains(off uint64, words int) bool {
	w, n := off/8, uint64(len(r.words))
	return off%8 == 0 && words >= 0 && w < n && uint64(words) <= n-w
}

// AppendLE appends the given number of words starting at byte offset off to
// dst as little-endian bytes, the wire image of a READ, without a staging
// []uint64. Like Read, it loads the first word before the rest.
func (r *Region) AppendLE(dst []byte, off uint64, words int) []byte {
	w := r.checkRange(off, words)
	src := r.words[w : w+words]
	dst = slices.Grow(dst, 8*words)
	if bulkMoves && littleEndian && words > 1 {
		dst = binary.LittleEndian.AppendUint64(dst, atomic.LoadUint64(&src[0]))
		dst = append(dst, wordBytes(src[1:])...)
	} else {
		for i := range src {
			dst = binary.LittleEndian.AppendUint64(dst, atomic.LoadUint64(&src[i]))
		}
	}
	runtime.KeepAlive(r)
	return dst
}

// WriteLE stores the len(src)/8 little-endian words of src into the region
// starting at byte offset off: AppendLE's inverse, for a WRITE's wire image.
func (r *Region) WriteLE(off uint64, src []byte) {
	w := r.checkRange(off, len(src)/8)
	dst := r.words[w : w+len(src)/8]
	if bulkMoves && littleEndian && len(dst) > 1 {
		copy(wordBytes(dst), src)
	} else {
		for i := range dst {
			atomic.StoreUint64(&dst[i], binary.LittleEndian.Uint64(src[8*i:]))
		}
	}
	runtime.KeepAlive(r)
}

// Read copies len(dst) words starting at byte offset off into dst. It loads
// the first word — a page copy's version word — atomically and before the
// rest, as a NIC's ascending DMA would, so a version re-read after the copy
// brackets every word of it.
func (r *Region) Read(off uint64, dst []uint64) {
	w := r.checkRange(off, len(dst))
	if bulkMoves && len(dst) > 1 {
		dst[0] = atomic.LoadUint64(&r.words[w])
		copy(dst[1:], r.words[w+1:])
	} else {
		for i := range dst {
			dst[i] = atomic.LoadUint64(&r.words[w+i])
		}
	}
	runtime.KeepAlive(r)
}

// Write copies src into the region starting at byte offset off. A one-word
// Write is atomic.
func (r *Region) Write(off uint64, src []uint64) {
	w := r.checkRange(off, len(src))
	if bulkMoves && len(src) > 1 {
		copy(r.words[w:], src)
	} else {
		for i, v := range src {
			atomic.StoreUint64(&r.words[w+i], v)
		}
	}
	runtime.KeepAlive(r)
}

// bulkMoves selects one memory move per bulk access. It holds outside the
// race detector (which would report the races the protocol tolerates by
// design, so `go test -race` keeps checking the per-word atomic paths) on
// 64-bit hosts whose atomic load is a plain load (amd64, s390x): they keep
// loads in program order, so a reader's version re-check after a bulk copy
// still reads after every word of it, as the paper's Listing 2 needs. Other
// hosts, and big-endian ones for the little-endian wire image, keep the
// per-word atomics.
const bulkMoves = !raceEnabled && (runtime.GOARCH == "amd64" || runtime.GOARCH == "s390x")

// wordBytes views words as the bytes that hold them, in host byte order.
func wordBytes(words []uint64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), 8*len(words))
}

// littleEndian reports whether the host stores a word's low byte first, so
// a byte view of the words is their little-endian wire image.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// Load atomically reads the word at byte offset off.
func (r *Region) Load(off uint64) uint64 {
	v := atomic.LoadUint64(&r.words[r.wordIndex(off)])
	runtime.KeepAlive(r)
	return v
}

// Store atomically writes the word at byte offset off.
func (r *Region) Store(off uint64, v uint64) {
	atomic.StoreUint64(&r.words[r.wordIndex(off)], v)
	runtime.KeepAlive(r)
}

// CompareAndSwap executes an atomic compare-and-swap on the word at off. It
// returns the value observed before the operation; the swap succeeded iff
// the returned value equals old (matching ibverbs atomic CAS semantics,
// which always return the prior value).
func (r *Region) CompareAndSwap(off uint64, old, new uint64) uint64 {
	w := r.wordIndex(off)
	var cur uint64
	for {
		cur = atomic.LoadUint64(&r.words[w])
		if cur != old || atomic.CompareAndSwapUint64(&r.words[w], old, new) {
			break
		}
	}
	runtime.KeepAlive(r)
	return cur
}

// FetchAdd atomically adds delta to the word at off and returns the value
// before the addition.
func (r *Region) FetchAdd(off uint64, delta uint64) uint64 {
	v := atomic.AddUint64(&r.words[r.wordIndex(off)], delta) - delta
	runtime.KeepAlive(r)
	return v
}

// Zero clears the whole region, modeling a server whose registered memory
// was lost on restart: the new incarnation re-registers a fresh (zeroed)
// region at the same address range. Like a multi-word WRITE it is one
// memory move, not atomic with respect to concurrent accesses.
func (r *Region) Zero() {
	if bulkMoves {
		clear(r.words)
	} else {
		for w := range r.words {
			atomic.StoreUint64(&r.words[w], 0)
		}
	}
	runtime.KeepAlive(r)
}
