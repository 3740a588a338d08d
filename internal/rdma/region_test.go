package rdma

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// regionWords is the size of the regions the bulk-accessor tests use: room
// for the longest case at a nonzero offset.
const regionWords = 160

// filled returns a region whose word i holds a value unique to it, with
// every byte of the word distinct so a byte-order slip shows.
func filled() *Region {
	r := NewRegion(8 * regionWords)
	for i := 0; i < regionWords; i++ {
		r.Store(uint64(8*i), 0x0102030405060708*uint64(i+1))
	}
	return r
}

// TestRegionBulkMatchesPerWord checks every bulk accessor against a
// per-word reference built from Load and Store, at lengths around the
// sizes a page move takes and at a range ending on the region's last word.
func TestRegionBulkMatchesPerWord(t *testing.T) {
	type span struct{ off, words int } // in words
	var spans []span
	for _, n := range []int{0, 1, 2, 127, 128, 129} {
		spans = append(spans, span{0, n}, span{3, n}, span{regionWords - n, n})
	}
	for _, sp := range spans {
		if sp.off == regionWords {
			continue // a zero-length range past the last word panics; see below
		}
		off := uint64(8 * sp.off)
		t.Run(fmt.Sprintf("off=%d/words=%d", sp.off, sp.words), func(t *testing.T) {
			r := filled()
			// Read.
			got := make([]uint64, sp.words)
			r.Read(off, got)
			for i, v := range got {
				if want := r.Load(off + uint64(8*i)); v != want {
					t.Fatalf("Read word %d = %#x, want %#x", i, v, want)
				}
			}
			// AppendLE, appended after a prefix that must survive.
			le := r.AppendLE([]byte{0xee}, off, sp.words)
			if len(le) != 1+8*sp.words || le[0] != 0xee {
				t.Fatalf("AppendLE returned %d bytes (prefix %#x), want %d", len(le), le[0], 1+8*sp.words)
			}
			for i := 0; i < sp.words; i++ {
				if v, want := binary.LittleEndian.Uint64(le[1+8*i:]), r.Load(off+uint64(8*i)); v != want {
					t.Fatalf("AppendLE word %d = %#x, want %#x", i, v, want)
				}
			}
			// Write, then WriteLE of a different image: only the range moves.
			src := make([]uint64, sp.words)
			for i := range src {
				src[i] = ^uint64(i)
			}
			r.Write(off, src)
			checkImage(t, "Write", r, sp.off, src)
			img := make([]byte, 8*sp.words)
			for i := range src {
				src[i] = 0xa0a1a2a3a4a5a6a7 + uint64(i)
				binary.LittleEndian.PutUint64(img[8*i:], src[i])
			}
			r.WriteLE(off, img)
			checkImage(t, "WriteLE", r, sp.off, src)
		})
	}
	t.Run("Zero", func(t *testing.T) {
		r := filled()
		r.Zero()
		for i := 0; i < regionWords; i++ {
			if v := r.Load(uint64(8 * i)); v != 0 {
				t.Fatalf("word %d = %#x after Zero", i, v)
			}
		}
	})
	// Out-of-range and unaligned accesses panic as before, with the region
	// untouched by a Write or WriteLE that overran it.
	for _, c := range []struct {
		name string
		f    func(r *Region)
	}{
		{"Read past end", func(r *Region) { r.Read(8*(regionWords-1), make([]uint64, 2)) }},
		{"Read at end", func(r *Region) { r.Read(8*regionWords, nil) }},
		{"Read unaligned", func(r *Region) { r.Read(4, make([]uint64, 1)) }},
		{"Write past end", func(r *Region) { r.Write(8*(regionWords-128), make([]uint64, 129)) }},
		{"Write unaligned", func(r *Region) { r.Write(12, make([]uint64, 2)) }},
		{"AppendLE past end", func(r *Region) { r.AppendLE(nil, 8*(regionWords-2), 3) }},
		{"AppendLE negative", func(r *Region) { r.AppendLE(nil, 0, -1) }},
		{"WriteLE past end", func(r *Region) { r.WriteLE(8*(regionWords-1), make([]byte, 16)) }},
		{"WriteLE at end", func(r *Region) { r.WriteLE(8*regionWords, nil) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := filled()
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("expected panic")
					}
				}()
				c.f(r)
			}()
			want := filled()
			for i := 0; i < regionWords; i++ {
				if v, w := r.Load(uint64(8*i)), want.Load(uint64(8*i)); v != w {
					t.Fatalf("word %d = %#x after the panic, want %#x", i, v, w)
				}
			}
		})
	}
}

// checkImage fails unless the region holds img at word offset at and the
// fill pattern everywhere else.
func checkImage(t *testing.T, what string, r *Region, at int, img []uint64) {
	t.Helper()
	ref := filled()
	for i := 0; i < regionWords; i++ {
		want := ref.Load(uint64(8 * i))
		if i >= at && i < at+len(img) {
			want = img[i-at]
		}
		if v := r.Load(uint64(8 * i)); v != want {
			t.Fatalf("%s: word %d = %#x, want %#x", what, i, v, want)
		}
	}
}

// TestRegionValidatedCopy runs the paper's Listing 2 over one page with the
// region's own accessors: a writer takes the page's version lock with CAS,
// rewrites the body with a multi-word Write and unlocks with a version bump
// (FetchAdd), while readers copy the page with one multi-word Read and
// re-check the version with Load. A copy may tear — the bulk Read is not
// atomic — but every copy that validates must hold one generation.
func TestRegionValidatedCopy(t *testing.T) {
	const (
		pageWords = 128
		p         = 64 // the page's byte offset; word 0 is its version
		readers   = 2
		// The writer runs at least this many generations, and on until the
		// readers validated this many copies between them.
		writes, minValidated = 5000, 1000
	)
	r := NewRegion(p + 8*pageWords)
	var wg sync.WaitGroup
	var stop atomic.Bool
	var validated, rejected atomic.Int64
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			page := make([]uint64, pageWords)
			for !stop.Load() {
				r.Read(p, page)
				v := page[0]
				if v&1 != 0 || r.Load(p) != v {
					rejected.Add(1)
					continue // locked or changed under the copy: restart
				}
				validated.Add(1)
				for i, w := range page[1:] {
					if w != v/2 {
						errs <- fmt.Errorf("validated copy at version %d holds %d in word %d, want %d", v, w, i+1, v/2)
						return
					}
				}
			}
		}()
	}
	defer func() { stop.Store(true); wg.Wait() }() // on a Fatal too
	body := make([]uint64, pageWords-1)
	deadline := time.Now().Add(10 * time.Second)
	for n := 0; n < writes || validated.Load() < minValidated; n++ {
		if n%64 == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%d copies validated in 10 s, want %d", validated.Load(), minValidated)
			}
			runtime.Gosched() // let the readers run between writes too
		}
		v := r.Load(p)
		if got := r.CompareAndSwap(p, v, v+1); got != v {
			t.Fatalf("lock CAS saw %d, want %d (the only writer)", got, v)
		}
		for i := range body {
			body[i] = v/2 + 1
		}
		r.Write(p+8, body)
		r.FetchAdd(p, 1)
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	t.Logf("%d copies validated, %d rejected", validated.Load(), rejected.Load())
}

// TestRegionBulkAllocs pins the bulk accessors at zero allocations: a page
// move costs its copy and nothing else.
func TestRegionBulkAllocs(t *testing.T) {
	r := NewRegion(4096)
	page := make([]uint64, 128)
	wire := make([]byte, 0, 1024)
	for name, f := range map[string]func(){
		"Read":     func() { r.Read(1024, page) },
		"Write":    func() { r.Write(1024, page) },
		"AppendLE": func() { wire = r.AppendLE(wire[:0], 1024, 128) },
		"WriteLE":  func() { r.WriteLE(1024, wire) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, n)
		}
	}
}

// benchRegionPage times one 1 KB page move. Hot moves one page over and
// over (cache-resident); cold walks a 64 MiB region page by page, so each
// move starts from memory.
func benchRegionPage(b *testing.B, move func(r *Region, off uint64, page []uint64)) {
	const pageBytes = 1024
	for _, c := range []struct {
		name   string
		region int
	}{{"hot", pageBytes}, {"cold", 64 << 20}} {
		b.Run(c.name, func(b *testing.B) {
			r := NewRegion(c.region)
			page := make([]uint64, pageBytes/8)
			pages := uint64(c.region / pageBytes)
			b.SetBytes(pageBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				move(r, uint64(i)%pages*pageBytes, page)
			}
		})
	}
}

func BenchmarkRegionReadPage(b *testing.B) {
	benchRegionPage(b, func(r *Region, off uint64, page []uint64) { r.Read(off, page) })
}

func BenchmarkRegionWritePage(b *testing.B) {
	benchRegionPage(b, func(r *Region, off uint64, page []uint64) { r.Write(off, page) })
}
