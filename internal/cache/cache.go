// Package cache implements compute-server-side caching of index pages — the
// Appendix A.4 extension of the paper.
//
// The cache is a btree.Mem decorator with an LRU of validated page copies
// and a consistency policy derived from the B-link structure:
//
// Every cache hit is revalidated with a single 8-byte version read; on a
// mismatch the page is re-fetched and the entry refreshed. A hit therefore
// trades the full page transfer for a tiny read — the bandwidth saving A.4
// anticipates for read-heavy workloads — while remote writes invalidate
// cached copies naturally through the version bump, and the caching layer
// composes transparently with the optimistic protocol above it (which
// re-reads until the version is stable).
//
// Only consistent (unlocked, version-stable) copies are inserted. The cache
// belongs to a single client thread, like the endpoint it wraps.
package cache

import (
	"container/list"

	"github.com/namdb/rdmatree/internal/btree"
	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/rdma"
)

// Stats counts cache activity.
type Stats struct {
	Hits          int64 // served from cache (inner: free; leaf: validated)
	Misses        int64 // full page fetches
	Stale         int64 // leaf revalidations that failed
	Validations   int64 // 8-byte version reads for leaf hits
	Evictions     int64
	Invalidations int64 // cached copies dropped (stale or locally mutated)
	Refreshes     int64 // entries refreshed from validated prefetch batches
}

// Telemetry receives cache events; *telemetry.Recorder satisfies it. The
// interface lives here (not in internal/telemetry) so the dependency points
// from cache to nothing.
type Telemetry interface {
	CacheHit()
	CacheMiss()
	CacheInvalidation()
}

// Events receives per-access cache events with the page pointer — the flight
// recorder's view of the cache, complementing the aggregate Telemetry
// counters. *obs.Log satisfies it. An Events shares the cache's
// single-client-thread ownership.
type Events interface {
	// CacheHitEvent records a revalidated hit on the page at ptr (a raw
	// rdma.RemotePtr).
	CacheHitEvent(ptr uint64)
	// CacheMissEvent records a full-page fetch for ptr.
	CacheMissEvent(ptr uint64)
	// CacheStaleEvent records a revalidation failure dropping ptr's copy.
	CacheStaleEvent(ptr uint64)
}

// Mem decorates a btree.Mem with a page cache.
type Mem struct {
	inner    btree.Mem
	l        layout.Layout
	maxPages int

	lru     *list.List // front = most recent; values are *entry
	entries map[rdma.RemotePtr]*list.Element

	// CacheLeaves enables caching of leaf pages (with revalidation); inner
	// pages are always cached.
	CacheLeaves bool

	// Tel, when non-nil, additionally receives each hit/miss/invalidation.
	Tel Telemetry

	// Events, when non-nil, receives each hit/miss/stale with its page
	// pointer (the flight recorder hook).
	Events Events

	Stats Stats
}

type entry struct {
	ptr   rdma.RemotePtr
	words []uint64
	leaf  bool
}

var _ btree.Mem = (*Mem)(nil)

// New wraps m with a cache of at most maxPages pages.
func New(m btree.Mem, l layout.Layout, maxPages int) *Mem {
	return &Mem{
		inner:       m,
		l:           l,
		maxPages:    maxPages,
		lru:         list.New(),
		entries:     make(map[rdma.RemotePtr]*list.Element),
		CacheLeaves: true,
	}
}

func (m *Mem) lookup(p rdma.RemotePtr) *entry {
	el, ok := m.entries[p]
	if !ok {
		return nil
	}
	m.lru.MoveToFront(el)
	return el.Value.(*entry)
}

func (m *Mem) invalidate(p rdma.RemotePtr) {
	if el, ok := m.entries[p]; ok {
		m.lru.Remove(el)
		delete(m.entries, p)
		m.Stats.Invalidations++
		if m.Tel != nil {
			m.Tel.CacheInvalidation()
		}
	}
}

func (m *Mem) insert(p rdma.RemotePtr, words []uint64, leaf bool) {
	if m.maxPages <= 0 {
		return
	}
	if el, ok := m.entries[p]; ok {
		e := el.Value.(*entry)
		copy(e.words, words)
		e.leaf = leaf
		m.lru.MoveToFront(el)
		return
	}
	for m.lru.Len() >= m.maxPages {
		back := m.lru.Back()
		m.lru.Remove(back)
		delete(m.entries, back.Value.(*entry).ptr)
		m.Stats.Evictions++
	}
	e := &entry{ptr: p, words: append([]uint64(nil), words...), leaf: leaf}
	m.entries[p] = m.lru.PushFront(e)
}

// ReadWords implements btree.Mem. Full-page reads go through the cache;
// other sizes pass through.
func (m *Mem) ReadWords(p rdma.RemotePtr, dst []uint64) error {
	if len(dst) != m.l.Words {
		return m.inner.ReadWords(p, dst)
	}
	if e := m.lookup(p); e != nil {
		// Revalidate the copy with one 8-byte read.
		v, err := m.inner.LoadWord(p)
		if err != nil {
			return err
		}
		m.Stats.Validations++
		if v == layout.BufVersion(e.words) && !layout.IsLocked(v) {
			copy(dst, e.words)
			m.Stats.Hits++
			if m.Tel != nil {
				m.Tel.CacheHit()
			}
			if m.Events != nil {
				m.Events.CacheHitEvent(uint64(p))
			}
			return nil
		}
		m.Stats.Stale++
		if m.Events != nil {
			m.Events.CacheStaleEvent(uint64(p))
		}
		m.invalidate(p)
	}
	// Miss: fetch and insert only a consistent copy (unlocked, version
	// stable across the transfer).
	if err := m.inner.ReadWords(p, dst); err != nil {
		return err
	}
	m.Stats.Misses++
	if m.Tel != nil {
		m.Tel.CacheMiss()
	}
	if m.Events != nil {
		m.Events.CacheMissEvent(uint64(p))
	}
	v := layout.BufVersion(dst)
	if layout.IsLocked(v) {
		return nil
	}
	v2, err := m.inner.LoadWord(p)
	if err != nil {
		return err
	}
	if v2 != v {
		return nil
	}
	m.maybeInsert(p, dst)
	return nil
}

// maybeInsert caches a consistent page copy, honoring the head-node
// exclusion and the CacheLeaves policy. It reports whether the copy was
// inserted.
func (m *Mem) maybeInsert(p rdma.RemotePtr, words []uint64) bool {
	n := m.l.Wrap(words)
	if n.IsHead() {
		// Head nodes are maintenance-rebuilt and retired; don't cache.
		return false
	}
	if n.IsLeaf() && !m.CacheLeaves {
		return false
	}
	m.insert(p, words, n.IsLeaf())
	return true
}

// ReadValidated implements btree.Mem. A cache hit is revalidated with a
// single 8-byte version read (one exposed round trip, no page transfer); a
// miss runs the inner fused batch (also one exposed round trip) and inserts
// the consistent copy.
func (m *Mem) ReadValidated(p rdma.RemotePtr, dst []uint64) (uint64, bool, error) {
	if len(dst) != m.l.Words {
		return m.inner.ReadValidated(p, dst)
	}
	if e := m.lookup(p); e != nil {
		v, err := m.inner.LoadWord(p)
		if err != nil {
			return 0, false, err
		}
		m.Stats.Validations++
		if v == layout.BufVersion(e.words) && !layout.IsLocked(v) {
			copy(dst, e.words)
			m.Stats.Hits++
			if m.Tel != nil {
				m.Tel.CacheHit()
			}
			if m.Events != nil {
				m.Events.CacheHitEvent(uint64(p))
			}
			return v, true, nil
		}
		m.Stats.Stale++
		if m.Events != nil {
			m.Events.CacheStaleEvent(uint64(p))
		}
		m.invalidate(p)
	}
	v, ok, err := m.inner.ReadValidated(p, dst)
	if err != nil {
		return 0, false, err
	}
	m.Stats.Misses++
	if m.Tel != nil {
		m.Tel.CacheMiss()
	}
	if m.Events != nil {
		m.Events.CacheMissEvent(uint64(p))
	}
	if ok {
		m.maybeInsert(p, dst)
	}
	return v, ok, nil
}

// WriteWords implements btree.Mem; writes invalidate the covering page.
func (m *Mem) WriteWords(p rdma.RemotePtr, src []uint64) error {
	m.invalidateCovering(p)
	return m.inner.WriteWords(p, src)
}

// WriteUnlock implements btree.Mem; the publish invalidates the page.
func (m *Mem) WriteUnlock(p rdma.RemotePtr, body []uint64) btree.Publish {
	m.invalidate(p)
	return m.inner.WriteUnlock(p, body)
}

// LoadWord implements btree.Mem.
func (m *Mem) LoadWord(p rdma.RemotePtr) (uint64, error) { return m.inner.LoadWord(p) }

// CAS implements btree.Mem; lock-word CAS invalidates the page (it is about
// to change or just changed).
func (m *Mem) CAS(p rdma.RemotePtr, old, new uint64) (uint64, error) {
	m.invalidateCovering(p)
	return m.inner.CAS(p, old, new)
}

// FetchAdd implements btree.Mem.
func (m *Mem) FetchAdd(p rdma.RemotePtr, delta uint64) (uint64, error) {
	m.invalidateCovering(p)
	return m.inner.FetchAdd(p, delta)
}

// invalidateCovering drops the cached page containing p: mutating verbs
// target either the page base (version word) or base+8 (body).
func (m *Mem) invalidateCovering(p rdma.RemotePtr) {
	m.invalidate(p)
	if p.Offset() >= 8 {
		m.invalidate(rdma.MakePtr(p.Server(), p.Offset()-8))
	}
}

// AllocPages implements btree.Mem.
func (m *Mem) AllocPages(level int, n int, ps []rdma.RemotePtr) error {
	return m.inner.AllocPages(level, n, ps)
}

// WritePages implements btree.Mem; like WriteWords, each write invalidates
// its page.
func (m *Mem) WritePages(ps []rdma.RemotePtr, srcs [][]uint64) error {
	for _, p := range ps {
		m.invalidateCovering(p)
	}
	return m.inner.WritePages(ps, srcs)
}

// FreePage implements btree.Mem.
func (m *Mem) FreePage(p rdma.RemotePtr, n int) error {
	m.invalidate(p)
	return m.inner.FreePage(p, n)
}

// ReadPages implements btree.Mem; prefetch batches bypass the cache on the
// read side (they are already bandwidth-optimal) but refresh it: every
// prefetched copy whose version word came back unlocked and unchanged is a
// validated snapshot and is inserted under the usual policy (head nodes
// never, leaves only with CacheLeaves).
func (m *Mem) ReadPages(ps []rdma.RemotePtr, dst [][]uint64, versions []uint64) error {
	if err := m.inner.ReadPages(ps, dst, versions); err != nil {
		return err
	}
	for i, p := range ps {
		if len(dst[i]) != m.l.Words {
			continue
		}
		v := versions[i]
		if layout.IsLocked(v) || v != layout.BufVersion(dst[i]) {
			continue
		}
		if m.maybeInsert(p, dst[i]) {
			m.Stats.Refreshes++
		}
	}
	return nil
}

// Len returns the number of cached pages.
func (m *Mem) Len() int { return m.lru.Len() }

// HitRate returns hits / (hits + misses), or 0 when empty.
func (m *Mem) HitRate() float64 {
	t := m.Stats.Hits + m.Stats.Misses
	if t == 0 {
		return 0
	}
	return float64(m.Stats.Hits) / float64(t)
}
