// Package btree implements the B-link tree engine shared by all three index
// designs of the paper: a Lehman-Yao style B+-tree with sibling links and
// high keys, synchronized by optimistic lock coupling (a version/lock word
// per page, compare-and-swap to lock, fetch-and-add to unlock-and-bump, as
// in Listings 1-4 of the paper).
//
// The engine is written against the Mem interface so exactly the same
// protocol executes in two very different places:
//
//   - on a memory server's CPU over its local region (the coarse-grained
//     design's RPC handlers, and the hybrid design's inner-level traversal),
//   - on a compute server over one-sided RDMA verbs (the fine-grained
//     design, and the hybrid design's leaf accesses).
//
// Readers never lock: a page is copied and the copy validated against the
// version word (re-read after the copy), retrying while a writer holds the
// lock. Writers CAS the lock bit on the version their validated copy
// carries, mutate the copy, write the body back and fetch-add the version
// word, which simultaneously releases the lock and invalidates concurrent
// readers' copies. Splits follow the B-link discipline: the left half is
// rewritten in place, the right half is installed on a freshly allocated
// page, and the separator is then inserted into the parent level without
// holding the child lock (sibling links keep the tree searchable in
// between). Point operations are written once, as the state machine
// Traversal; the blocking ones step it through the Mem (drive.go). Scans
// and the maintenance paths are blocking loops over the same page protocol.
package btree

import (
	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/rdma"
)

// Mem abstracts the memory the tree lives in: either a server-local region
// or the remote memory pool accessed through one-sided verbs.
type Mem interface {
	// ReadWords copies len(dst) words from p.
	ReadWords(p rdma.RemotePtr, dst []uint64) error
	// ReadValidated copies len(dst) words from p and then re-reads the
	// version word at p (the page's first word), in that order. It returns
	// the re-read version and whether the copy is consistent: the version
	// is unlocked and matches dst[0]. On RC transports both READs are
	// posted in one selectively-signalled doorbell batch — same-QP READs
	// complete in order, so waiting on the trailing word's completion
	// alone validates the page copy in a single exposed round trip
	// (Listing 2's page READ + version READ, fused).
	ReadValidated(p rdma.RemotePtr, dst []uint64) (version uint64, ok bool, err error)
	// WriteWords copies src to p.
	WriteWords(p rdma.RemotePtr, src []uint64) error
	// WriteUnlock publishes a page the caller holds locked: it writes body
	// to the words after the version word at p and then fetch-adds 1 to the
	// version word, which releases the lock and bumps the version, in that
	// order (Listing 3's write-back). It is the write twin of
	// ReadValidated: on RC both verbs are posted to the page's QP in one
	// doorbell, and in-order execution runs the FAA only after the body
	// landed. The outcome carries one result per verb.
	WriteUnlock(p rdma.RemotePtr, body []uint64) Publish
	// LoadWord reads the single word at p.
	LoadWord(p rdma.RemotePtr) (uint64, error)
	// CAS compares-and-swaps the word at p, returning the prior value.
	CAS(p rdma.RemotePtr, old, new uint64) (uint64, error)
	// FetchAdd atomically adds delta to the word at p, returning the prior
	// value.
	FetchAdd(p rdma.RemotePtr, delta uint64) (uint64, error)
	// AllocPages allocates len(ps) n-byte pages for nodes at the given level
	// (0 = leaf) and stores their pointers in ps, in order. The level lets
	// placement policies distribute nodes — the fine-grained design places
	// pages round-robin across all memory servers, the coarse-grained design
	// keeps them on one server. Each page lands exactly where len(ps)
	// consecutive one-page calls would put it: same server, same offset,
	// same allocator watermark. Splits ask for one page; a bulk load
	// reserves a whole tree level in one call, which over one-sided verbs
	// costs one RDMA_ALLOC per server instead of one per page.
	AllocPages(level int, n int, ps []rdma.RemotePtr) error
	// FreePage returns a page to its allocator.
	FreePage(p rdma.RemotePtr, n int) error
	// ReadPages reads the pages at ps into dst and then re-reads each
	// page's version word into versions, all in one selectively signalled
	// batch (2N entries: N page READs followed by N version READs) — the
	// head-node prefetch of Section 4.3 fused with its validation pass.
	// versions[i] corresponds to ps[i]; a prefetched copy is consistent
	// iff versions[i] == dst[i][0] and the version is unlocked.
	ReadPages(ps []rdma.RemotePtr, dst [][]uint64, versions []uint64) error
	// WritePages copies srcs[i] to ps[i] for every i: the write twin of
	// ReadPages, through which a bulk load streams its finished pages. On
	// an endpoint with a post/poll surface all len(ps) WRITEs share one
	// doorbell and one exposed round trip. It returns the first failure in
	// posting order; under the never-executed fault model the other WRITEs
	// of the batch may still have landed.
	WritePages(ps []rdma.RemotePtr, srcs [][]uint64) error
}

// Publish is the outcome of Mem.WriteUnlock, one result per verb. Under the
// never-executed fault model (DESIGN.md §9) a failed verb did not run, so
// the four combinations say exactly what reached the page.
type Publish struct {
	// Prior is the version word before the FAA; valid when UnlockErr is nil.
	Prior uint64
	// WriteErr and UnlockErr are the body WRITE's and the FAA's outcomes.
	WriteErr, UnlockErr error
	// Rounds is the number of exposed round trips the pair cost: 1 when it
	// shared a doorbell (or ran locally), 2 when it ran as two blocking
	// verbs, 1 again when the FAA was flushed behind a failed WRITE.
	Rounds int
}

// localPublish is WriteUnlock on a server's own region.
func localPublish(r *rdma.Region, off uint64, body []uint64) Publish {
	r.Write(off+8, body)
	return Publish{Prior: r.FetchAdd(off, 1), Rounds: 1}
}

// validated reports the (version, ok) pair for a page copy whose version
// word re-read returned v: consistent iff unlocked and unchanged.
func validated(v uint64, dst []uint64) (uint64, bool) {
	return v, v == layout.BufVersion(dst) && !layout.IsLocked(v)
}

// LocalMem is a Mem over the local region of a single memory server. All
// pointers must target that server; this is the coarse-grained design's
// server-side view.
type LocalMem struct {
	Srv *rdma.Server
}

var _ Mem = LocalMem{}

func (m LocalMem) check(p rdma.RemotePtr) uint64 {
	if p.IsNull() {
		panic("btree: null pointer dereference")
	}
	if p.Server() != m.Srv.ID {
		panic("btree: LocalMem access to foreign server")
	}
	return p.Offset()
}

// ReadWords implements Mem.
func (m LocalMem) ReadWords(p rdma.RemotePtr, dst []uint64) error {
	m.Srv.Region.Read(m.check(p), dst)
	return nil
}

// ReadValidated implements Mem: a local copy plus a re-load of the version
// word. No batching is needed — local accesses have no round trip to hide.
func (m LocalMem) ReadValidated(p rdma.RemotePtr, dst []uint64) (uint64, bool, error) {
	off := m.check(p)
	m.Srv.Region.Read(off, dst)
	v, ok := validated(m.Srv.Region.Load(off), dst)
	return v, ok, nil
}

// WriteWords implements Mem.
func (m LocalMem) WriteWords(p rdma.RemotePtr, src []uint64) error {
	m.Srv.Region.Write(m.check(p), src)
	return nil
}

// WriteUnlock implements Mem.
func (m LocalMem) WriteUnlock(p rdma.RemotePtr, body []uint64) Publish {
	return localPublish(m.Srv.Region, m.check(p), body)
}

// LoadWord implements Mem.
func (m LocalMem) LoadWord(p rdma.RemotePtr) (uint64, error) {
	return m.Srv.Region.Load(m.check(p)), nil
}

// CAS implements Mem.
func (m LocalMem) CAS(p rdma.RemotePtr, old, new uint64) (uint64, error) {
	return m.Srv.Region.CompareAndSwap(m.check(p), old, new), nil
}

// FetchAdd implements Mem.
func (m LocalMem) FetchAdd(p rdma.RemotePtr, delta uint64) (uint64, error) {
	return m.Srv.Region.FetchAdd(m.check(p), delta), nil
}

// AllocPages implements Mem; pages are always placed on the local server,
// one allocator call each (a local call has no round trip to save).
func (m LocalMem) AllocPages(level int, n int, ps []rdma.RemotePtr) error {
	return allocLocal(m.Srv, n, ps)
}

// FreePage implements Mem.
func (m LocalMem) FreePage(p rdma.RemotePtr, n int) error {
	m.Srv.Alloc.Free(m.check(p), n)
	return nil
}

// ReadPages implements Mem.
func (m LocalMem) ReadPages(ps []rdma.RemotePtr, dst [][]uint64, versions []uint64) error {
	for i, p := range ps {
		off := m.check(p)
		m.Srv.Region.Read(off, dst[i])
		versions[i] = m.Srv.Region.Load(off)
	}
	return nil
}

// WritePages implements Mem.
func (m LocalMem) WritePages(ps []rdma.RemotePtr, srcs [][]uint64) error {
	for i, p := range ps {
		m.Srv.Region.Write(m.check(p), srcs[i])
	}
	return nil
}

// allocLocal fills ps with n-byte pages of srv's own allocator, addressed
// at srv.
func allocLocal(srv *rdma.Server, n int, ps []rdma.RemotePtr) error {
	for i := range ps {
		off, err := srv.Alloc.Alloc(n)
		if err != nil {
			return err
		}
		ps[i] = rdma.MakePtr(srv.ID, off)
	}
	return nil
}

// Placement chooses the memory server for a newly allocated page of a given
// level.
type Placement func(level int) int

// RoundRobin returns a placement that cycles over numServers servers
// starting at a per-client offset, implementing the paper's fine-grained
// round-robin node distribution for pages allocated at runtime (splits).
func RoundRobin(numServers, start int) Placement {
	next := start % numServers
	return func(level int) int {
		s := next
		next = (next + 1) % numServers
		return s
	}
}

// Fixed returns a placement that always allocates on one server.
func Fixed(server int) Placement {
	return func(level int) int { return server }
}

// EndpointMem is a Mem over the one-sided verbs of a compute server's
// endpoint: the fine-grained design's client-side view.
//
// EndpointMem is stateful (per-call scratch buffers keep the hot path
// allocation-free), so it is used through a pointer and must not be shared
// between goroutines — each client owns one, matching the one-QP-per-client
// connection model.
type EndpointMem struct {
	Ep    rdma.Endpoint
	Place Placement

	// Unbatched selects the paper's original Listing-2 protocol: the page
	// READ and the version READ are issued as two separate blocking verbs
	// (two exposed round trips per level). It exists as the measured
	// baseline for the doorbell-batching experiment; leave it false for
	// the fused single-round-trip protocol.
	Unbatched bool

	// Borrowed marks Ep's post/poll surface as a pipelined engine's, which
	// may hold other operations' unflushed posts while this Mem runs
	// blocking verbs for one of them. WriteUnlock then runs its pair as two
	// blocking verbs, which the rdma.AsyncEndpoint contract allows next to
	// those posts; posting and polling its own would reap theirs.
	Borrowed bool

	vbuf      [1]uint64
	batchPtrs []rdma.RemotePtr
	batchDst  [][]uint64
	comps     []rdma.Completion

	// AllocPages scratch, per server: the pages still to reserve and the
	// open extent being carved.
	want []int
	ext  []extent
}

// maxExtentBytes bounds one RDMA_ALLOC of EndpointMem.AllocPages: a
// server's share of a larger reservation is taken in several extents. 1 GiB
// fits the u32 size field of tcpnet's alloc frame, the narrowest of the
// transports, with room to spare.
const maxExtentBytes = 1 << 30

// extent is the uncarved tail of one allocated multi-page block.
type extent struct {
	next  rdma.RemotePtr
	pages int
}

var _ Mem = (*EndpointMem)(nil)

// ReadWords implements Mem.
func (m *EndpointMem) ReadWords(p rdma.RemotePtr, dst []uint64) error {
	return m.Ep.Read(p, dst)
}

// ReadValidated implements Mem. The fused path posts the full-page READ and
// the 8-byte version READ to the same QP in one doorbell and waits only on
// the second completion: RC READs on one QP complete in order, so the page
// copy is already stable when the version word lands — one exposed round
// trip replaces Listing 2's two.
func (m *EndpointMem) ReadValidated(p rdma.RemotePtr, dst []uint64) (uint64, bool, error) {
	if m.Unbatched {
		// Paper baseline: page READ, then (only if the copy is not
		// obviously locked) a separate version READ.
		if err := m.Ep.Read(p, dst); err != nil {
			return 0, false, err
		}
		if v := layout.BufVersion(dst); layout.IsLocked(v) {
			return v, false, nil
		}
		if err := m.Ep.Read(p, m.vbuf[:]); err != nil {
			return 0, false, err
		}
		v, ok := validated(m.vbuf[0], dst)
		return v, ok, nil
	}
	m.batchPtrs = append(m.batchPtrs[:0], p, p)
	m.batchDst = append(m.batchDst[:0], dst, m.vbuf[:])
	if err := m.Ep.ReadMulti(m.batchPtrs, m.batchDst); err != nil {
		return 0, false, err
	}
	v, ok := validated(m.vbuf[0], dst)
	return v, ok, nil
}

// WriteWords implements Mem.
func (m *EndpointMem) WriteWords(p rdma.RemotePtr, src []uint64) error {
	return m.Ep.Write(p, src)
}

// WriteUnlock implements Mem. When Ep has a native post/poll surface the
// body WRITE and the unlock FAA share one doorbell and one exposed round
// trip, each with its own completion. Otherwise — and in the Unbatched
// baseline, and on a Borrowed surface — they run as two blocking verbs, and
// a failed WRITE flushes the FAA behind it unexecuted, as an RC QP in the
// error state would.
func (m *EndpointMem) WriteUnlock(p rdma.RemotePtr, body []uint64) Publish {
	if a, ok := m.doorbell(); ok {
		a.PostWrite(p.Add(8), body)
		a.PostFetchAdd(p, 1)
		a.Flush()
		m.comps = a.Poll(m.comps[:0])
		return Publish{Prior: m.comps[1].Val, WriteErr: m.comps[0].Err, UnlockErr: m.comps[1].Err, Rounds: 1}
	}
	if err := m.Ep.Write(p.Add(8), body); err != nil {
		return Publish{WriteErr: err, UnlockErr: err, Rounds: 1}
	}
	prior, err := m.Ep.FetchAdd(p, 1)
	return Publish{Prior: prior, UnlockErr: err, Rounds: 2}
}

// doorbell returns Ep's native post/poll surface when this Mem may ring
// doorbells of its own on it. Endpoints without one get blocking verbs, not
// an rdma.Async adapter: the adapter would run the same verbs one by one and
// cost an allocation per wrap.
func (m *EndpointMem) doorbell() (rdma.AsyncEndpoint, bool) {
	a, ok := m.Ep.(rdma.AsyncEndpoint)
	return a, ok && !m.Unbatched && !m.Borrowed
}

// LoadWord implements Mem.
func (m *EndpointMem) LoadWord(p rdma.RemotePtr) (uint64, error) {
	if err := m.Ep.Read(p, m.vbuf[:]); err != nil {
		return 0, err
	}
	return m.vbuf[0], nil
}

// CAS implements Mem.
func (m *EndpointMem) CAS(p rdma.RemotePtr, old, new uint64) (uint64, error) {
	return m.Ep.CompareAndSwap(p, old, new)
}

// FetchAdd implements Mem.
func (m *EndpointMem) FetchAdd(p rdma.RemotePtr, delta uint64) (uint64, error) {
	return m.Ep.FetchAdd(p, delta)
}

// AllocPages implements Mem using the RDMA_ALLOC verb on the servers chosen
// by the placement policy. One page is one verb. For more, it walks the
// placement sequence first, then reserves each server's share in extents of
// at most maxExtentBytes and carves them up in sequence order: a server's
// bump allocator hands consecutive calls consecutive blocks, so the pages
// land where one call per page would have put them, as long as the
// allocator has no freed pages of that size to hand out first — true of
// every server a bulk load runs on.
func (m *EndpointMem) AllocPages(level int, n int, ps []rdma.RemotePtr) error {
	if len(ps) == 1 {
		var err error
		ps[0], err = m.Ep.Alloc(m.Place(level), n)
		return err
	}
	servers := m.Ep.NumServers()
	if cap(m.want) < servers {
		m.want, m.ext = make([]int, servers), make([]extent, servers)
	}
	m.want, m.ext = m.want[:servers], m.ext[:servers]
	clear(m.want)
	clear(m.ext)
	for i := range ps {
		s := m.Place(level)
		ps[i] = rdma.MakePtr(s, 0) // names the page's server until it is carved
		m.want[s]++
	}
	stride := (n + 7) &^ 7 // the allocator's block size for n
	for i, p := range ps {
		s := p.Server()
		e := &m.ext[s]
		if e.pages == 0 {
			k := min(m.want[s], maxExtentBytes/stride)
			base, err := m.Ep.Alloc(s, k*stride)
			if err != nil {
				return err
			}
			*e = extent{next: base, pages: k}
			m.want[s] -= k
		}
		ps[i] = e.next
		e.next = e.next.Add(uint64(stride))
		e.pages--
	}
	return nil
}

// FreePage implements Mem.
func (m *EndpointMem) FreePage(p rdma.RemotePtr, n int) error {
	return m.Ep.Free(p, n)
}

// ReadPages implements Mem. The fused path posts all N page READs followed
// by all N version READs in one 2N-entry doorbell batch; per-server entries
// execute in posting order, so each version word is re-read after its page
// copy completed.
func (m *EndpointMem) ReadPages(ps []rdma.RemotePtr, dst [][]uint64, versions []uint64) error {
	if m.Unbatched {
		// Paper baseline: one batch for the pages, a second for the
		// version words.
		if err := m.Ep.ReadMulti(ps, dst); err != nil {
			return err
		}
		m.batchDst = m.batchDst[:0]
		for i := range ps {
			m.batchDst = append(m.batchDst, versions[i:i+1])
		}
		return m.Ep.ReadMulti(ps, m.batchDst)
	}
	m.batchPtrs = append(m.batchPtrs[:0], ps...)
	m.batchPtrs = append(m.batchPtrs, ps...)
	m.batchDst = append(m.batchDst[:0], dst...)
	for i := range ps {
		m.batchDst = append(m.batchDst, versions[i:i+1])
	}
	return m.Ep.ReadMulti(m.batchPtrs, m.batchDst)
}

// WritePages implements Mem: all WRITEs in one doorbell where Ep can post,
// one blocking WRITE each otherwise.
func (m *EndpointMem) WritePages(ps []rdma.RemotePtr, srcs [][]uint64) error {
	a, ok := m.doorbell()
	if !ok {
		for i, p := range ps {
			if err := m.Ep.Write(p, srcs[i]); err != nil {
				return err
			}
		}
		return nil
	}
	for i, p := range ps {
		a.PostWrite(p, srcs[i])
	}
	a.Flush()
	m.comps = a.Poll(m.comps[:0])
	for _, c := range m.comps {
		if c.Err != nil {
			return c.Err
		}
	}
	return nil
}

// ReplicaLocalMem is a Mem over the local region of a memory server that
// serves a *replica group's* mirrored tree after a failover: the pages are
// home-addressed at Home, but their bytes live at the same (identity)
// offsets in this server's own region, per the replicated slab layout.
// Pointers addressed to either Home or the local server are accepted; both
// resolve to the local region by offset. Pages the handler allocates come
// from the local server's own allocator — and thus its own slab — so they
// are addressed at (and homed on) the local server: after a failover a
// group's tree may span pages of several groups, which routing handles
// transparently (each page's home is whatever its pointer encodes).
type ReplicaLocalMem struct {
	Srv  *rdma.Server
	Home int
}

var _ Mem = ReplicaLocalMem{}

func (m ReplicaLocalMem) check(p rdma.RemotePtr) uint64 {
	if p.IsNull() {
		panic("btree: null pointer dereference")
	}
	if s := p.Server(); s != m.Srv.ID && s != m.Home {
		panic("btree: ReplicaLocalMem access outside group")
	}
	return p.Offset()
}

// ReadWords implements Mem.
func (m ReplicaLocalMem) ReadWords(p rdma.RemotePtr, dst []uint64) error {
	m.Srv.Region.Read(m.check(p), dst)
	return nil
}

// ReadValidated implements Mem.
func (m ReplicaLocalMem) ReadValidated(p rdma.RemotePtr, dst []uint64) (uint64, bool, error) {
	off := m.check(p)
	m.Srv.Region.Read(off, dst)
	v, ok := validated(m.Srv.Region.Load(off), dst)
	return v, ok, nil
}

// WriteWords implements Mem.
func (m ReplicaLocalMem) WriteWords(p rdma.RemotePtr, src []uint64) error {
	m.Srv.Region.Write(m.check(p), src)
	return nil
}

// WriteUnlock implements Mem.
func (m ReplicaLocalMem) WriteUnlock(p rdma.RemotePtr, body []uint64) Publish {
	return localPublish(m.Srv.Region, m.check(p), body)
}

// LoadWord implements Mem.
func (m ReplicaLocalMem) LoadWord(p rdma.RemotePtr) (uint64, error) {
	return m.Srv.Region.Load(m.check(p)), nil
}

// CAS implements Mem.
func (m ReplicaLocalMem) CAS(p rdma.RemotePtr, old, new uint64) (uint64, error) {
	return m.Srv.Region.CompareAndSwap(m.check(p), old, new), nil
}

// FetchAdd implements Mem.
func (m ReplicaLocalMem) FetchAdd(p rdma.RemotePtr, delta uint64) (uint64, error) {
	return m.Srv.Region.FetchAdd(m.check(p), delta), nil
}

// AllocPages implements Mem: new pages come from the local server's own
// slab and are addressed at the local server.
func (m ReplicaLocalMem) AllocPages(level int, n int, ps []rdma.RemotePtr) error {
	return allocLocal(m.Srv, n, ps)
}

// FreePage implements Mem: only locally-allocated pages can be returned;
// mirrored pages of the lost home leak until the group is rebuilt.
func (m ReplicaLocalMem) FreePage(p rdma.RemotePtr, n int) error {
	if p.Server() != m.Srv.ID {
		return nil
	}
	m.Srv.Alloc.Free(p.Offset(), n)
	return nil
}

// ReadPages implements Mem.
func (m ReplicaLocalMem) ReadPages(ps []rdma.RemotePtr, dst [][]uint64, versions []uint64) error {
	for i, p := range ps {
		off := m.check(p)
		m.Srv.Region.Read(off, dst[i])
		versions[i] = m.Srv.Region.Load(off)
	}
	return nil
}

// WritePages implements Mem.
func (m ReplicaLocalMem) WritePages(ps []rdma.RemotePtr, srcs [][]uint64) error {
	for i, p := range ps {
		m.Srv.Region.Write(m.check(p), srcs[i])
	}
	return nil
}
