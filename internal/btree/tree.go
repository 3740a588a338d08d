package btree

import (
	"errors"
	"fmt"

	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/rdma"
)

// ErrKeyReserved is returned when inserting the MaxKey sentinel.
var ErrKeyReserved = errors.New("btree: MaxKey is reserved as the +inf sentinel")

// ErrSpinBudget is returned when an operation exceeds the tree's SpinBudget
// of consistency restarts (lock spins, torn reads, lock-CAS losses). Under a
// healthy fabric restarts are short-lived, so a blown budget indicates a
// page whose lock is starved or stuck (e.g. a writer that died mid-critical
// section under fault injection). Operation-level recovery treats it like a
// transient verb failure: invalidate the cached root and re-traverse.
var ErrSpinBudget = errors.New("btree: consistency-restart budget exhausted")

// Stats counts the memory traffic and synchronization events of one
// operation; on the fine-grained design every traffic unit here is a
// one-sided RDMA verb.
type Stats struct {
	PageReads  int // full-page READs
	WordReads  int // 8-byte validation/root READs
	PageWrites int // page/body WRITEs
	Atomics    int // CAS + FETCH_AND_ADD
	Restarts   int // consistency retries (sum of the three causes below)
	Prefetches int // pages fetched through head-node batches

	// ExposedRTTs counts blocking network interactions: doorbell batches
	// and single verbs whose completion the operation waited on before
	// making progress. Under the fused read protocol a clean descent costs
	// depth exposed round trips plus one per leaf interaction, where the
	// unbatched Listing-2 protocol paid two per level. (The counter
	// reflects the fused protocol's batching; a Mem running the legacy
	// unbatched baseline performs more blocking verbs than counted here —
	// the telemetry verb counters are the authoritative measurement in
	// that mode.)
	ExposedRTTs int

	// Synchronization breakdown of Restarts, plus structural events — the
	// index-protocol counters surfaced by internal/telemetry.
	LockSpins     int // page copy observed a held lock bit (reader waited)
	VersionAborts int // version word changed during a page copy (torn read)
	LockRetries   int // lock-acquisition CAS lost to a concurrent writer
	Splits        int // node splits performed (leaf and inner)
	Depth         int // levels visited by the last root-to-leaf descent
}

// Add accumulates other into s. Depth is taken from other when set (it is a
// per-descent measurement, not a running total).
func (s *Stats) Add(other Stats) {
	s.PageReads += other.PageReads
	s.WordReads += other.WordReads
	s.PageWrites += other.PageWrites
	s.Atomics += other.Atomics
	s.Restarts += other.Restarts
	s.Prefetches += other.Prefetches
	s.ExposedRTTs += other.ExposedRTTs
	s.LockSpins += other.LockSpins
	s.VersionAborts += other.VersionAborts
	s.LockRetries += other.LockRetries
	s.Splits += other.Splits
	if other.Depth > 0 {
		s.Depth = other.Depth
	}
}

// Ops returns the total number of memory/network operations.
func (s *Stats) Ops() int {
	return s.PageReads + s.WordReads + s.PageWrites + s.Atomics
}

// Tree is a B-link tree living in Mem. It is a *client handle*: any number
// of Tree handles (one per compute thread / RPC handler) may operate on the
// same underlying tree concurrently; shared state lives entirely in Mem.
//
// The root pointer is stored at RootWord (installed in the catalog service);
// handles cache it and refresh on miss. A stale cached root stays correct —
// descents recover through sibling links — it only costs extra hops.
type Tree struct {
	L layout.Layout
	M Mem
	// RootWord is the location of the 8-byte word holding the root pointer.
	RootWord rdma.RemotePtr
	// VisitNS is the CPU time charged to the Env per page visited; used by
	// the coarse-grained design's handlers on the simulated fabric.
	VisitNS int64
	// SpinBudget bounds the consistency restarts (Stats.Restarts) one
	// operation may accumulate before failing with ErrSpinBudget; 0 means
	// unlimited (the pre-fault-injection behavior: spin until consistent).
	// Clients running under fault injection set a budget so a stuck page
	// lock surfaces as a typed error instead of a hang.
	SpinBudget int
	// Repl, when non-nil, receives every committed page post-image for
	// mirroring onto backup servers (k-way replication). Nil disables
	// replication with zero cost on the write path.
	Repl Replicator

	cachedRoot rdma.RemotePtr

	// Per-handle scratch. A Tree handle is single-owner (one compute thread
	// or one RPC handler invocation), so the blocking paths share one lazily
	// allocated page buffer, and the point operations step one traversal
	// over one sink (drive.go) — the hot paths run allocation-free in
	// steady state.
	pageBuf []uint64
	drv     Traversal
	sink    memSink
}

// scratchPage returns the handle's lazily allocated page buffer. Callers own
// it only until the next operation on this handle; every call site consumes
// the previous user's copy before overwriting (descents, lock acquisitions
// and leaf ops never need two live scratch pages at once).
func (t *Tree) scratchPage() []uint64 {
	if t.pageBuf == nil {
		t.pageBuf = make([]uint64, t.L.Words)
	}
	return t.pageBuf
}

// New returns a handle onto the tree whose root pointer lives at rootWord.
func New(l layout.Layout, m Mem, rootWord rdma.RemotePtr) *Tree {
	return &Tree{L: l, M: m, RootWord: rootWord}
}

// Init creates an empty tree: a single empty root leaf, and publishes it at
// RootWord. It must be called exactly once per tree, before any other
// operation and before concurrent access begins.
func (t *Tree) Init(env rdma.Env) error {
	var ps [1]rdma.RemotePtr
	if err := t.M.AllocPages(0, t.L.PageBytes, ps[:]); err != nil {
		return err
	}
	p := ps[0]
	n := t.L.NewNode()
	n.InitLeaf()
	if err := t.M.WriteWords(p, n.W); err != nil {
		return err
	}
	if t.Repl != nil {
		if err := t.Repl.MirrorFresh(p, n.W); err != nil {
			return err
		}
	}
	if err := t.M.WriteWords(t.RootWord, []uint64{uint64(p)}); err != nil {
		return err
	}
	if t.Repl != nil {
		if err := t.Repl.MirrorWord(t.RootWord, uint64(p)); err != nil {
			return err
		}
	}
	t.cachedRoot = p
	return nil
}

// InvalidateRoot drops the cached root pointer, forcing the next descent to
// re-read it from RootWord. Operation-level fault recovery calls this before
// an epoch-fenced re-traversal: whatever the interrupted operation cached is
// suspect after a server fault.
func (t *Tree) InvalidateRoot() { t.cachedRoot = rdma.NullPtr }

// overBudget reports whether the operation blew its restart budget.
func (t *Tree) overBudget(st *Stats) bool {
	return t.SpinBudget > 0 && st.Restarts >= t.SpinBudget
}

// root returns the (possibly cached) root pointer.
func (t *Tree) root(st *Stats) (rdma.RemotePtr, error) {
	if !t.cachedRoot.IsNull() {
		return t.cachedRoot, nil
	}
	return t.refreshRoot(st)
}

func (t *Tree) refreshRoot(st *Stats) (rdma.RemotePtr, error) {
	w, err := t.M.LoadWord(t.RootWord)
	if err != nil {
		return rdma.NullPtr, err
	}
	st.WordReads++
	st.ExposedRTTs++
	p := rdma.RemotePtr(w)
	if p.IsNull() {
		return rdma.NullPtr, errors.New("btree: tree not initialized")
	}
	t.cachedRoot = p
	return p, nil
}

// readNode fetches a consistent unlocked copy of the page at p via the fused
// consistent-read protocol: the page copy and the version-word re-read are
// posted as one selectively signalled batch (Mem.ReadValidated), so each
// attempt exposes a single round trip instead of Listing 2's two. A failed
// validation (held lock or torn read) retries. Returns the node and its
// validated version.
func (t *Tree) readNode(env rdma.Env, st *Stats, p rdma.RemotePtr, buf []uint64) (layout.Node, uint64, error) {
	if buf == nil {
		buf = make([]uint64, t.L.Words)
	}
	for {
		st.PageReads++
		st.WordReads++
		st.ExposedRTTs++
		env.Charge(t.VisitNS)
		v, ok, err := t.M.ReadValidated(p, buf)
		if err != nil {
			return layout.Node{}, 0, err
		}
		if ok {
			return t.L.Wrap(buf), v, nil
		}
		st.Restarts++
		if layout.IsLocked(layout.BufVersion(buf)) || layout.IsLocked(v) {
			st.LockSpins++
		} else {
			st.VersionAborts++
		}
		if t.overBudget(st) {
			return layout.Node{}, 0, fmt.Errorf("btree: %d restarts reading %v: %w", st.Restarts, p, ErrSpinBudget)
		}
		env.Pause()
	}
}

// lockNodeForKey locks the node on the chain starting at p that is
// responsible for key: it reads, moves right past head nodes and outgrown
// fences, and CASes the lock bit. On return the copy is consistent, current
// and locked. Returns the final pointer, node copy and the pre-lock version.
func (t *Tree) lockNodeForKey(env rdma.Env, st *Stats, p rdma.RemotePtr, key layout.Key) (rdma.RemotePtr, layout.Node, uint64, error) {
	buf := t.scratchPage()
	for {
		n, v, err := t.readNode(env, st, p, buf)
		if err != nil {
			return rdma.NullPtr, layout.Node{}, 0, err
		}
		buf = n.W
		if n.IsHead() || key > n.HighKey() {
			p = n.Right()
			if p.IsNull() {
				return rdma.NullPtr, layout.Node{}, 0, fmt.Errorf("btree: fell off chain for key %d", key)
			}
			continue
		}
		prev, err := t.M.CAS(p, v, layout.WithLock(v))
		if err != nil {
			return rdma.NullPtr, layout.Node{}, 0, err
		}
		st.Atomics++
		st.ExposedRTTs++
		if prev != v {
			st.Restarts++
			st.LockRetries++
			if t.overBudget(st) {
				return rdma.NullPtr, layout.Node{}, 0, fmt.Errorf("btree: %d restarts locking %v: %w", st.Restarts, p, ErrSpinBudget)
			}
			env.Pause()
			continue
		}
		return p, n, v, nil
	}
}

// unlockBump writes the node body back and releases the lock with a
// FETCH_AND_ADD, bumping the version (Listing 4's remote_writeUnlock, with
// the body write excluding the version word so the FAA both publishes and
// unlocks). preLock is the version observed before the lock CAS; it is the
// restore point when the body write fails.
//
// Fault discipline: a failed verb was never executed remotely (the
// repository's fault model, DESIGN.md §9). A failed body write therefore
// left the page unchanged, and the lock is released by restoring preLock —
// no reader can ever observe a half-published body. Once the body write
// succeeded the version MUST move forward (restoring preLock would validate
// readers' pre-write snapshots against the new body), so the unlock FAA is
// driven to completion: each retry is safe for the same never-executed
// reason. Only a permanent failure (server lost) or an exhausted completion
// budget abandons the page — locked, on a server that is gone or
// unreachable for far longer than any scheduled outage.
func (t *Tree) unlockBump(env rdma.Env, st *Stats, p rdma.RemotePtr, n layout.Node, preLock uint64) error {
	if err := t.M.WriteWords(p.Add(8), n.W[1:]); err != nil {
		t.abortUnlock(st, p, preLock)
		return err
	}
	st.PageWrites++
	st.ExposedRTTs++
	env.Charge(t.VisitNS)
	var err error
	for i := 0; i < unlockCompletionBudget; i++ { //rdmavet:allow retrynaked -- the body is published and the lock must be released; a failed FAA was never executed, so driving it to completion is the only safe exit
		if _, err = t.M.FetchAdd(p, 1); err == nil {
			st.Atomics++
			st.ExposedRTTs++
			if t.Repl != nil {
				// The page is published at version preLock+2 (the lock CAS
				// set preLock|1, the FAA added 1). Stamp the image with the
				// published version and mirror it; a mirror failure leaves
				// the op un-acked but the primary copy committed, which the
				// recovery layer's presence check resolves idempotently.
				layout.SetBufVersion(n.W, preLock+2)
				return t.Repl.MirrorPage(p, n.W)
			}
			return nil
		}
		if !rdma.IsTransient(err) {
			return err
		}
		env.Pause()
	}
	return fmt.Errorf("btree: unlock of %v incomplete after %d attempts (page stays locked): %w",
		p, unlockCompletionBudget, err)
}

// unlockCompletionBudget bounds the unlock-FAA completion loop. Each attempt
// below already carries the verb layer's own bounded retries and reconnects,
// so the budget is generous: it is only ever exhausted by a server that
// stays unreachable for longer than every scheduled outage.
const unlockCompletionBudget = 64

// abortUnlock is the error-path lock release: a verb failed while the page
// was locked and its body still unchanged, so restore the pre-lock version.
// Best-effort — if the release itself fails (server gone) the original
// error is already propagating and the page is unreachable anyway.
func (t *Tree) abortUnlock(st *Stats, p rdma.RemotePtr, preLock uint64) {
	prev, err := t.M.CAS(p, layout.WithLock(preLock), preLock)
	if err == nil && prev == layout.WithLock(preLock) {
		st.Atomics++
	}
}

// unlockNoChange releases the lock restoring the pre-lock version (the node
// was not modified, readers need not be invalidated).
func (t *Tree) unlockNoChange(st *Stats, p rdma.RemotePtr, preLock uint64) error {
	prev, err := t.M.CAS(p, layout.WithLock(preLock), preLock)
	if err != nil {
		return err
	}
	st.Atomics++
	st.ExposedRTTs++
	if prev != layout.WithLock(preLock) {
		panic("btree: lock word changed while held")
	}
	return nil
}

// descendToLeaf walks from the root to the leaf responsible for key,
// chasing right-sibling links where concurrent splits have outgrown a fence.
// It returns a consistent copy of the leaf and its pointer.
func (t *Tree) descendToLeaf(env rdma.Env, st *Stats, key layout.Key) (rdma.RemotePtr, layout.Node, uint64, error) {
	p, err := t.root(st)
	if err != nil {
		return rdma.NullPtr, layout.Node{}, 0, err
	}
	buf := t.scratchPage()
	depth := 1
	for {
		n, v, err := t.readNode(env, st, p, buf)
		if err != nil {
			return rdma.NullPtr, layout.Node{}, 0, err
		}
		buf = n.W
		if n.IsHead() || key > n.HighKey() {
			// Right-moves stay on the same level and do not deepen the path.
			p = n.Right()
			if p.IsNull() {
				return rdma.NullPtr, layout.Node{}, 0, fmt.Errorf("btree: fell off chain for key %d", key)
			}
			continue
		}
		if n.IsLeaf() {
			st.Depth = depth
			return p, n, v, nil
		}
		child, ok := n.InnerRoute(key)
		if !ok {
			// Raced with a split between the fence check and routing on the
			// same copy: cannot happen on a consistent copy.
			panic("btree: routing failed within fence")
		}
		p = child
		depth++
	}
}

// Lookup returns all values stored under key (non-unique index), excluding
// delete-bit entries. found is false when no live entry exists.
//
// The returned slice aliases a per-handle scratch buffer: it is valid only
// until the next operation on this handle. Callers that retain values across
// operations must copy them out.
func (t *Tree) Lookup(env rdma.Env, key layout.Key) (values []uint64, st Stats, err error) {
	tr := t.driver(env)
	tr.Begin(TravLookup, key, 0)
	if err := t.drive(tr); err != nil {
		return nil, tr.St, err
	}
	return tr.Values, tr.St, nil
}

// Scan visits all live entries with lo <= key <= hi in key order, calling
// emit for each; emit returning false stops the scan. Head nodes on the leaf
// chain trigger batched prefetch of the leaves they announce (Section 4.3).
func (t *Tree) Scan(env rdma.Env, lo, hi layout.Key, emit func(k layout.Key, v uint64) bool) (st Stats, err error) {
	p, n, _, err := t.descendToLeaf(env, &st, lo)
	if err != nil {
		return st, err
	}
	return t.scanChain(env, &st, p, n, lo, hi, emit)
}

// scanChain runs the leaf-level part of a range scan starting from a
// consistent copy n of the node at p. The caller relinquishes n's buffer to
// the scan, which recycles page buffers through a small free list: copies
// invalidated at prefetch time and copies the scan has finished emitting go
// back on the list and are reused for later nodes, keeping the chain walk
// allocation-free in steady state.
func (t *Tree) scanChain(env rdma.Env, st *Stats, p rdma.RemotePtr, n layout.Node, lo, hi layout.Key, emit func(k layout.Key, v uint64) bool) (Stats, error) {
	prefetched := make(map[rdma.RemotePtr][]uint64)
	cur := n.W // buffer holding the current node's copy; owned by the scan
	var freelist [][]uint64
	grab := func() []uint64 {
		if k := len(freelist) - 1; k >= 0 {
			b := freelist[k]
			freelist = freelist[:k]
			return b
		}
		return make([]uint64, t.L.Words)
	}
	var ptrs []rdma.RemotePtr
	var bufs [][]uint64
	var vers []uint64
	pastHi := false // passed a fence equal to hi
	for {
		switch {
		case n.IsHead() && pastHi:
			// Only copies of hi that a split moved right can remain, in
			// the next leaf or few; prefetching every announced leaf would
			// fetch pages past the scan's end.
		case n.IsHead():
			// Prefetch the announced leaves: all page READs and all
			// version-word re-reads go out in ONE selectively signalled
			// doorbell batch (2N entries) — per-server entries execute in
			// posting order, so each version word is read after its page
			// copy, and only the batch's last completion is waited on. One
			// exposed round trip replaces the previous two sequential
			// batches. A copy whose version is unchanged and unlocked is a
			// consistent snapshot; invalidated copies are dropped and
			// re-read on use (the paper's extra remote read for outdated
			// hints).
			ptrs = ptrs[:0]
			bufs = bufs[:0]
			for i := 0; i < n.Count(); i++ {
				hp := n.HeadPtr(i)
				if hp.IsNull() {
					continue
				}
				ptrs = append(ptrs, hp)
				bufs = append(bufs, grab())
			}
			if len(ptrs) > 0 {
				if cap(vers) < len(ptrs) {
					vers = make([]uint64, len(ptrs))
				}
				vers = vers[:len(ptrs)]
				if err := t.M.ReadPages(ptrs, bufs, vers); err != nil {
					return *st, err
				}
				st.Prefetches += len(ptrs)
				st.WordReads += len(ptrs)
				st.ExposedRTTs++
				env.Charge(t.VisitNS * int64(len(ptrs)))
				for i, hp := range ptrs {
					v := layout.BufVersion(bufs[i])
					if layout.IsLocked(v) || vers[i] != v {
						freelist = append(freelist, bufs[i])
						continue
					}
					prefetched[hp] = bufs[i]
				}
			}
		default:
			for i := n.LeafLowerBound(lo); i < n.Count(); i++ {
				k := n.LeafKey(i)
				if k > hi {
					return *st, nil
				}
				if n.LeafDeleted(i) {
					continue
				}
				if !emit(k, n.LeafValue(i)) {
					return *st, nil
				}
			}
			// The fence is inclusive and a split can leave copies of a
			// duplicated key on both sides of it, so a fence equal to hi
			// still sends the scan right; only a fence past hi ends it.
			if n.HighKey() > hi {
				return *st, nil
			}
			pastHi = n.HighKey() == hi
		}
		p = n.Right()
		if p.IsNull() {
			return *st, nil
		}
		if buf, ok := prefetched[p]; ok {
			// Already validated at prefetch time: a consistent snapshot.
			delete(prefetched, p)
			freelist = append(freelist, cur)
			cur = buf
			n = t.L.Wrap(buf)
			continue
		}
		var err error
		n, _, err = t.readNode(env, st, p, cur)
		if err != nil {
			return *st, err
		}
		cur = n.W
	}
}

// Insert adds (key, value) to the index. Duplicate keys are allowed.
func (t *Tree) Insert(env rdma.Env, key layout.Key, value uint64) (st Stats, err error) {
	tr := t.driver(env)
	tr.Begin(TravInsert, key, value)
	err = t.drive(tr)
	return tr.St, err
}

// Delete marks the first live entry matching (key, value) with the delete
// bit (Section 3.2: deletes set a bit; physical removal is the epoch garbage
// collector's job). It reports whether an entry was marked.
func (t *Tree) Delete(env rdma.Env, key layout.Key, value uint64) (bool, Stats, error) {
	tr := t.driver(env)
	tr.Begin(TravDelete, key, value)
	err := t.drive(tr)
	return tr.Found, tr.St, err
}

// Height returns the current tree height in levels (1 = a single leaf).
func (t *Tree) Height(env rdma.Env) (int, error) {
	var st Stats
	p, err := t.refreshRoot(&st)
	if err != nil {
		return 0, err
	}
	n, _, err := t.readNode(env, &st, p, nil)
	if err != nil {
		return 0, err
	}
	return n.Level() + 1, nil
}
