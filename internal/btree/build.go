package btree

import (
	"fmt"

	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/rdma"
)

// BuildStats reports the shape of a bulk-loaded tree.
type BuildStats struct {
	Items  int
	Leaves int
	Inner  int
	Heads  int
	Height int
}

// BuildConfig controls bulk loading.
type BuildConfig struct {
	// Fill is the target fill factor of leaves and inner nodes (0 < Fill <=
	// 1, default 0.9).
	Fill float64
	// HeadEvery inserts a head node (Section 4.3) into the leaf chain after
	// every HeadEvery leaves; 0 disables head nodes. Head nodes hold the
	// pointers of the leaves of the following group, so range scans can
	// prefetch them in one batched READ.
	HeadEvery int
}

func (c *BuildConfig) fillTarget(cap int) int {
	f := c.Fill
	if f <= 0 || f > 1 {
		f = 0.9
	}
	n := int(f * float64(cap))
	if n < 1 {
		n = 1
	}
	if n > cap {
		n = cap
	}
	return n
}

type levelEntry struct {
	high layout.Key
	ptr  rdma.RemotePtr
}

// buildBatch is the number of finished pages Build queues before writing
// them with one Mem.WritePages, which over one-sided verbs is one doorbell.
// On tcpnet the batch's replies are a 5-byte frame per WRITE, a few hundred
// bytes in all: far below the 64 KB buffers whose overflow, with both ends
// writing before they read, could stall a batch (tcpnet's package comment).
const buildBatch = 64

// pageWriter queues Build's finished pages and writes them buildBatch at a
// time, recycling the written pages' buffers for the next ones.
type pageWriter struct {
	m     Mem
	l     layout.Layout
	ptrs  []rdma.RemotePtr
	pages [][]uint64 // page images of ptrs, queued
	spare [][]uint64 // buffers of written pages
}

// node returns a page buffer for the next page, a written page's if one is
// spare. Its caller starts it with an Init method, which zeroes the whole
// page: unused slots are part of the page image too.
func (w *pageWriter) node() layout.Node {
	if k := len(w.spare); k > 0 {
		buf := w.spare[k-1]
		w.spare = w.spare[:k-1]
		return w.l.Wrap(buf)
	}
	return w.l.NewNode()
}

// put queues the finished page n for p, writing the queue once it is full.
func (w *pageWriter) put(p rdma.RemotePtr, n layout.Node) error {
	w.ptrs = append(w.ptrs, p)
	w.pages = append(w.pages, n.W)
	if len(w.ptrs) < buildBatch {
		return nil
	}
	return w.flush()
}

// flush writes every queued page.
func (w *pageWriter) flush() error {
	if len(w.ptrs) == 0 {
		return nil
	}
	err := w.m.WritePages(w.ptrs, w.pages)
	w.spare = append(w.spare, w.pages...)
	w.ptrs, w.pages = w.ptrs[:0], w.pages[:0]
	return err
}

// innerEnd returns the end of the inner node that starts at entry start of
// a level with total entries, target of them per node.
func innerEnd(start, total, target int) int {
	end := min(start+target, total)
	// Avoid a trailing 1-entry node: borrow from this chunk.
	if rem := total - end; rem == 1 && end-start > 1 {
		end--
	}
	return end
}

// Build bulk-loads a tree with n items; at(i) must return items in
// non-decreasing key order. The tree is built bottom-up directly through Mem
// (an untimed setup path on the simulated fabric) and published at
// t.RootWord. Build must not race with other accessors.
//
// Each level is reserved with one Mem.AllocPages call before it is filled,
// and every page is written exactly once, with its final contents, in
// batches of buildBatch pages through Mem.WritePages; the last batch lands
// before the root word is published.
func (t *Tree) Build(env rdma.Env, cfg BuildConfig, n int, at func(i int) (k layout.Key, v uint64)) (BuildStats, error) {
	var bs BuildStats
	bs.Items = n
	if n == 0 {
		return bs, t.Init(env)
	}
	w := pageWriter{
		m:     t.M,
		l:     t.L,
		ptrs:  make([]rdma.RemotePtr, 0, buildBatch),
		pages: make([][]uint64, 0, buildBatch),
		spare: make([][]uint64, 0, buildBatch),
	}

	// The leaf chain is L1..Lh, H1, L(h+1)..L(2h), H2, ... (h = HeadEvery):
	// head node Hi follows group i and announces the leaves of group i+1, and
	// a group that ends the input leaves a last head announcing nothing. The
	// level is reserved in chain order, so each page's right sibling is the
	// next reserved page and a head's leaves are known before they are
	// filled.
	leafTarget := cfg.fillTarget(t.L.LeafCap)
	bs.Leaves = (n + leafTarget - 1) / leafTarget
	if cfg.HeadEvery > 0 {
		bs.Heads = bs.Leaves / cfg.HeadEvery
	}
	chain := make([]rdma.RemotePtr, bs.Leaves+bs.Heads)
	if err := t.M.AllocPages(0, t.L.PageBytes, chain); err != nil {
		return bs, err
	}
	entries := make([]levelEntry, 0, bs.Leaves) // (highKey, ptr) per leaf, for the parent level
	pos := 0                                    // chain index of the next page to finish
	finish := func(nd layout.Node) error {
		if pos+1 < len(chain) {
			nd.SetRight(chain[pos+1])
		}
		pos++
		return w.put(chain[pos-1], nd)
	}
	// closeLeaf finishes leaf cur with fence high, and the head that follows
	// it at a group boundary.
	closeLeaf := func(cur layout.Node, high layout.Key) error {
		cur.SetHighKey(high)
		entries = append(entries, levelEntry{high, chain[pos]})
		if err := finish(cur); err != nil {
			return err
		}
		if cfg.HeadEvery == 0 || len(entries)%cfg.HeadEvery != 0 {
			return nil
		}
		head := w.node()
		head.InitHead()
		for _, p := range chain[pos+1 : pos+1+min(cfg.HeadEvery, bs.Leaves-len(entries))] {
			head.HeadAppend(p)
		}
		return finish(head)
	}

	cur := w.node()
	cur.InitLeaf()
	for i := 0; i < n; i++ {
		k, v := at(i)
		if k == layout.MaxKey {
			return bs, ErrKeyReserved
		}
		if cur.Count() > 0 && k < cur.LeafKey(cur.Count()-1) {
			return bs, fmt.Errorf("btree: Build input not sorted at item %d", i)
		}
		if cur.Count() >= leafTarget {
			if err := closeLeaf(cur, cur.LeafKey(cur.Count()-1)); err != nil {
				return bs, err
			}
			cur = w.node()
			cur.InitLeaf()
		}
		cur.LeafAppend(k, v)
	}
	// The rightmost leaf fences +inf.
	if err := closeLeaf(cur, layout.MaxKey); err != nil {
		return bs, err
	}

	// Inner levels, bottom-up. A level's entries replace its children's in
	// place: node j is built from entries at or after j before it writes
	// entries[j].
	innerTarget := cfg.fillTarget(t.L.InnerCap)
	level := 1
	for len(entries) > 1 {
		if level > 0xff {
			return bs, fmt.Errorf("btree: tree too tall")
		}
		nodes := 0
		for start := 0; start < len(entries); start = innerEnd(start, len(entries), innerTarget) {
			nodes++
		}
		ptrs := chain[:nodes]
		if err := t.M.AllocPages(level, t.L.PageBytes, ptrs); err != nil {
			return bs, err
		}
		start := 0
		for j, p := range ptrs {
			end := innerEnd(start, len(entries), innerTarget)
			node := w.node()
			node.InitInner(level)
			for _, e := range entries[start:end] {
				node.InnerAppend(e.high, e.ptr)
			}
			node.SetHighKey(node.InnerKey(node.Count() - 1))
			if j > 0 {
				node.SetLeft(ptrs[j-1])
			}
			if j+1 < nodes {
				node.SetRight(ptrs[j+1])
			}
			entries[j] = levelEntry{node.HighKey(), p}
			if err := w.put(p, node); err != nil {
				return bs, err
			}
			start = end
		}
		entries = entries[:nodes]
		bs.Inner += nodes
		level++
	}
	if err := w.flush(); err != nil {
		return bs, err
	}
	rootPtr := entries[0].ptr
	if err := t.M.WriteWords(t.RootWord, []uint64{uint64(rootPtr)}); err != nil {
		return bs, err
	}
	t.cachedRoot = rootPtr
	bs.Height = level
	return bs, nil
}

// Compact walks the leaf chain and physically removes delete-bit entries —
// the epoch garbage collector's per-epoch pass (Section 3.2/4.2). It returns
// the number of entries removed. Node deallocation/rebalancing is out of
// scope, as in the paper's implementation.
func (t *Tree) Compact(env rdma.Env) (removed int, st Stats, err error) {
	p, _, _, err := t.descendToLeaf(env, &st, 0)
	if err != nil {
		return 0, st, err
	}
	var buf []uint64
	for !p.IsNull() {
		n, _, err := t.readNode(env, &st, p, buf)
		if err != nil {
			return removed, st, err
		}
		buf = n.W
		if n.IsHead() {
			p = n.Right()
			continue
		}
		// Cheap pre-check on the consistent copy before taking the lock.
		dirty := false
		for i := 0; i < n.Count(); i++ {
			if n.LeafDeleted(i) {
				dirty = true
				break
			}
		}
		if !dirty {
			p = n.Right()
			continue
		}
		lp, ln, pre, err := t.lockNodeForKey(env, &st, p, 0)
		if err != nil {
			return removed, st, err
		}
		r := ln.LeafCompact()
		removed += r
		if r > 0 {
			err = t.unlockBump(env, &st, lp, ln, pre)
		} else {
			err = t.unlockNoChange(&st, lp, pre)
		}
		if err != nil {
			return removed, st, err
		}
		p = ln.Right()
	}
	return removed, st, nil
}

// RebuildHeads rewrites the head nodes of the leaf chain so that each again
// announces the every-th following leaves — the epoch-based head-node
// maintenance of Section 4.3, run by a compute server. Old head nodes are
// unlinked and returned for deferred freeing (after an epoch, when no reader
// can still hold their pointers); new heads are linked in. It must not race
// with other RebuildHeads/Compact calls (single maintenance thread, as in
// the paper).
func (t *Tree) RebuildHeads(env rdma.Env, every int) (retired []rdma.RemotePtr, st Stats, err error) {
	if every < 2 {
		return nil, st, fmt.Errorf("btree: head group size must be >= 2")
	}
	p, _, _, err := t.descendToLeaf(env, &st, 0)
	if err != nil {
		return nil, st, err
	}
	// Pass 1: unlink all existing head nodes. For each head H between
	// leaves A and B (A -> H -> B), lock A and repoint A.Right to B.
	var prevLeaf rdma.RemotePtr
	var buf []uint64
	for !p.IsNull() {
		n, _, err := t.readNode(env, &st, p, buf)
		if err != nil {
			return retired, st, err
		}
		buf = n.W
		if !n.IsHead() {
			prevLeaf = p
			p = n.Right()
			continue
		}
		next := n.Right()
		if prevLeaf.IsNull() {
			return retired, st, fmt.Errorf("btree: head node at chain start")
		}
		lp, ln, lpre, err := t.lockNodeForKey(env, &st, prevLeaf, 0)
		if err != nil {
			return retired, st, err
		}
		if lp != prevLeaf {
			t.abortUnlock(&st, lp, lpre)
			return retired, st, fmt.Errorf("btree: predecessor moved during head unlink")
		}
		ln.SetRight(next)
		if err := t.unlockBump(env, &st, lp, ln, lpre); err != nil {
			return retired, st, err
		}
		retired = append(retired, p)
		p = next
	}
	// Pass 2: walk the (now head-free) chain and install fresh heads.
	p, _, _, err = t.descendToLeaf(env, &st, 0)
	if err != nil {
		return retired, st, err
	}
	var group []rdma.RemotePtr // leaves of the current group, in order
	var fresh [1]rdma.RemotePtr
	buf = nil
	for !p.IsNull() {
		n, _, err := t.readNode(env, &st, p, buf)
		if err != nil {
			return retired, st, err
		}
		buf = n.W
		next := n.Right()
		group = append(group, p)
		if len(group) == every+1 || next.IsNull() {
			// group[0] is the leaf the head follows; group[1:] are announced.
			if len(group) > 2 {
				if err := t.M.AllocPages(0, t.L.PageBytes, fresh[:]); err != nil {
					return retired, st, err
				}
				hp := fresh[0]
				st.ExposedRTTs++
				h := t.L.NewNode()
				h.InitHead()
				for _, lp := range group[1:] {
					h.HeadAppend(lp)
				}
				h.SetRight(group[1])
				h.SetLeft(group[0])
				if err := t.M.WriteWords(hp, h.W); err != nil {
					return retired, st, err
				}
				st.PageWrites++
				st.ExposedRTTs++
				// Link group[0] -> head.
				lp0, ln0, pre0, err := t.lockNodeForKey(env, &st, group[0], 0)
				if err != nil {
					return retired, st, err
				}
				if lp0 != group[0] {
					t.abortUnlock(&st, lp0, pre0)
					return retired, st, fmt.Errorf("btree: leaf moved during head install")
				}
				ln0.SetRight(hp)
				if err := t.unlockBump(env, &st, lp0, ln0, pre0); err != nil {
					return retired, st, err
				}
			}
			// The last leaf of this group starts the next one.
			group = group[len(group)-1:]
		}
		p = next
	}
	return retired, st, nil
}

// FreeRetired returns retired pages (from RebuildHeads) to their allocators;
// callers invoke it after an epoch has passed.
func (t *Tree) FreeRetired(ptrs []rdma.RemotePtr) error {
	for _, p := range ptrs {
		if err := t.M.FreePage(p, t.L.PageBytes); err != nil {
			return err
		}
	}
	return nil
}

// CheckInvariants verifies structural invariants of the whole tree. It must
// run quiesced (no concurrent writers). Checked: key order within and across
// leaves, fence keys, sibling chains per level, parent separator == child
// fence, level consistency, head-node pointers targeting leaves, and that
// every live entry is reachable. Returns the number of live entries.
func (t *Tree) CheckInvariants(env rdma.Env) (liveEntries int, err error) {
	var st Stats
	rootPtr, err := t.refreshRoot(&st)
	if err != nil {
		return 0, err
	}
	root, _, err := t.readNode(env, &st, rootPtr, nil)
	if err != nil {
		return 0, err
	}
	// Walk each level left-to-right. The walk buffer is reused node to node;
	// nested reads (head targets, children) use a separate buffer because the
	// parent copy must stay live across them.
	levelStart := rootPtr
	var buf, childBuf []uint64
	for lvl := root.Level(); lvl >= 0; lvl-- {
		p := levelStart
		var prevHigh layout.Key
		first := true
		var lastHigh layout.Key
		var nextLevelStart rdma.RemotePtr
		for !p.IsNull() {
			n, _, err := t.readNode(env, &st, p, buf)
			if err != nil {
				return 0, err
			}
			buf = n.W
			if n.IsHead() {
				if lvl != 0 {
					return 0, fmt.Errorf("head node on level %d", lvl)
				}
				for i := 0; i < n.Count(); i++ {
					hn, _, err := t.readNode(env, &st, n.HeadPtr(i), childBuf)
					if err != nil {
						return 0, err
					}
					childBuf = hn.W
					if !hn.IsLeaf() {
						return 0, fmt.Errorf("head pointer %d targets non-leaf", i)
					}
				}
				p = n.Right()
				continue
			}
			if n.Level() != lvl {
				return 0, fmt.Errorf("node %v on level %d has level %d", p, lvl, n.Level())
			}
			if n.IsLeaf() != (lvl == 0) {
				return 0, fmt.Errorf("node %v leaf flag inconsistent with level %d", p, lvl)
			}
			// Inner nodes are never empty; leaves may be (the GC compacts
			// in place and never merges, as in the paper).
			if n.Count() == 0 && lvl > 0 {
				return 0, fmt.Errorf("empty inner node %v on level %d", p, lvl)
			}
			for i := 0; i < n.Count(); i++ {
				var k layout.Key
				if lvl == 0 {
					k = n.LeafKey(i)
					if !n.LeafDeleted(i) {
						liveEntries++
					}
				} else {
					k = n.InnerKey(i)
				}
				if i > 0 {
					prev := n.LeafKey(i - 1)
					if lvl > 0 {
						prev = n.InnerKey(i - 1)
					}
					if prev > k {
						return 0, fmt.Errorf("node %v keys unsorted at %d", p, i)
					}
				}
				if k > n.HighKey() {
					return 0, fmt.Errorf("node %v key %d exceeds fence %d", p, k, n.HighKey())
				}
			}
			if !first && n.Count() > 0 {
				firstKey := n.InnerKey(0)
				if lvl == 0 {
					firstKey = n.LeafKey(0)
				}
				// Duplicate keys/separators may equal the previous fence.
				if firstKey < prevHigh {
					return 0, fmt.Errorf("node %v first key %d below previous fence %d", p, firstKey, prevHigh)
				}
			}
			if lvl > 0 {
				if n.Count() > 0 && n.InnerKey(n.Count()-1) != n.HighKey() {
					return 0, fmt.Errorf("inner node %v last separator %d != fence %d", p, n.InnerKey(n.Count()-1), n.HighKey())
				}
				for i := 0; i < n.Count(); i++ {
					child, _, err := t.readNode(env, &st, n.InnerChild(i), childBuf)
					if err != nil {
						return 0, err
					}
					childBuf = child.W
					if child.Level() != lvl-1 {
						return 0, fmt.Errorf("child %d of %v has level %d; want %d", i, p, child.Level(), lvl-1)
					}
					if child.HighKey() > n.InnerKey(i) {
						return 0, fmt.Errorf("child %d of %v fence %d exceeds separator %d", i, p, child.HighKey(), n.InnerKey(i))
					}
				}
				if first {
					nextLevelStart = n.InnerChild(0)
				}
			}
			prevHigh = n.HighKey()
			lastHigh = n.HighKey()
			first = false
			p = n.Right()
		}
		if lastHigh != layout.MaxKey {
			return 0, fmt.Errorf("level %d rightmost fence %d != MaxKey", lvl, lastHigh)
		}
		if lvl > 0 {
			levelStart = nextLevelStart
		}
	}
	return liveEntries, nil
}
