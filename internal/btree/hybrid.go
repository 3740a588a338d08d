package btree

import (
	"fmt"

	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/rdma"
)

// This file exports the entry points the hybrid design (Section 5) composes:
// the upper levels of the index are traversed by an RPC handler on the
// memory server (FindLeaf, Install over LocalMem), while the leaf level is
// accessed by compute servers with the one-sided protocol (LeafLookup,
// LeafScan, LeafInsertAt, LeafDeleteAt over EndpointMem).

// FindLeaf descends from the root to level 1 and returns the pointer of the
// leaf responsible for key — the hybrid design's RPC traversal result.
func (t *Tree) FindLeaf(env rdma.Env, key layout.Key) (rdma.RemotePtr, Stats, error) {
	var st Stats
	p, err := t.root(&st)
	if err != nil {
		return rdma.NullPtr, st, err
	}
	buf := t.scratchPage()
	depth := 1
	for {
		n, _, err := t.readNode(env, &st, p, buf)
		if err != nil {
			return rdma.NullPtr, st, err
		}
		buf = n.W
		if n.IsHead() || key > n.HighKey() {
			p = n.Right()
			if p.IsNull() {
				return rdma.NullPtr, st, fmt.Errorf("btree: fell off chain for key %d", key)
			}
			continue
		}
		if n.IsLeaf() {
			// Height-1 tree: the root is the leaf.
			st.Depth = depth
			return p, st, nil
		}
		child, ok := n.InnerRoute(key)
		if !ok {
			panic("btree: routing failed within fence")
		}
		if n.Level() == 1 {
			st.Depth = depth + 1
			return child, st, nil
		}
		p = child
		depth++
	}
}

// Install inserts the separator of a completed child split into the given
// level — the hybrid design's second RPC, executed by the memory server
// owning the upper levels after a compute server split a leaf one-sided.
func (t *Tree) Install(env rdma.Env, level int, sep layout.Key, left, right rdma.RemotePtr) (Stats, error) {
	tr := t.driver(env)
	tr.beginInstall(level, sep, left, right)
	err := t.drive(tr)
	return tr.St, err
}

// Split reports a completed in-place split of the leaf Left: the upper part
// of its range, bounded by Sep, now lives in the new node Right.
type Split struct {
	Sep   layout.Key
	Left  rdma.RemotePtr
	Right rdma.RemotePtr
}

// LeafLookup collects all live values under key starting from the leaf chain
// at leafPtr (which must be the leaf responsible for key, or left of it).
// The returned slice is the caller's.
func (t *Tree) LeafLookup(env rdma.Env, leafPtr rdma.RemotePtr, key layout.Key) (values []uint64, st Stats, err error) {
	tr := t.driver(env)
	tr.beginLeaf(TravLookup, leafPtr, key, 0)
	err = t.drive(tr)
	values, tr.Values = tr.Values, nil
	if err != nil {
		return nil, tr.St, err
	}
	return values, tr.St, nil
}

// LeafScan emits live entries in [lo, hi] starting from the leaf chain at
// leafPtr, with head-node prefetching as in Tree.Scan.
func (t *Tree) LeafScan(env rdma.Env, leafPtr rdma.RemotePtr, lo, hi layout.Key, emit func(k layout.Key, v uint64) bool) (Stats, error) {
	var st Stats
	// Position on the chain: skip past nodes whose range is below lo.
	p := leafPtr
	n, _, err := t.readNode(env, &st, p, nil)
	if err != nil {
		return st, err
	}
	return t.scanChain(env, &st, p, n, lo, hi, emit)
}

// LeafInsertAt inserts (key, value) into the leaf chain starting at leafPtr.
// If the leaf split, the split description is returned and the caller is
// responsible for installing the separator into the upper levels (via the
// hybrid design's install RPC).
func (t *Tree) LeafInsertAt(env rdma.Env, leafPtr rdma.RemotePtr, key layout.Key, value uint64) (*Split, Stats, error) {
	tr := t.driver(env)
	tr.beginLeaf(TravInsert, leafPtr, key, value)
	if err := t.drive(tr); err != nil || !tr.owesInstall {
		return nil, tr.St, err
	}
	return &Split{Sep: tr.owed.sep, Left: tr.owed.left, Right: tr.owed.right}, tr.St, nil
}

// LeafDeleteAt marks the first live (key, value) entry deleted, starting
// from the leaf chain at leafPtr.
func (t *Tree) LeafDeleteAt(env rdma.Env, leafPtr rdma.RemotePtr, key layout.Key, value uint64) (bool, Stats, error) {
	tr := t.driver(env)
	tr.beginLeaf(TravDelete, leafPtr, key, value)
	err := t.drive(tr)
	return tr.Found, tr.St, err
}
