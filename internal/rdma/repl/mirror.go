package repl

import (
	"errors"
	"fmt"

	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/rdma/retry"
)

// mirrorLockBudget bounds how long one push waits for a backup page lock
// held by a concurrent push (or re-CASes after losing the lock race).
const mirrorLockBudget = 64

// Mirrorer implements btree.Replicator: it pushes committed page
// post-images to the live backups of the page's home group.
//
// Push protocol for an in-place update (MirrorPage), per backup, all at the
// page's identity offset:
//
//  1. READ [page word0, group epoch word] in one same-QP batch — the words
//     complete in posting order, so if the epoch word still matches the
//     client's view, word0 was read under a history this client is current
//     with.
//  2. Epoch changed -> adopt it and abort with ErrGroupMoved (the op
//     re-runs under the new routing; the acked state is already on the
//     promoted member or the op stays un-acked).
//  3. word0 >= pushed version -> a concurrent push superseded this one
//     (pushes of one page carry the total order of its primary page lock);
//     done.
//  4. CAS word0 -> word0|1: lock the backup copy against concurrent
//     pushes.
//  5. CAS the epoch word expecting no change (the CAS fence of the design:
//     its atomic compare makes "still my epoch" and "stale pusher" the
//     same check). Moved -> restore word0, abort with ErrGroupMoved. This
//     re-check runs while the page lock is held, closing the race where a
//     promotion lands between step 1 and step 4.
//  6. WRITE the page body (words 1..n).
//  7. WRITE word0 = pushed version: publish and unlock in one atomic word.
//
// A backup that reports ErrServerLost is marked dead in the client's view
// and skipped from then on (degraded ack: writes stay available when a
// backup dies; losing the remaining copies afterwards is a genuine k-fault
// loss). Any other error aborts the surrounding operation un-acked, with its
// write committed on the primary: the images of the failed push are kept,
// and Resync re-pushes them before operation recovery may ack the write.
//
// Like the Tree that calls it, a Mirrorer is owned by one client goroutine.
type Mirrorer struct {
	ep   rdma.Endpoint // the client's Router (explicit-replica verbs pass through)
	lay  nam.ReplicaLayout
	view *View
	pol  *retry.Policy
	rec  rdma.Reconnector // literal member reconnects
	env  rdma.Env

	// Events receives degraded-ack and epoch-adoption events; may be nil.
	Events Events

	w0buf, epbuf [1]uint64
	mptrs        [2]rdma.RemotePtr
	mdst         [2][]uint64

	// pending: the last failed push's unpushed images, with commit epochs.
	pending []pendingPush
}

type pendingPush struct {
	nam.DirtyPage
	epoch uint64
}

// NewMirrorer builds the mirror half of a client's replication stack,
// sharing the Router's view (promotions observed by either side are visible
// to both). pol may be nil (defaults); env supplies Pause for lock waits.
func NewMirrorer(router *Router, env rdma.Env, pol *retry.Policy) *Mirrorer {
	if pol == nil {
		pol = &retry.Policy{}
	}
	return &Mirrorer{ep: router, lay: router.lay, view: router.view, pol: pol, rec: router.rec, env: env}
}

// targets enumerates the members of group home that must receive pushes:
// everyone except the acting primary (which holds the authoritative copy
// the tree just wrote) and members already observed dead.
func (m *Mirrorer) targets(home int, visit func(member int) error) error {
	acting := m.view.Acting(home)
	for _, b := range m.lay.Groups.Members(home) {
		if b == acting || m.view.Dead(b) {
			continue
		}
		err := visit(b)
		if err == nil {
			continue
		}
		if errors.Is(err, rdma.ErrServerLost) {
			// Degraded ack: the backup is gone; later pushes skip it.
			m.view.MarkDead(b)
			if m.Events != nil {
				m.Events.MemberDeadEvent(home, b)
			}
			continue
		}
		return err
	}
	return nil
}

// groupMoved adopts a newer observed epoch and returns the abort error.
func (m *Mirrorer) groupMoved(home int, observed uint64) error {
	m.view.SetEpoch(home, observed)
	if m.Events != nil {
		m.Events.GroupMovedEvent(home, m.view.Epoch(home))
	}
	return fmt.Errorf("repl: group %d epoch moved to %d during mirror push: %w",
		home, m.view.Epoch(home), rdma.ErrGroupMoved)
}

// MirrorPage implements btree.Replicator.
func (m *Mirrorer) MirrorPage(p rdma.RemotePtr, img []uint64) error {
	return m.mirror(nam.DirtyPage{Kind: nam.DirtyFull, Ptr: p, Words: img})
}

// mirror pushes one image the tree just committed; on failure it becomes
// the pending push, copied, since img is the tree's scratch.
func (m *Mirrorer) mirror(d nam.DirtyPage) error {
	e := m.view.Epoch(d.Ptr.Server())
	err := m.push(d, e)
	m.pending = m.pending[:0]
	if err != nil {
		d.Words = append([]uint64(nil), d.Words...)
		m.pending = append(m.pending, pendingPush{d, e})
	}
	return err
}

// push mirrors image d, committed under group epoch e, to the group's live
// backups. Fresh pages and root words are written blind behind the epoch
// guard (see MirrorFresh and MirrorWord).
func (m *Mirrorer) push(d nam.DirtyPage, e uint64) error {
	home := d.Ptr.Server()
	return m.targets(home, func(b int) error {
		if d.Kind == nam.DirtyFull {
			return m.pushVersioned(home, b, d.Ptr.Offset(), d.Words, layout.BufVersion(d.Words), e)
		}
		if err := m.epochGuard(home, b, e); err != nil {
			return err
		}
		return m.pol.Do(m.rec, b, func() error {
			return m.ep.Write(rdma.MakePtr(b, d.Ptr.Offset()), d.Words)
		})
	})
}

func (m *Mirrorer) pushVersioned(home, b int, off uint64, img []uint64, vI, e uint64) error {
	pagePtr := rdma.MakePtr(b, off)
	epochPtr := nam.GroupEpochPtr(b, home)
	for attempt := 0; attempt < mirrorLockBudget; attempt++ {
		// (1) word0 then epoch, one in-order batch.
		m.mptrs = [2]rdma.RemotePtr{pagePtr, epochPtr}
		m.mdst = [2][]uint64{m.w0buf[:], m.epbuf[:]}
		if err := m.pol.Do(m.rec, b, func() error {
			return m.ep.ReadMulti(m.mptrs[:], m.mdst[:])
		}); err != nil {
			return err
		}
		if m.epbuf[0] != e {
			return m.groupMoved(home, m.epbuf[0]) // (2)
		}
		w := m.w0buf[0]
		if !layout.IsLocked(w) && w >= vI {
			return nil // (3) superseded
		}
		if layout.IsLocked(w) {
			m.env.Pause() // a concurrent push holds the backup lock
			continue
		}
		// (4) lock the backup copy.
		var prev uint64
		if err := m.pol.Do(m.rec, b, func() error {
			var cerr error
			prev, cerr = m.ep.CompareAndSwap(pagePtr, w, layout.WithLock(w)) //rdmavet:allow caschecked -- prev escapes the retry closure and is compared against w right below
			return cerr
		}); err != nil {
			return err
		}
		if prev != w {
			continue // raced with another push; re-read
		}
		// (5) CAS-fenced epoch re-check under the page lock.
		var eprev uint64
		err := m.pol.Do(m.rec, b, func() error {
			var cerr error
			eprev, cerr = m.ep.CompareAndSwap(epochPtr, e, e) //rdmavet:allow caschecked -- eprev escapes the retry closure and is compared against e right below
			return cerr
		})
		if err == nil && eprev != e {
			m.restore(b, pagePtr, w)
			return m.groupMoved(home, eprev)
		}
		if err == nil {
			// (6) body, (7) publish word0 = vI.
			err = m.pol.Do(m.rec, b, func() error {
				return m.ep.Write(pagePtr.Add(8), img[1:])
			})
			if err == nil {
				err = m.pol.Do(m.rec, b, func() error {
					return m.ep.Write(pagePtr, img[:1])
				})
				if err == nil {
					return nil
				}
			}
		}
		m.restore(b, pagePtr, w)
		return err
	}
	return fmt.Errorf("repl: backup %d page %#x lock-starved after %d attempts: %w",
		b, off, mirrorLockBudget, rdma.ErrTimeout)
}

// restore releases the backup page lock after a failed push, putting the
// pre-push word back. Best-effort: if the member just died the push error
// is already propagating and the copy is dead anyway.
func (m *Mirrorer) restore(b int, pagePtr rdma.RemotePtr, w uint64) (restored bool) {
	var prev uint64
	err := m.pol.Do(m.rec, b, func() error {
		var cerr error
		prev, cerr = m.ep.CompareAndSwap(pagePtr, layout.WithLock(w), w) //rdmavet:allow caschecked -- prev escapes the retry closure; the unlock outcome is the function's return value
		return cerr
	})
	return err == nil && prev == layout.WithLock(w)
}

// epochGuard verifies the member still carries the client's epoch for home
// before a blind push.
func (m *Mirrorer) epochGuard(home, b int, e uint64) error {
	if err := m.pol.Do(m.rec, b, func() error {
		return m.ep.Read(nam.GroupEpochPtr(b, home), m.epbuf[:])
	}); err != nil {
		return err
	}
	if m.epbuf[0] != e {
		return m.groupMoved(home, m.epbuf[0])
	}
	return nil
}

// MirrorFresh implements btree.Replicator: a blind full-page write. Safe
// without the versioned protocol because the page has never been published
// (no reader can reach it, allocator pointers are unique, and the parent
// pointer that would publish it is itself mirrored by a versioned, fenced
// push — so a stale fresh write after a promotion leaves unreachable bytes,
// never a reachable stale page).
func (m *Mirrorer) MirrorFresh(p rdma.RemotePtr, img []uint64) error {
	return m.mirror(nam.DirtyPage{Kind: nam.DirtyFresh, Ptr: p, Words: img})
}

// MirrorWord implements btree.Replicator: a blind single-word write (root
// pointer updates). A lost or stale root word on a backup is benign — B-link
// descents recover through right links — so no versioning is needed, only
// the epoch guard against writing into a promoted group.
func (m *Mirrorer) MirrorWord(p rdma.RemotePtr, val uint64) error {
	m.w0buf[0] = val
	return m.mirror(nam.DirtyPage{Kind: nam.DirtyWord, Ptr: p, Words: m.w0buf[:]})
}

// Push replays a batch of server-captured post-images (the Dirty trailer of
// an RPC response) through the mirror protocol — the client-assisted
// replication path of the RPC designs. The images were committed under the
// client's current view of their groups' epochs.
func (m *Mirrorer) Push(dirty []nam.DirtyPage) error {
	m.pending = m.pending[:0]
	for _, d := range dirty {
		m.pending = append(m.pending, pendingPush{d, m.view.Epoch(d.Ptr.Server())})
	}
	return m.flush(false)
}

// Resync re-pushes the images of the last failed push, in order, each under
// the epoch it was committed in. Operation recovery calls it before a
// presence check may ack a write the failed attempt committed on the
// primary. An image whose group has moved since is dropped: the promoted
// member's history does not contain it, and the presence check, routed to
// that member, decides the write's fate.
func (m *Mirrorer) Resync() error { return m.flush(true) }

func (m *Mirrorer) flush(dropMoved bool) error {
	for i := range m.pending {
		err := m.push(m.pending[i].DirtyPage, m.pending[i].epoch)
		if err != nil && !(dropMoved && errors.Is(err, rdma.ErrGroupMoved)) {
			m.pending = append(m.pending[:0], m.pending[i:]...)
			return err
		}
	}
	m.pending = m.pending[:0]
	return nil
}

// Capture implements btree.Replicator by recording post-images instead of
// pushing them: the RPC handlers of the coarse and hybrid designs attach a
// Capture to their per-request tree handle and ship the recorded images
// back in the response's Dirty trailer, because memory servers cannot reach
// each other (NAM keeps servers passive) — the requesting client does the
// pushing before it acks.
type Capture struct {
	Pages []nam.DirtyPage
}

// MirrorPage implements btree.Replicator.
func (c *Capture) MirrorPage(p rdma.RemotePtr, img []uint64) error {
	c.Pages = append(c.Pages, nam.DirtyPage{Kind: nam.DirtyFull, Ptr: p, Words: append([]uint64(nil), img...)})
	return nil
}

// MirrorFresh implements btree.Replicator.
func (c *Capture) MirrorFresh(p rdma.RemotePtr, img []uint64) error {
	c.Pages = append(c.Pages, nam.DirtyPage{Kind: nam.DirtyFresh, Ptr: p, Words: append([]uint64(nil), img...)})
	return nil
}

// MirrorWord implements btree.Replicator.
func (c *Capture) MirrorWord(p rdma.RemotePtr, val uint64) error {
	c.Pages = append(c.Pages, nam.DirtyPage{Kind: nam.DirtyWord, Ptr: p, Words: []uint64{val}})
	return nil
}
