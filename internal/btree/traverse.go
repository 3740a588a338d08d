package btree

import (
	"errors"
	"fmt"

	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/rdma"
)

// This file implements the B-link point-operation protocol once, as a
// resumable state machine: a Traversal is one index operation (lookup,
// insert or delete) that *posts* the verbs of its next step into a PostSink
// and suspends; when their completions arrive, Step advances the machine by
// exactly one protocol step. The pipelined clients drive many traversals at
// once, polling the completions of all their steps in one doorbell batch.
// The blocking entry points (Tree.Lookup/Insert/Delete, the hybrid leaf
// halves and Install) are drivers that step one traversal to completion over
// a sink executing each step's verbs through the tree's Mem (drive.go). The
// protocol — fused validated reads, right-moves past heads and outgrown
// fences, lock CAS, body write plus unlock-and-bump FAA — is the paper's
// Listings 2-4, and the Stats accounting counts the verbs that ran
// (ExposedRTTs counts each fused pair below as the one round it costs).
//
// A writer CASes the lock directly on the version of its validated descent
// copy instead of re-reading the page first: a CAS win proves the page is
// unchanged since that copy, so the copy is current. A CAS loss re-reads and
// re-chases. The same holds for the inner node a separator install locks.
//
// The write side has a twin of the fused read. Once the lock is held, the
// page body WRITE and the unlock-and-bump FETCH_AND_ADD are posted back to
// back on the page's queue pair in one step: RC executes one QP's verbs in
// posting order, so the FAA — which publishes the new version and releases
// the lock — runs only after the body landed, and a reader that validates
// against the bumped version has copied the new body. The blocking driver
// runs the pair as one Mem.WriteUnlock, which shares a doorbell too when the
// endpoint stack can post (the Unbatched baseline and the replica router
// cannot, and run it as two rounds). The two completions are handled per
// verb under the never-executed fault model (DESIGN.md §9): a WRITE that ran
// with a failed FAA has published the body, so the FAA is driven to
// completion alone; a pair that both failed never ran and is reposted (the
// blocking driver releases the lock and fails instead, its verbs having
// already spent the endpoint stack's retries); a failed WRITE whose FAA ran
// (possible only under per-completion fault injection, never on real RC)
// left the page unchanged at a new version and unlocked, so the traversal
// redoes the step from a fresh read of the page (an install from the root).
//
// Structural changes are steps too. An insert into a full leaf locks it like
// any other leaf, allocates the right half through the tree's Mem (the one
// blocking verb a step issues, on a fraction of a percent of inserts), writes
// the unpublished right half in its own round (it may live on another
// server, so it cannot share the left page's QP ordering), and publishes the
// left half with the fused WRITE+FAA. At that point the insert is committed.
// The separator install then runs as further steps: re-read the root word,
// descend to the target level, lock-chase to the pair by child pointer, cut
// or split the inner node (recursing one level up), and grow the root by a
// CAS on the root word. A failure after the commit fails the operation; the
// owner's presence-checked re-run then acks the insert exactly once, and the
// tree stays searchable through sibling links without the separator.
// The tree's Replicator sees each image where it becomes visible.

// PostSink receives the verbs a Traversal wants posted. The engine driving
// the traversal implements it by forwarding to an rdma.AsyncEndpoint and
// remembering which traversal posted what; completions must be delivered
// back to Step in posting order. All verbs of one Step call are posted
// consecutively, so one traversal's completions for a step are contiguous.
type PostSink interface {
	PostRead(p rdma.RemotePtr, dst []uint64)
	PostWrite(p rdma.RemotePtr, src []uint64)
	PostCAS(p rdma.RemotePtr, old, new uint64)
	PostFetchAdd(p rdma.RemotePtr, delta uint64)
}

// install is one separator install: sep bounds the split node left, and
// the new node right is reached through it from level.
type install struct {
	level       int
	sep         layout.Key
	left, right rdma.RemotePtr
}

// TraversalOp selects the operation a Traversal performs.
type TraversalOp uint8

const (
	TravLookup TraversalOp = iota + 1
	TravInsert
	TravDelete
)

// StepStatus is the scheduling outcome of one Step call.
type StepStatus uint8

const (
	// StepRunning: verbs were posted; call Step again with their completions.
	StepRunning StepStatus = iota
	// StepDone: the operation completed; results are in Values/Found/St.
	StepDone
	// StepBlocked: a verb failed with rdma.ErrQPError. The owner must
	// re-establish the queue pair to Server (rdma.Reconnector), then call
	// Redo to repost the interrupted step.
	StepBlocked
	// StepFailed: the operation failed; Err is set. Any lock the traversal
	// held with its page body unchanged was released (or is unreachable
	// along with its server).
	StepFailed
)

// StepResult is the outcome of one Step/Redo/Abort call.
type StepResult struct {
	Status StepStatus
	// Server is the QP-errored server when Status is StepBlocked.
	Server int
	// Err is set when Status is StepFailed (and carries the triggering verb
	// error when Status is StepBlocked).
	Err error
}

// stepRetryBudget bounds per-step transient-failure reposts. It mirrors the
// blocking stack's retry.Policy.MaxAttempts (default 8): there, every blocking
// verb is wrapped in a bounded retry loop; here, the step is the retry unit.
const stepRetryBudget = 8

type travPhase uint8

const (
	phIdle     travPhase = iota
	phStart              // Begin called; nothing posted yet
	phRoot               // root-word read posted
	phPage               // fused page+version-word read posted
	phLock               // lock CAS posted
	phFresh              // unpublished page WRITE posted (split right half or new root)
	phPublish            // fused body WRITE + unlock-and-bump FAA posted (lock held)
	phUnlock             // lone unlock-and-bump FAA posted (body published)
	phUnlockNC           // no-change unlock CAS posted (lock held, body unchanged)
	phRootCAS            // root-word CAS posted (root growth)
)

type travMode uint8

const (
	modeDescend    travMode = iota // root-to-leaf descent
	modeCollect                    // lookup: duplicate spill right-walk
	modeChase                      // insert/delete: leaf-chain lock walk
	modeSepDescend                 // separator install: descent to the target level
	modeSepChase                   // separator install: lock walk for the cut pair
)

// Traversal is one resumable index operation. A pipelined client owns one
// per engine slot, built by NewTraversal with all buffers pre-allocated, so
// steady-state operation, splits included, is allocation-free; it shares the
// *Tree handle (layout, Mem, root cache, spin budget, replicator) with the
// handle's own blocking driver but never touches the handle's scratch.
type Traversal struct {
	t   *Tree
	env rdma.Env

	// Op/Key/Value identify the current operation (set by Begin).
	Op    TraversalOp
	Key   layout.Key
	Value uint64

	// Results, valid when Step returned StepDone. Values aliases a
	// per-traversal buffer reused by the next Begin.
	Values []uint64
	Found  bool
	St     Stats

	phase     travPhase
	mode      travMode
	p         rdma.RemotePtr // page the current step targets
	depth     int
	ver       uint64 // validated version of pageBuf; pre-lock version once locked
	holding   bool   // p is locked by us and its body is unchanged
	moveRight bool
	next      rdma.RemotePtr

	// Split and separator-install state. fresh is the unpublished page in
	// freshBuf. level/sep/left/right are the install in progress. A split
	// records the install it owes in owed (owesInstall) until its left half
	// is published, so a publish that has to be redone finds the install in
	// progress intact.
	fresh       rdma.RemotePtr
	owesInstall bool
	owed        install
	level       int            // install target level
	sep         layout.Key     // separator being installed
	left        rdma.RemotePtr // split node the separator bounds
	right       rdma.RemotePtr // new node the separator points at
	routeKey    layout.Key     // install descent key (sep, or 0 to rescan the level)
	chaseKey    layout.Key     // lock-walk fence key: routeKey, then 0 past the first node
	sepFound    bool           // the pair whose child is left has been seen
	atRoot      bool           // the page read in flight is the freshly read root
	leafHalf    bool           // started at a leaf: a split is reported, not installed
	blocking    bool           // stepped by the blocking driver (drive.go)

	stepTries   int
	unlockTries int
	pauseWanted bool

	pageBuf  []uint64
	freshBuf []uint64
	vbuf     [1]uint64
	rootBuf  [1]uint64
	allocBuf [1]rdma.RemotePtr
}

// NewTraversal allocates a traversal slot against the given tree handle.
func NewTraversal(t *Tree, env rdma.Env) *Traversal {
	return &Traversal{
		t:        t,
		env:      env,
		pageBuf:  make([]uint64, t.L.Words),
		freshBuf: make([]uint64, t.L.Words),
		Values:   make([]uint64, 0, 4),
	}
}

// Begin arms the traversal for a new operation. The previous operation's
// results are invalidated. Call Step with no completions to post the first
// verbs.
func (tr *Traversal) Begin(op TraversalOp, key layout.Key, value uint64) {
	tr.Op = op
	tr.Key = key
	tr.Value = value
	tr.Values = tr.Values[:0]
	tr.Found = false
	tr.St = Stats{}
	tr.phase = phStart
	tr.mode = modeDescend
	tr.depth = 0
	tr.stepTries = 0
	tr.unlockTries = 0
	tr.moveRight = false
	tr.holding = false
	tr.owesInstall = false
	tr.leafHalf = false
	tr.p = rdma.NullPtr
}

// beginLeaf arms the leaf half of an operation (the hybrid design's): it
// starts on the leaf chain at leaf, and a split leaf's separator install is
// left owed (owesInstall, owed) instead of run.
func (tr *Traversal) beginLeaf(op TraversalOp, leaf rdma.RemotePtr, key layout.Key, value uint64) {
	tr.Begin(op, key, value)
	tr.leafHalf = true
	tr.p = leaf
}

// beginInstall arms a separator install of a completed split of left into
// right at the given level (the hybrid design's install RPC).
func (tr *Traversal) beginInstall(level int, sep layout.Key, left, right rdma.RemotePtr) {
	tr.Begin(TravInsert, sep, 0)
	tr.mode = modeSepDescend
	tr.level, tr.sep, tr.left, tr.right, tr.routeKey = level, sep, left, right, sep
}

// TakePause reports whether the traversal wants a backoff pause (it hit a
// consistency restart or a transient verb failure since the last call) and
// clears the flag. The engine coalesces pauses: one env.Pause per scheduling
// round however many traversals requested one.
func (tr *Traversal) TakePause() bool {
	w := tr.pauseWanted
	tr.pauseWanted = false
	return w
}

// Step advances the machine. comps are the completions of exactly the verbs
// the previous Step/Redo posted, in posting order; pass nil on the first
// call after Begin. When the result is StepRunning, new verbs were posted
// into sink.
func (tr *Traversal) Step(comps []rdma.Completion, sink PostSink) StepResult {
	switch tr.phase {
	case phStart:
		if tr.mode == modeSepDescend {
			return tr.sepRescan(sink)
		}
		if tr.Op == TravInsert && tr.Key == layout.MaxKey {
			return tr.fail(ErrKeyReserved)
		}
		if tr.p.IsNull() {
			if tr.t.cachedRoot.IsNull() {
				return tr.post(phRoot, sink)
			}
			tr.p = tr.t.cachedRoot
			tr.depth = 1
		}
		return tr.post(phPage, sink)
	case phRoot:
		tr.expect(comps, 1)
		return tr.handleRoot(comps[0], sink)
	case phPage:
		tr.expect(comps, 2)
		return tr.handlePage(comps, sink)
	case phLock:
		tr.expect(comps, 1)
		return tr.handleLock(comps[0], sink)
	case phFresh:
		tr.expect(comps, 1)
		return tr.handleFresh(comps[0], sink)
	case phPublish:
		tr.expect(comps, 2)
		return tr.handlePublish(comps[0], comps[1], sink)
	case phUnlock:
		tr.expect(comps, 1)
		return tr.handleUnlock(comps[0], sink)
	case phUnlockNC:
		tr.expect(comps, 1)
		return tr.handleUnlockNC(comps[0], sink)
	case phRootCAS:
		tr.expect(comps, 1)
		return tr.handleRootCAS(comps[0], sink)
	}
	panic("btree: Step on idle traversal")
}

// Redo reposts the interrupted step after the owner handled a StepBlocked
// (queue pair re-established). The retry budget is not reset: a server that
// keeps flushing QPs eventually fails the operation.
func (tr *Traversal) Redo(sink PostSink) StepResult {
	switch tr.phase {
	case phRoot:
		sink.PostRead(tr.t.RootWord, tr.rootBuf[:])
	case phPage: // the fused read: page copy, then its version word (Mem.ReadValidated)
		sink.PostRead(tr.p, tr.pageBuf)
		sink.PostRead(tr.p, tr.vbuf[:])
	case phLock:
		sink.PostCAS(tr.p, tr.ver, layout.WithLock(tr.ver))
	case phFresh:
		sink.PostWrite(tr.fresh, tr.freshBuf)
	case phPublish: // the body (version word excluded), then unlock-and-bump
		sink.PostWrite(tr.p.Add(8), tr.pageBuf[1:])
		sink.PostFetchAdd(tr.p, 1)
	case phUnlock:
		sink.PostFetchAdd(tr.p, 1)
	case phUnlockNC:
		sink.PostCAS(tr.p, layout.WithLock(tr.ver), tr.ver)
	case phRootCAS:
		sink.PostCAS(tr.t.RootWord, uint64(tr.left), uint64(tr.fresh))
	default:
		panic("btree: Redo with no step outstanding")
	}
	return StepResult{Status: StepRunning}
}

// Abort gives up on the operation (the owner exhausted reconnect attempts).
// If the traversal holds a lock on a page whose body it has not modified,
// the lock is released best-effort through the blocking path; once the body
// write is published the page stays locked (the unlockBump contract:
// restoring the pre-lock version would validate readers' pre-write
// snapshots against the new body).
func (tr *Traversal) Abort(err error) StepResult {
	if tr.phase == phUnlock {
		err = fmt.Errorf("btree: unlock of %v abandoned (page stays locked): %w", tr.p, err)
	}
	return tr.release(err)
}

// Server returns the memory server the current step targets — the reconnect
// target after StepBlocked.
func (tr *Traversal) Server() int {
	switch tr.phase {
	case phRoot, phRootCAS:
		return tr.t.RootWord.Server()
	case phFresh:
		return tr.fresh.Server()
	}
	return tr.p.Server()
}

func (tr *Traversal) fail(err error) StepResult {
	tr.phase = phIdle
	return StepResult{Status: StepFailed, Err: err}
}

// release fails the operation, first restoring the pre-lock version of a
// page the traversal holds locked with its body unchanged (abortUnlock).
func (tr *Traversal) release(err error) StepResult {
	if tr.holding {
		tr.holding = false
		tr.t.abortUnlock(&tr.St, tr.p, tr.ver)
	}
	return tr.fail(err)
}

func (tr *Traversal) done() StepResult {
	tr.phase = phIdle
	return StepResult{Status: StepDone}
}

func (tr *Traversal) expect(comps []rdma.Completion, n int) {
	if len(comps) != n {
		panic(fmt.Sprintf("btree: step delivered %d completions, want %d", len(comps), n))
	}
}

// stepError classifies a failed completion for the current step: QP errors
// block pending reconnect, other transient failures repost within the step
// budget, and everything else fails the operation (releasing a held,
// unmodified page). Under the blocking driver every failure fails the
// operation: its verbs already carry the endpoint stack's retries.
func (tr *Traversal) stepError(err error, sink PostSink) StepResult {
	if tr.blocking {
		return tr.release(err)
	}
	if errors.Is(err, rdma.ErrQPError) {
		return StepResult{Status: StepBlocked, Server: tr.Server(), Err: err}
	}
	if rdma.IsTransient(err) {
		tr.stepTries++
		if tr.stepTries < stepRetryBudget {
			tr.pauseWanted = true
			return tr.Redo(sink)
		}
		err = fmt.Errorf("btree: %d attempts exhausted: %w", tr.stepTries, err)
	}
	return tr.release(err)
}

// restart counts one consistency restart and reports whether the spin
// budget is blown; otherwise it requests the engine's coalesced pause.
func (tr *Traversal) restart() bool {
	tr.St.Restarts++
	if tr.t.overBudget(&tr.St) {
		return true
	}
	tr.pauseWanted = true
	return false
}

// post enters phase ph and posts its verbs. A handler's page-visit time
// (VisitNS) is charged before a page read or write-back, as readNode does.
func (tr *Traversal) post(ph travPhase, sink PostSink) StepResult {
	if tr.t.VisitNS > 0 && (ph == phPage || ph == phPublish) {
		tr.env.Charge(tr.t.VisitNS)
	}
	tr.phase = ph
	tr.stepTries = 0
	return tr.Redo(sink)
}

// --- completion handlers --------------------------------------------------

func (tr *Traversal) handleRoot(c rdma.Completion, sink PostSink) StepResult {
	if c.Err != nil {
		return tr.stepError(c.Err, sink)
	}
	tr.St.WordReads++
	tr.St.ExposedRTTs++
	p := rdma.RemotePtr(tr.rootBuf[0])
	if p.IsNull() {
		return tr.fail(errors.New("btree: tree not initialized"))
	}
	tr.t.cachedRoot = p
	tr.p = p
	tr.depth = 1
	tr.atRoot = tr.mode == modeSepDescend
	tr.stepTries = 0
	return tr.post(phPage, sink)
}

func (tr *Traversal) handlePage(comps []rdma.Completion, sink PostSink) StepResult {
	for i := range comps {
		if comps[i].Err != nil {
			return tr.stepError(comps[i].Err, sink)
		}
	}
	tr.St.PageReads++
	tr.St.WordReads++
	tr.St.ExposedRTTs++
	tr.stepTries = 0
	v := tr.vbuf[0]
	if v != layout.BufVersion(tr.pageBuf) || layout.IsLocked(v) {
		if layout.IsLocked(layout.BufVersion(tr.pageBuf)) || layout.IsLocked(v) {
			tr.St.LockSpins++
		} else {
			tr.St.VersionAborts++
		}
		if tr.restart() {
			return tr.fail(fmt.Errorf("btree: %d restarts reading %v: %w", tr.St.Restarts, tr.p, ErrSpinBudget))
		}
		return tr.post(phPage, sink)
	}
	tr.ver = v
	n := tr.t.L.Wrap(tr.pageBuf)

	switch tr.mode {
	case modeDescend:
		if n.IsHead() || tr.Key > n.HighKey() {
			// Right-moves stay on the same level and do not deepen the path.
			return tr.moveTo(n.Right(), tr.Key, sink)
		}
		if !n.IsLeaf() {
			child, ok := n.InnerRoute(tr.Key)
			if !ok {
				panic("btree: routing failed within fence")
			}
			tr.p = child
			tr.depth++
			return tr.post(phPage, sink)
		}
		tr.St.Depth = tr.depth
		if tr.Op == TravLookup {
			return tr.collect(n, sink)
		}
		tr.mode = modeChase
		return tr.post(phLock, sink)

	case modeCollect:
		if n.IsHead() {
			tr.p = n.Right()
			if tr.p.IsNull() {
				return tr.done()
			}
			return tr.post(phPage, sink)
		}
		return tr.collect(n, sink)

	case modeChase: // insert/delete walking the leaf chain for the lock
		if n.IsHead() || tr.Key > n.HighKey() {
			return tr.moveTo(n.Right(), tr.Key, sink)
		}
		return tr.post(phLock, sink)

	case modeSepDescend:
		if tr.atRoot {
			tr.atRoot = false
			if n.Level() < tr.level {
				if tr.p == tr.left {
					return tr.growRoot(sink)
				}
				// A concurrent writer is growing the root; wait for it.
				if tr.restart() {
					return tr.fail(fmt.Errorf("btree: %d restarts waiting for root growth: %w", tr.St.Restarts, ErrSpinBudget))
				}
				return tr.post(phRoot, sink)
			}
		}
		if n.Level() > tr.level {
			if n.IsHead() || tr.routeKey > n.HighKey() {
				tr.p = n.Right()
			} else {
				child, ok := n.InnerRoute(tr.routeKey)
				if !ok {
					panic("btree: routing failed within fence")
				}
				tr.p = child
			}
			if tr.p.IsNull() {
				return tr.fail(fmt.Errorf("btree: fell off chain installing sep %d", tr.sep))
			}
			return tr.post(phPage, sink)
		}
		tr.mode = modeSepChase
		tr.chaseKey = tr.routeKey
		fallthrough

	default: // modeSepChase: lock the target-level node, as lockNodeForKey
		if n.IsHead() || tr.chaseKey > n.HighKey() {
			return tr.moveTo(n.Right(), tr.chaseKey, sink)
		}
		return tr.post(phLock, sink)
	}
}

// moveTo follows a right-sibling link on the current level.
func (tr *Traversal) moveTo(right rdma.RemotePtr, key layout.Key, sink PostSink) StepResult {
	tr.p = right
	if tr.p.IsNull() {
		return tr.fail(fmt.Errorf("btree: fell off chain for key %d", key))
	}
	return tr.post(phPage, sink)
}

// collect harvests key's values from a consistent leaf copy and follows
// duplicate spill over the fence into right siblings.
func (tr *Traversal) collect(n layout.Node, sink PostSink) StepResult {
	for i := n.LeafLowerBound(tr.Key); i < n.Count() && n.LeafKey(i) == tr.Key; i++ {
		if !n.LeafDeleted(i) {
			tr.Values = append(tr.Values, n.LeafValue(i))
		}
	}
	if n.HighKey() != tr.Key {
		return tr.done()
	}
	tr.p = n.Right()
	if tr.p.IsNull() {
		return tr.done()
	}
	tr.mode = modeCollect
	return tr.post(phPage, sink)
}

func (tr *Traversal) handleLock(c rdma.Completion, sink PostSink) StepResult {
	if c.Err != nil {
		return tr.stepError(c.Err, sink)
	}
	tr.St.Atomics++
	tr.St.ExposedRTTs++
	if c.Val != tr.ver {
		tr.St.LockRetries++
		if tr.restart() {
			return tr.fail(fmt.Errorf("btree: %d restarts locking %v: %w", tr.St.Restarts, tr.p, ErrSpinBudget))
		}
		tr.stepTries = 0
		return tr.post(phPage, sink) // re-read, re-chase, re-lock
	}
	// Lock held, and the CAS win proves pageBuf (validated at ver) is still
	// the page's current content.
	tr.holding = true
	n := tr.t.L.Wrap(tr.pageBuf)
	if tr.mode == modeSepChase {
		return tr.sepLocked(n, sink)
	}
	switch tr.Op {
	case TravInsert:
		if n.LeafInsert(tr.Key, tr.Value) {
			return tr.post(phPublish, sink)
		}
		return tr.splitLeaf(n, sink)
	default: // TravDelete
		for i := n.LeafLowerBound(tr.Key); i < n.Count() && n.LeafKey(i) == tr.Key; i++ {
			if n.LeafDeleted(i) || n.LeafValue(i) != tr.Value {
				continue
			}
			n.SetLeafDeleted(i, true)
			tr.Found = true
			return tr.post(phPublish, sink)
		}
		// Not in this leaf; duplicates may continue right.
		tr.moveRight = n.HighKey() == tr.Key
		tr.next = n.Right()
		return tr.post(phUnlockNC, sink)
	}
}

// splitLeaf is the B-link leaf split of the locked, full leaf n at p: the
// right half goes to a freshly allocated page, the left half is rewritten in
// place, and the separator install follows the left half's publish.
func (tr *Traversal) splitLeaf(n layout.Node, sink PostSink) StepResult {
	rp, err := tr.allocFresh(0)
	if err != nil {
		return tr.release(err)
	}
	tr.St.ExposedRTTs++
	right := tr.t.L.Wrap(tr.freshPage())
	right.InitLeaf()
	sep := n.LeafSplit(right)
	right.SetRight(n.Right())
	right.SetLeft(tr.p)
	n.SetRight(rp)
	if tr.Key <= sep {
		if !n.LeafInsert(tr.Key, tr.Value) {
			panic("btree: no space in left half after split")
		}
	} else if !right.LeafInsert(tr.Key, tr.Value) {
		panic("btree: no space in right half after split")
	}
	tr.fresh = rp
	tr.owe(1, sep)
	return tr.post(phFresh, sink)
}

// allocFresh allocates the page a split or root growth installs at level.
func (tr *Traversal) allocFresh(level int) (rdma.RemotePtr, error) {
	err := tr.t.M.AllocPages(level, tr.t.L.PageBytes, tr.allocBuf[:])
	return tr.allocBuf[0], err
}

// freshPage returns the buffer a split or root growth builds its new page
// in; the blocking driver's traversal allocates it at its first split.
func (tr *Traversal) freshPage() []uint64 {
	if tr.freshBuf == nil {
		tr.freshBuf = make([]uint64, tr.t.L.Words)
	}
	return tr.freshBuf
}

// owe records the separator install a split of the node at p into fresh
// needs once p is published.
func (tr *Traversal) owe(level int, sep layout.Key) {
	tr.owesInstall = true
	tr.owed = install{level: level, sep: sep, left: tr.p, right: tr.fresh}
}

// handleFresh completes the WRITE of an unpublished page: a split's right
// half (the split node's lock is held) or a new root (no lock held).
func (tr *Traversal) handleFresh(c rdma.Completion, sink PostSink) StepResult {
	if c.Err != nil {
		// A failed WRITE never executed and nothing points at the page yet:
		// release the split node unchanged; the page leaks to the GC.
		return tr.stepError(c.Err, sink)
	}
	tr.St.PageWrites++
	tr.St.ExposedRTTs++
	tr.env.Charge(tr.t.VisitNS)
	if r := tr.t.Repl; r != nil {
		if err := r.MirrorFresh(tr.fresh, tr.freshBuf); err != nil {
			return tr.release(err)
		}
	}
	if !tr.holding {
		return tr.post(phRootCAS, sink)
	}
	tr.St.Splits++
	return tr.post(phPublish, sink)
}

// handlePublish consumes the fused body WRITE + unlock FAA pair, one
// completion per verb (see the file comment for the four outcomes). The pair
// counts as the one round it costs when it shares a doorbell; the blocking
// driver adds the second round of a Mem that ran it as two verbs.
func (tr *Traversal) handlePublish(w, f rdma.Completion, sink PostSink) StepResult {
	if w.Err == nil {
		tr.St.PageWrites++
		tr.St.ExposedRTTs++
		tr.holding = false
		if f.Err == nil {
			tr.St.Atomics++
			return tr.published(sink)
		}
		// The body is published: the version must move forward, so the FAA
		// is driven to completion on its own.
		tr.phase = phUnlock
		tr.unlockTries = 0
		return tr.handleUnlock(f, sink)
	}
	if f.Err == nil {
		// Only per-completion fault injection splits an RC pair this way:
		// the FAA unlocked the page, unchanged, at a new version. The step
		// is redone from a fresh copy of the page — re-read, re-lock,
		// re-apply — and a separator install from the root. Failing the
		// operation instead would abandon an install its split already
		// committed, and every later split of the orphaned node would wait
		// for that install until its spin budget ran out. A split's
		// unpublished right half leaks to the GC.
		tr.St.Atomics++
		tr.St.ExposedRTTs++
		tr.holding = false
		tr.owesInstall, tr.Found = false, false
		if tr.restart() {
			return tr.fail(fmt.Errorf("btree: %d restarts publishing %v: %w", tr.St.Restarts, tr.p, ErrSpinBudget))
		}
		if tr.mode == modeSepChase {
			return tr.sepRescan(sink)
		}
		return tr.post(phPage, sink)
	}
	// Neither verb ran: the lock is held and the page unchanged. Classify
	// the pair by its more severe failure (a QP error blocks, a permanent
	// error fails, else both are transient and the pair is reposted).
	err := w.Err
	if errors.Is(f.Err, rdma.ErrQPError) || !rdma.IsTransient(f.Err) {
		err = f.Err
	}
	return tr.stepError(err, sink)
}

func (tr *Traversal) handleUnlock(c rdma.Completion, sink PostSink) StepResult {
	if c.Err != nil {
		if errors.Is(c.Err, rdma.ErrQPError) && !tr.blocking {
			return StepResult{Status: StepBlocked, Server: tr.Server(), Err: c.Err}
		}
		if !rdma.IsTransient(c.Err) {
			return tr.fail(c.Err)
		}
		// The body is published: the version MUST move forward, so the FAA
		// is driven to completion, as in unlockBump.
		tr.unlockTries++
		if tr.unlockTries >= unlockCompletionBudget {
			return tr.fail(fmt.Errorf("btree: unlock of %v incomplete after %d attempts (page stays locked): %w",
				tr.p, unlockCompletionBudget, c.Err))
		}
		tr.pauseWanted = true
		return tr.Redo(sink)
	}
	tr.St.Atomics++
	tr.St.ExposedRTTs++
	return tr.published(sink)
}

// published continues after a page's new body and version are visible: the
// post-image is mirrored, then a split goes on to install its separator one
// level up (unless the traversal is a leaf half), anything else is complete.
func (tr *Traversal) published(sink PostSink) StepResult {
	if r := tr.t.Repl; r != nil {
		// The page is published at version ver+2 (the lock CAS set ver|1,
		// the FAA added 1). A mirror failure leaves the op un-acked but the
		// primary copy committed, which the recovery layer's presence check
		// resolves idempotently.
		layout.SetBufVersion(tr.pageBuf, tr.ver+2)
		if err := r.MirrorPage(tr.p, tr.pageBuf); err != nil {
			return tr.fail(err)
		}
	}
	if !tr.owesInstall || tr.leafHalf {
		return tr.done()
	}
	tr.owesInstall = false
	o := &tr.owed
	tr.level, tr.sep, tr.left, tr.right, tr.routeKey = o.level, o.sep, o.left, o.right, o.sep
	return tr.sepRescan(sink)
}

func (tr *Traversal) handleUnlockNC(c rdma.Completion, sink PostSink) StepResult {
	if c.Err != nil {
		return tr.stepError(c.Err, sink)
	}
	tr.St.Atomics++
	tr.St.ExposedRTTs++
	if c.Val != layout.WithLock(tr.ver) {
		panic("btree: lock word changed while held")
	}
	tr.holding = false
	if tr.mode == modeSepChase {
		return tr.sepNext(sink)
	}
	if !tr.moveRight || tr.next.IsNull() {
		return tr.done()
	}
	tr.p = tr.next
	tr.mode = modeChase
	tr.stepTries = 0
	return tr.post(phPage, sink)
}

// --- separator install -----------------------------------------------------

// sepRescan restarts the install from a fresh read of the root word.
func (tr *Traversal) sepRescan(sink PostSink) StepResult {
	tr.mode = modeSepDescend
	tr.sepFound = false
	return tr.post(phRoot, sink)
}

// sepLocked runs on the locked target-level node n: find the pair whose
// child is left (by child pointer, so duplicate separators cannot misdirect
// the cut), advance to the first pair of that group with separator >= sep,
// and cut there — splitting n first when it is full. Either search may walk
// right into siblings.
func (tr *Traversal) sepLocked(n layout.Node, sink PostSink) StepResult {
	idx := 0
	if !tr.sepFound {
		idx = -1
		for i := 0; i < n.Count(); i++ {
			if n.InnerChild(i) == tr.left {
				idx = i
				break
			}
		}
		if idx < 0 {
			tr.next = n.Right()
			return tr.post(phUnlockNC, sink)
		}
		tr.sepFound = true
	}
	// The group's pairs are contiguous, ascending, and may spill into right
	// siblings if this inner node split.
	for idx < n.Count() && n.InnerKey(idx) < tr.sep {
		idx++
	}
	if idx == n.Count() {
		tr.next = n.Right()
		return tr.post(phUnlockNC, sink)
	}
	if n.Count() < tr.t.L.InnerCap {
		n.InnerCutAt(idx, tr.sep, tr.right)
		return tr.post(phPublish, sink)
	}
	// Target inner node full: split it (same B-link discipline), cut in the
	// correct half, then install the new separator one level up.
	rp, err := tr.allocFresh(tr.level)
	if err != nil {
		return tr.release(err)
	}
	tr.St.ExposedRTTs++
	right := tr.t.L.Wrap(tr.freshPage())
	right.InitInner(tr.level)
	sep2 := n.InnerSplit(right)
	right.SetRight(n.Right())
	right.SetLeft(tr.p)
	n.SetRight(rp)
	if idx < n.Count() {
		n.InnerCutAt(idx, tr.sep, tr.right)
	} else {
		right.InnerCutAt(idx-n.Count(), tr.sep, tr.right)
	}
	tr.fresh = rp
	tr.owe(tr.level+1, sep2)
	return tr.post(phFresh, sink)
}

// sepNext continues after the no-change unlock of a node that did not hold
// the cut: lock the right sibling, or restart from the root when the level
// ended.
func (tr *Traversal) sepNext(sink PostSink) StepResult {
	if !tr.next.IsNull() {
		tr.p = tr.next
		tr.chaseKey = 0
		tr.stepTries = 0
		return tr.post(phPage, sink)
	}
	if !tr.sepFound && tr.routeKey != 0 {
		// Two benign races end up here: (a) left is itself the right half
		// of an earlier split whose separator install has not completed
		// yet, so no pair points at it; (b) a racing second split of left
		// already installed a smaller separator for it, left of where
		// routeKey landed us. Rescan from the level's left end first.
		tr.routeKey = 0
		return tr.sepRescan(sink)
	}
	// Wait for the pending install (or the transient chain state) and
	// retry from routing.
	if !tr.sepFound {
		tr.routeKey = tr.sep
	}
	if tr.restart() {
		return tr.fail(fmt.Errorf("btree: %d restarts installing sep %d: %w", tr.St.Restarts, tr.sep, ErrSpinBudget))
	}
	return tr.sepRescan(sink)
}

// growRoot installs a new root above left/right: build it on a fresh page,
// write it, then CAS it into the root word.
func (tr *Traversal) growRoot(sink PostSink) StepResult {
	np, err := tr.allocFresh(tr.level)
	if err != nil {
		return tr.fail(err)
	}
	tr.St.ExposedRTTs++
	nr := tr.t.L.Wrap(tr.freshPage())
	nr.InitInner(tr.level)
	nr.InnerAppend(tr.sep, tr.left)
	nr.InnerAppend(layout.MaxKey, tr.right)
	tr.fresh = np
	return tr.post(phFresh, sink)
}

func (tr *Traversal) handleRootCAS(c rdma.Completion, sink PostSink) StepResult {
	if c.Err != nil {
		return tr.stepError(c.Err, sink)
	}
	tr.St.Atomics++
	tr.St.ExposedRTTs++
	if c.Val == uint64(tr.left) {
		tr.St.Splits++
		tr.t.cachedRoot = tr.fresh
		if r := tr.t.Repl; r != nil {
			if err := r.MirrorWord(tr.t.RootWord, uint64(tr.fresh)); err != nil {
				return tr.fail(err)
			}
		}
		return tr.done()
	}
	// Lost the race; the page was never published, safe to free.
	if err := tr.t.M.FreePage(tr.fresh, tr.t.L.PageBytes); err != nil {
		return tr.fail(err)
	}
	tr.St.ExposedRTTs++
	tr.t.cachedRoot = rdma.NullPtr
	if tr.restart() {
		return tr.fail(fmt.Errorf("btree: %d restarts waiting for root growth: %w", tr.St.Restarts, ErrSpinBudget))
	}
	return tr.sepRescan(sink)
}
