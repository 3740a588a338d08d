package core

import (
	"errors"
	"fmt"

	"github.com/namdb/rdmatree/internal/btree"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/rdma"
)

// RootInvalidator is implemented by clients that cache tree root (or
// traversal) state which must be dropped before a post-fault re-traversal.
type RootInvalidator interface {
	InvalidateRoot()
}

// RecoveryCounters receives operation-recovery events; telemetry.Recorder
// implements it. Implementations must be safe for concurrent use.
type RecoveryCounters interface {
	// CountOpRecovery records one epoch-fenced operation re-traversal.
	CountOpRecovery()
}

// RecoveryEvents receives per-fence recovery events — the flight recorder's
// view of the recovery loop, complementing the aggregate RecoveryCounters.
// obs.Log implements it. A RecoveryEvents belongs to the same single client
// goroutine as the Recovered wrapper holding it.
type RecoveryEvents interface {
	// EpochFence records one epoch fence: the cached root was invalidated
	// and the operation re-traverses.
	EpochFence()
}

// Resyncer is the replication ring's hook into recovery (repl.Mirrorer):
// Resync re-pushes the images of a failed mirror push to the backups.
type Resyncer interface {
	Resync() error
}

// DefaultMaxOpAttempts is how often one operation is run (first run
// included) across epoch-fenced recoveries when the caller sets no bound.
const DefaultMaxOpAttempts = 6

// Recovered wraps an index client with operation-level fault recovery: when
// an operation fails with a transient verb error that survived the verb
// layer's bounded retries (or with btree.ErrSpinBudget from a starved page
// lock — locally from the client's own leaf engine, or relayed from an RPC
// handler's tree as nam.ErrRemoteRetry), the wrapper fences a new epoch — it invalidates the client's cached
// root so the next descent re-reads it — and re-runs the operation from the
// root, up to MaxOpAttempts times.
//
// The re-run is exactly-once for inserts under one contract: each logical
// insert carries a (key, value) pair that is not already present in the
// index (values act as idempotence tokens; the chaos harness and the bench
// workloads satisfy this by construction). Before re-running an interrupted
// insert, the wrapper looks the key up and treats a visible (key, value) as
// the interrupted attempt having committed — so an insert whose unlock
// published the entry but whose split bookkeeping failed is acked once, not
// re-applied. (A committed-but-uninstalled separator leaves the B-link tree
// slower, not wrong: descents recover through right-sibling links.)
//
// Lookups are read-only and deletes mark exactly the first live matching
// (key, value), so both re-run safely as-is. A recovered Range restarts the
// scan from lo — the emit callback may see entries again and must be
// idempotent under recovery (collect into a set, as the harnesses do).
//
// rdma.ErrServerLost is permanent by definition and is returned immediately:
// the index lost pages with the server's region, and no re-traversal can
// repair that client-side.
//
// Recovered is bound to a single client goroutine, like the client it wraps.
type Recovered struct {
	idx Index
	// MaxOpAttempts bounds how often one operation is run (first run
	// included).
	MaxOpAttempts int
	counters      RecoveryCounters
	events        RecoveryEvents
	mirror        Resyncer
}

var _ Index = (*Recovered)(nil)

// Recover wraps idx. counters may be nil.
func Recover(idx Index, maxOpAttempts int, counters RecoveryCounters) *Recovered {
	if maxOpAttempts <= 0 {
		maxOpAttempts = DefaultMaxOpAttempts
	}
	return &Recovered{idx: idx, MaxOpAttempts: maxOpAttempts, counters: counters}
}

// Unwrap returns the wrapped client (invariant checks, stats).
func (r *Recovered) Unwrap() Index { return r.idx }

// WithEvents installs ev as the per-fence event hook and returns r (chains
// after Recover). ev may be nil.
func (r *Recovered) WithEvents(ev RecoveryEvents) *Recovered {
	r.events = ev
	return r
}

// WithResync installs the client's replication ring, whose failed pushes
// are re-pushed before every re-run, and returns r (chains after Recover).
func (r *Recovered) WithResync(rs Resyncer) *Recovered {
	r.mirror = rs
	return r
}

// Recoverable reports whether a new epoch and a re-traversal can be expected
// to clear err.
//
// rdma.ErrGroupMoved is the replication failover signal: it is deliberately
// not verb-transient (re-driving the *same* verb against the promoted
// primary is unsound — see the sentinel's doc), but the *operation* is fully
// recoverable: the fence invalidates cached state and the re-run traverses
// from the root under the post-failover routing.
func Recoverable(err error) bool {
	if errors.Is(err, rdma.ErrServerLost) {
		return false
	}
	return rdma.IsTransient(err) ||
		errors.Is(err, rdma.ErrGroupMoved) ||
		errors.Is(err, btree.ErrSpinBudget) ||
		errors.Is(err, nam.ErrRemoteRetry)
}

// fence opens a new epoch: the cached descent state of the wrapped client is
// dropped so the retry traverses from the current root. Then the failed
// attempt's mirror pushes are re-pushed: a re-run must not observe, and a
// presence check must not ack, a write that lives on the primary only.
func (r *Recovered) fence() error {
	if inv, ok := r.idx.(RootInvalidator); ok {
		inv.InvalidateRoot()
	}
	if r.counters != nil {
		r.counters.CountOpRecovery()
	}
	if r.events != nil {
		r.events.EpochFence()
	}
	if r.mirror != nil {
		return r.mirror.Resync()
	}
	return nil
}

// Lookup implements Index.
func (r *Recovered) Lookup(key uint64) ([]uint64, error) {
	var vals []uint64
	err := r.do(func() error {
		var oerr error
		vals, oerr = r.idx.Lookup(key)
		return oerr
	})
	return vals, err
}

// Range implements Index.
func (r *Recovered) Range(lo, hi uint64, emit func(k, v uint64) bool) error {
	return r.do(func() error {
		return r.idx.Range(lo, hi, emit)
	})
}

// Insert implements Index.
func (r *Recovered) Insert(key, value uint64) error {
	err := r.idx.Insert(key, value)
	for attempt := 1; Recoverable(err) && attempt < r.MaxOpAttempts; attempt++ {
		if ferr := r.fence(); ferr != nil {
			err = ferr
			continue
		}
		// Epoch-fenced presence check: if the interrupted attempt published
		// (key, value), the insert committed — re-running it would create a
		// duplicate. The check must complete before the insert may be
		// re-applied; while it cannot (the fault persists), the attempt is
		// consumed and the operation stays un-acked rather than risking a
		// duplicate.
		vals, lerr := r.idx.Lookup(key)
		if lerr != nil {
			if !Recoverable(lerr) {
				return lerr
			}
			continue
		}
		for _, v := range vals {
			if v == value {
				return nil
			}
		}
		err = r.idx.Insert(key, value)
	}
	if Recoverable(err) {
		return fmt.Errorf("core: insert(%d) unrecovered after %d attempts: %w", key, r.MaxOpAttempts, err)
	}
	return err
}

// Delete implements Index.
func (r *Recovered) Delete(key, value uint64) (bool, error) {
	var ok bool
	err := r.do(func() error {
		var oerr error
		ok, oerr = r.idx.Delete(key, value)
		return oerr
	})
	return ok, err
}

// do runs an idempotent operation under the recovery loop.
func (r *Recovered) do(op func() error) error {
	err := op()
	for attempt := 1; Recoverable(err) && attempt < r.MaxOpAttempts; attempt++ {
		if err = r.fence(); err == nil {
			err = op()
		}
	}
	if Recoverable(err) {
		return fmt.Errorf("core: operation unrecovered after %d attempts: %w", r.MaxOpAttempts, err)
	}
	return err
}
