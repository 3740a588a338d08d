// Package retry is the shared verb-level retry policy of every index client:
// bounded exponential backoff with seeded jitter, per-verb attempt deadlines,
// and QP re-establishment after error-state transitions.
//
// The policy is exposed two ways. Policy.Do retries one verb closure; Wrap
// decorates a whole rdma.Endpoint so that every verb issued through it is
// retried under the policy — this is how the coarse, fine, and hybrid clients
// consume it (stacked between faultnet and the protocol code). Raw retry
// loops around verbs anywhere else in the tree are rejected by the rdmavet
// retrynaked analyzer; this package is the single place retries are allowed
// to live.
//
// Retrying a failed verb — including CompareAndSwap and two-sided Calls — is
// safe under this repository's fault model: a verb that reported a transient
// failure was never executed by the remote side (see rdma.ErrTimeout and
// DESIGN.md §9). What bounded verb retries cannot absorb (a crashed server
// mid-operation, retry budget exhaustion) surfaces as a typed transient or
// permanent error, and the clients' operation-level recovery (epoch-fenced
// re-traversal) takes over from there.
//
// The wrapper forwards the non-blocking surface (rdma.AsyncEndpoint) exactly
// when the endpoint it wraps has one, so pipelined clients and the blocking
// clients' one-doorbell page publish (btree.Mem.WriteUnlock) run under the
// same policy. A posted batch is retried per memory server, and only where
// the failures are a trailing run of transient errors in that server's
// posting order — the pattern an RC queue pair's flush-behind-error
// produces, whose in-order re-post replays the server's verbs in order.
// Every other pattern is delivered to the caller as it is (see
// asyncEndpoint).
//
// The package runs under simnet virtual time, so it never touches the wall
// clock itself: backoff waits go through the injected Policy.Sleep hook (nil
// means yield-only backoff, the right choice for in-process transports).
package retry

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/namdb/rdmatree/internal/rdma"
)

// Counters receives retry-protocol events; telemetry.Recorder implements it.
// Implementations must be safe for concurrent use.
type Counters interface {
	// CountRetry records one re-attempt of a verb after a transient failure.
	CountRetry()
	// CountReconnect records one successful QP re-establishment.
	CountReconnect()
}

// Events receives per-attempt retry events with their parameters — the
// flight recorder's view of the retry loop, complementing the aggregate
// Counters. obs.Log implements it. An Events belongs to the same single
// client goroutine as the Policy holding it.
type Events interface {
	// RetryEvent records one re-attempt against server after the given
	// backoff wait.
	RetryEvent(server int, backoffNS int64)
	// ReconnectEvent records one QP re-establishment attempt and whether it
	// succeeded.
	ReconnectEvent(server int, ok bool)
}

// Policy is a bounded-backoff retry policy. A Policy belongs to one client
// goroutine (like the Endpoint it drives) and must not be shared.
//
// The zero value is usable: Defaults() values are substituted for unset
// fields on first use.
type Policy struct {
	// MaxAttempts bounds how often one verb is attempted (first try
	// included). Exhausting it returns the last transient error to the
	// caller. Default 8.
	MaxAttempts int
	// BaseDelay is the backoff before the first re-attempt; it doubles per
	// attempt up to MaxDelay. Defaults 2µs / 512µs.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed drives the jitter PRNG: each backoff waits between 50% and 100%
	// of the exponential step. A fixed seed gives a reproducible delay
	// sequence.
	Seed int64
	// Sleep performs the backoff wait. Nil means no wait: the retry loop
	// spins (with the transport's own blocking providing pacing) — correct
	// for in-process transports and for simnet, where wall-clock sleeping
	// would be meaningless. Real deployments (cmd/namclient) inject
	// time.Sleep.
	Sleep func(time.Duration)
	// Counters, when non-nil, receives retry/reconnect events.
	Counters Counters
	// Events, when non-nil, receives per-attempt retry and reconnect events
	// (the flight recorder hook).
	Events Events

	rng *rand.Rand
}

// Defaults fills unset fields in place and returns p.
func (p *Policy) Defaults() *Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 8
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 2 * time.Microsecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 512 * time.Microsecond
	}
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.Seed*0x9e3779b9 + 0x2545f491))
	}
	return p
}

// backoff returns the jittered wait before re-attempt number attempt (1-based)
// and performs it through Sleep.
func (p *Policy) backoff(attempt int) time.Duration {
	d := p.BaseDelay << (attempt - 1)
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	// Jitter in [d/2, d): desynchronizes clients hammering one recovering
	// server without ever collapsing the wait to zero.
	d = d/2 + time.Duration(p.rng.Int63n(int64(d/2)))
	if p.Sleep != nil {
		p.Sleep(d)
	}
	return d
}

// Do runs verb under the policy: transient failures (rdma.IsTransient) are
// retried with backoff up to MaxAttempts; an rdma.ErrQPError additionally
// re-establishes the queue pair to server through rec before the next
// attempt (rec may be nil when the endpoint cannot reconnect — the QP error
// is then surfaced after exhausting attempts). Permanent errors
// (rdma.ErrServerLost, protocol errors) return immediately.
func (p *Policy) Do(rec rdma.Reconnector, server int, verb func() error) error {
	p.Defaults()
	var err error
	for attempt := 1; ; attempt++ {
		err = verb()
		if err == nil || !rdma.IsTransient(err) {
			return err
		}
		if attempt >= p.MaxAttempts {
			return fmt.Errorf("retry: %d attempts exhausted: %w", attempt, err)
		}
		if p.Counters != nil {
			p.Counters.CountRetry()
		}
		d := p.backoff(attempt)
		if p.Events != nil {
			p.Events.RetryEvent(server, int64(d))
		}
		if errors.Is(err, rdma.ErrQPError) && rec != nil {
			if rerr := p.reconnect(rec, server); rerr != nil {
				return rerr
			}
		}
	}
}

// reconnect re-establishes the QP to server, retrying with backoff while the
// server is down. It consumes the policy's attempt budget independently: a
// server that stays down past MaxAttempts reconnect tries surfaces
// rdma.ErrServerDown to the operation layer.
func (p *Policy) reconnect(rec rdma.Reconnector, server int) error {
	var err error
	for attempt := 1; attempt <= p.MaxAttempts; attempt++ {
		err = rec.Reconnect(server)
		if p.Events != nil {
			p.Events.ReconnectEvent(server, err == nil)
		}
		if err == nil {
			if p.Counters != nil {
				p.Counters.CountReconnect()
			}
			return nil
		}
		if !errors.Is(err, rdma.ErrServerDown) {
			// ErrServerLost or a transport-level failure: not recoverable
			// at this layer.
			return err
		}
		p.backoff(attempt)
	}
	return fmt.Errorf("retry: server %d down after %d reconnect attempts: %w",
		server, p.MaxAttempts, err)
}
