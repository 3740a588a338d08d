package obs

import (
	"github.com/namdb/rdmatree/internal/btree"
	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/rdma"
)

// ptrOf recovers a RemotePtr from its in-ring encoding (the raw uint64).
func ptrOf(raw uint64) rdma.RemotePtr { return rdma.RemotePtr(raw) }

// Mem decorates a btree.Mem with flight-recorder events: every level read
// (with its validation outcome), word read, write, lock CAS, unlock
// fetch-add, page allocation/free, and prefetch batch lands in the log. Like
// cache.Mem it stacks on any underlying Mem, so the fine and hybrid designs
// trace the same protocol whether or not a cache sits in between.
type Mem struct {
	Inner btree.Mem
	Log   *Log
}

// WrapMem returns m instrumented to record into log; a nil log returns m
// unchanged.
func WrapMem(m btree.Mem, log *Log) btree.Mem {
	if log == nil {
		return m
	}
	return &Mem{Inner: m, Log: log}
}

var _ btree.Mem = (*Mem)(nil)

// readOutcome classifies a ReadValidated result for the event's B word.
func readOutcome(version uint64, ok bool, err error) uint64 {
	switch {
	case err != nil:
		return outErr
	case ok:
		return outOK
	case layout.IsLocked(version):
		return outLocked
	default:
		return outTorn
	}
}

// ReadWords implements btree.Mem.
func (m *Mem) ReadWords(p rdma.RemotePtr, dst []uint64) error {
	err := m.Inner.ReadWords(p, dst)
	out := uint64(outOK)
	if err != nil {
		out = outErr
	}
	m.Log.Event(EvRead, uint64(p), out)
	return err
}

// ReadValidated implements btree.Mem, recording the validation outcome
// (ok / locked / torn / err) — the signal that distinguishes a clean descent
// from one spinning on a writer's lock.
func (m *Mem) ReadValidated(p rdma.RemotePtr, dst []uint64) (uint64, bool, error) {
	version, ok, err := m.Inner.ReadValidated(p, dst)
	m.Log.Event(EvRead, uint64(p), readOutcome(version, ok, err))
	return version, ok, err
}

// WriteWords implements btree.Mem.
func (m *Mem) WriteWords(p rdma.RemotePtr, src []uint64) error {
	err := m.Inner.WriteWords(p, src)
	m.Log.Event(EvWrite, uint64(p), uint64(len(src)))
	return err
}

// WritePages implements btree.Mem, recording each page's write as
// WriteWords does.
func (m *Mem) WritePages(ps []rdma.RemotePtr, srcs [][]uint64) error {
	err := m.Inner.WritePages(ps, srcs)
	for i, p := range ps {
		m.Log.Event(EvWrite, uint64(p), uint64(len(srcs[i])))
	}
	return err
}

// WriteUnlock implements btree.Mem, recording the pair as its two events:
// the body write, then the unlock with its own outcome.
func (m *Mem) WriteUnlock(p rdma.RemotePtr, body []uint64) btree.Publish {
	pub := m.Inner.WriteUnlock(p, body)
	m.Log.Event(EvWrite, uint64(p.Add(8)), uint64(len(body)))
	out := uint64(outOK)
	if pub.UnlockErr != nil {
		out = outErr
	}
	m.Log.Event(EvUnlock, uint64(p), out)
	return pub
}

// LoadWord implements btree.Mem.
func (m *Mem) LoadWord(p rdma.RemotePtr) (uint64, error) {
	v, err := m.Inner.LoadWord(p)
	out := uint64(outOK)
	if err != nil {
		out = outErr
	}
	m.Log.Event(EvWordRead, uint64(p), out)
	return v, err
}

// CAS implements btree.Mem, recording whether the lock CAS won or lost.
func (m *Mem) CAS(p rdma.RemotePtr, old, new uint64) (uint64, error) {
	prev, err := m.Inner.CAS(p, old, new)
	out := uint64(outOK)
	switch {
	case err != nil:
		out = outErr
	case prev != old:
		out = casLost
	}
	m.Log.Event(EvCAS, uint64(p), out)
	return prev, err
}

// FetchAdd implements btree.Mem. In the lock-coupling protocol every
// fetch-add is the unlock-and-bump release, so it records as EvUnlock.
func (m *Mem) FetchAdd(p rdma.RemotePtr, delta uint64) (uint64, error) {
	prev, err := m.Inner.FetchAdd(p, delta)
	out := uint64(outOK)
	if err != nil {
		out = outErr
	}
	m.Log.Event(EvUnlock, uint64(p), out)
	return prev, err
}

// AllocPages implements btree.Mem, recording one event per page, or one
// null-page event when the allocation failed.
func (m *Mem) AllocPages(level int, n int, ps []rdma.RemotePtr) error {
	if err := m.Inner.AllocPages(level, n, ps); err != nil {
		m.Log.Event(EvAlloc, uint64(rdma.NullPtr), uint64(level))
		return err
	}
	for _, p := range ps {
		m.Log.Event(EvAlloc, uint64(p), uint64(level))
	}
	return nil
}

// FreePage implements btree.Mem.
func (m *Mem) FreePage(p rdma.RemotePtr, n int) error {
	err := m.Inner.FreePage(p, n)
	m.Log.Event(EvFree, uint64(p), uint64(n))
	return err
}

// ReadPages implements btree.Mem, recording the prefetch batch as one event.
func (m *Mem) ReadPages(ps []rdma.RemotePtr, dst [][]uint64, versions []uint64) error {
	err := m.Inner.ReadPages(ps, dst, versions)
	out := uint64(outOK)
	if err != nil {
		out = outErr
	}
	m.Log.Event(EvPrefetch, uint64(len(ps)), out)
	return err
}
