package btree

import "github.com/namdb/rdmatree/internal/rdma"

// memSink is the PostSink of the blocking point operations, which step the
// handle's own Traversal to completion. It queues one step's verbs (at most
// two) and run executes them in posting order through the tree's Mem (so
// Mem decorators see the same calls): a page READ plus the version-word
// READ of the same page as one Mem.ReadValidated, a page's body WRITE plus
// its unlock FAA as one Mem.WriteUnlock, the root word as Mem.LoadWord.
// Like an RC queue pair flushing the work requests behind an error, run
// fails the rest of a step after its first failed verb.
type memSink struct {
	n     int
	verbs [2]postedVerb
	comps [2]rdma.Completion
	// extra is the exposed round trips the last run cost beyond the one a
	// step is counted as: 1 when a publish pair ran as two blocking verbs.
	extra int
}

type postedVerb struct {
	kind     verbKind
	p        rdma.RemotePtr
	buf      []uint64
	old, new uint64 // CAS operands; old is the FETCH_AND_ADD delta
}

type verbKind uint8

const (
	verbRead verbKind = iota
	verbWrite
	verbCAS
	verbFetchAdd
)

func (s *memSink) post(v postedVerb) { s.verbs[s.n] = v; s.n++ }

func (s *memSink) PostRead(p rdma.RemotePtr, dst []uint64) {
	s.post(postedVerb{verbRead, p, dst, 0, 0})
}
func (s *memSink) PostWrite(p rdma.RemotePtr, src []uint64) {
	s.post(postedVerb{verbWrite, p, src, 0, 0})
}
func (s *memSink) PostCAS(p rdma.RemotePtr, old, new uint64) {
	s.post(postedVerb{verbCAS, p, nil, old, new})
}
func (s *memSink) PostFetchAdd(p rdma.RemotePtr, delta uint64) {
	s.post(postedVerb{verbFetchAdd, p, nil, delta, 0})
}

// run executes the queued step through m and returns its completions.
func (s *memSink) run(m Mem) []rdma.Completion {
	comps := s.comps[:s.n]
	s.n, s.extra = 0, 0
	if v := &s.verbs; len(comps) == 2 && v[0].kind == verbRead && v[1].kind == verbRead && v[0].p == v[1].p {
		var err error
		v[1].buf[0], _, err = m.ReadValidated(v[0].p, v[0].buf) //rdmavet:allow layoutwords -- the one-word version-sample buffer, not a page
		comps[0] = rdma.Completion{Err: err}
		comps[1] = comps[0]
		return comps
	}
	if v := &s.verbs; len(comps) == 2 && v[0].kind == verbWrite && v[1].kind == verbFetchAdd && v[0].p == v[1].p.Add(8) {
		pub := m.WriteUnlock(v[1].p, v[0].buf)
		comps[0] = rdma.Completion{Err: pub.WriteErr}
		comps[1] = rdma.Completion{Val: pub.Prior, Err: pub.UnlockErr}
		s.extra = pub.Rounds - 1
		return comps
	}
	var err error
	for i := range comps {
		v := &s.verbs[i]
		var val uint64
		switch {
		case err != nil: // flushed behind the failed verb
		case v.kind == verbRead: // a traversal's only lone READ is the root word
			v.buf[0], err = m.LoadWord(v.p) //rdmavet:allow layoutwords -- a one-word buffer (the root word), not a page
		case v.kind == verbWrite:
			err = m.WriteWords(v.p, v.buf)
		case v.kind == verbCAS:
			val, err = m.CAS(v.p, v.old, v.new) //rdmavet:allow caschecked -- the prior value is the completion's Val, which the posting Traversal compares
		default:
			val, err = m.FetchAdd(v.p, v.old)
		}
		comps[i] = rdma.Completion{Val: val, Err: err}
	}
	return comps
}

// driver arms the handle's own traversal for one blocking operation. It
// borrows the handle's scratch page; its split buffer is allocated at the
// first split.
func (t *Tree) driver(env rdma.Env) *Traversal {
	tr := &t.drv
	tr.t, tr.env, tr.blocking = t, env, true
	tr.pageBuf = t.scratchPage()
	return tr
}

// drive steps tr to completion, pausing before the verbs a restart
// re-posted. It reposts and reconnects nothing: a failed verb fails the
// operation into operation-level recovery (core.Recover), except the
// unlock FAA of a published body, which the traversal drives to completion.
func (t *Tree) drive(tr *Traversal) error {
	res := tr.Step(nil, &t.sink)
	for res.Status == StepRunning {
		if tr.TakePause() {
			tr.env.Pause()
		}
		comps := t.sink.run(t.M)
		tr.St.ExposedRTTs += t.sink.extra
		res = tr.Step(comps, &t.sink)
	}
	return res.Err
}
