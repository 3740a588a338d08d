package rdma

// This file defines the non-blocking post/poll surface of an endpoint: the
// dataplane contract behind the pipelined client engine (internal/pipeline).
//
// The blocking Endpoint methods expose one verb (or one intra-op batch) per
// round trip. The async surface decouples posting from completion so verbs
// from *different* operations issued in the same scheduling quantum share one
// doorbell: a client posts any number of verbs (PostRead/PostWrite/PostCAS/
// PostFetchAdd/PostCall), rings the doorbell once (Flush), and later reaps
// every completion in one call (Poll). On an RC transport the verbs posted to
// one QP between two doorbells execute in posting order, so the same
// in-order argument that lets the fused read protocol validate a page copy
// with a trailing version READ (DESIGN.md §7) holds across operations too —
// coalescing is free, correctness-wise.
//
// Contract:
//
//   - Tokens are assigned per endpoint, monotonically from 0, in posting
//     order. A posted verb's outcome is delivered exactly once, as a
//     Completion carrying its token.
//   - Post* never reports an error; every failure (including malformed
//     arguments such as a null pointer) surfaces in the verb's Completion.
//     This is what makes "every token must be polled" a checkable invariant
//     (rdmavet's completionleak analyzer).
//   - Flush rings the doorbell: everything posted since the previous Flush
//     forms one doorbell batch. Implementations use the boundary for
//     batching and accounting; semantically Poll alone is enough.
//   - Poll is bulk-synchronous: it blocks until every posted verb has
//     completed and appends the completions to out in posting order,
//     returning the extended slice. Callers reuse out across rounds to stay
//     allocation-free.
//   - Like the blocking surface, the async surface is single-owner: one
//     goroutine posts, flushes and polls. Blocking verbs may be issued at
//     any point outside a Flush..Poll window: with nothing posted, and also
//     while verbs posted since the last Poll are still unflushed. Such a
//     blocking verb executes on its own, ahead of the unflushed posts, and
//     leaves their effects and completions untouched. The pipelined engine
//     relies on this: while other operations' posts for the next round wait
//     unflushed, a split step allocates its page and a failed step releases
//     its lock with blocking verbs. Between a Flush and the Poll that reaps
//     it, blocking verbs are not allowed (a transport may still be reading
//     the batch's replies). rdmatest.AllocMidBatch pins the rule for every
//     bundled transport.
type AsyncEndpoint interface {
	Endpoint
	// PostRead posts a READ of len(dst) words from p into dst.
	PostRead(p RemotePtr, dst []uint64) Token
	// PostWrite posts a WRITE of src to p.
	PostWrite(p RemotePtr, src []uint64) Token
	// PostCAS posts a compare-and-swap of the word at p; the Completion's
	// Val is the prior value (ibverbs semantics: success iff Val == old).
	PostCAS(p RemotePtr, old, new uint64) Token
	// PostFetchAdd posts a fetch-and-add on the word at p; the Completion's
	// Val is the prior value.
	PostFetchAdd(p RemotePtr, delta uint64) Token
	// PostCall posts a two-sided RPC; the Completion's Resp is the response.
	PostCall(server int, req []byte) Token
	// Flush rings the doorbell for everything posted since the last Flush.
	Flush()
	// Poll blocks until every posted verb completed, appends the
	// completions to out in posting order, and returns the extended slice.
	Poll(out []Completion) []Completion
}

// Token identifies one posted, not-yet-completed verb on an AsyncEndpoint.
type Token uint64

// Completion reports the outcome of one posted verb.
type Completion struct {
	Token Token
	// Val is the prior value returned by PostCAS / PostFetchAdd.
	Val uint64
	// Resp is the response of a PostCall.
	Resp []byte
	// Err is the verb's failure, if any; the fault model (a failed verb was
	// never executed remotely) applies per completion, so one failed verb
	// says nothing about its batch neighbours.
	Err error
}

// Async returns the async surface of ep: ep itself when the transport
// implements AsyncEndpoint natively, otherwise a generic adapter that
// buffers posted verbs and executes them through the blocking interface at
// Poll time, one completion per verb.
//
// The adapter preserves the contract exactly — per-verb completions in
// posting order, errors delivered per completion, zero allocations in steady
// state — but not the overlap: verbs execute sequentially, so it offers
// correctness (conformance and chaos testing on any transport) rather than
// pipelining. Transports with a performance model or real sockets implement
// the surface natively.
func Async(ep Endpoint) AsyncEndpoint {
	if a, ok := ep.(AsyncEndpoint); ok {
		return a
	}
	return &asyncAdapter{Endpoint: ep}
}

// PostOp discriminates buffered posted verbs.
type PostOp uint8

// Posted verb kinds.
const (
	PostOpRead PostOp = iota + 1
	PostOpWrite
	PostOpCAS
	PostOpFetchAdd
	PostOpCall
)

// Posted is one buffered posted verb. A and B hold the CAS operands
// (old, new); A holds the FetchAdd delta.
type Posted struct {
	Op     PostOp
	Tok    Token
	P      RemotePtr
	A, B   uint64
	Dst    []uint64
	Src    []uint64
	Server int
	Req    []byte
}

// PostQueue buffers posted verbs and assigns their tokens; the building
// block shared by every AsyncEndpoint implementation. The pending slice's
// capacity is reused across Clear, keeping steady state allocation-free.
type PostQueue struct {
	pending []Posted
	next    Token
}

// Post buffers v, assigns the next token, and returns it.
func (q *PostQueue) Post(v Posted) Token {
	v.Tok = q.next
	q.next++
	q.pending = append(q.pending, v)
	return v.Tok
}

// Pending returns the buffered verbs in posting order. The slice is
// invalidated by Clear.
func (q *PostQueue) Pending() []Posted { return q.pending }

// Len returns the number of buffered verbs.
func (q *PostQueue) Len() int { return len(q.pending) }

// Clear drops the buffered verbs, keeping the backing capacity.
func (q *PostQueue) Clear() { q.pending = q.pending[:0] }

// asyncAdapter is the generic blocking-at-poll AsyncEndpoint described at
// Async.
type asyncAdapter struct {
	Endpoint
	q PostQueue
}

func (a *asyncAdapter) PostRead(p RemotePtr, dst []uint64) Token {
	return a.q.Post(Posted{Op: PostOpRead, P: p, Dst: dst})
}

func (a *asyncAdapter) PostWrite(p RemotePtr, src []uint64) Token {
	return a.q.Post(Posted{Op: PostOpWrite, P: p, Src: src})
}

func (a *asyncAdapter) PostCAS(p RemotePtr, old, new uint64) Token {
	return a.q.Post(Posted{Op: PostOpCAS, P: p, A: old, B: new})
}

func (a *asyncAdapter) PostFetchAdd(p RemotePtr, delta uint64) Token {
	return a.q.Post(Posted{Op: PostOpFetchAdd, P: p, A: delta})
}

func (a *asyncAdapter) PostCall(server int, req []byte) Token {
	return a.q.Post(Posted{Op: PostOpCall, Server: server, Req: req})
}

func (a *asyncAdapter) Flush() {}

func (a *asyncAdapter) Poll(out []Completion) []Completion {
	pending := a.q.Pending()
	for i := range pending {
		v := &pending[i]
		c := Completion{Token: v.Tok}
		switch v.Op {
		case PostOpRead:
			c.Err = a.Endpoint.Read(v.P, v.Dst)
		case PostOpWrite:
			c.Err = a.Endpoint.Write(v.P, v.Src)
		case PostOpCAS:
			//rdmavet:allow caschecked -- transport executes the posted CAS; the prior value is delivered in Completion.Val for the poster to compare
			c.Val, c.Err = a.Endpoint.CompareAndSwap(v.P, v.A, v.B)
		case PostOpFetchAdd:
			c.Val, c.Err = a.Endpoint.FetchAdd(v.P, v.A)
		case PostOpCall:
			c.Resp, c.Err = a.Endpoint.Call(v.Server, v.Req)
		}
		out = append(out, c)
	}
	a.q.Clear()
	return out
}
