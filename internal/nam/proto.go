// Package nam implements the Network-Attached-Memory runtime pieces shared
// by the index designs: the binary RPC wire protocol spoken over two-sided
// verbs, the catalog service that hands compute servers the metadata they
// need to reach an index (root pointers, partitioning scheme, page layout),
// and the cluster topology description (machines, co-location) used by the
// simulated fabric and the benchmark harness.
package nam

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/namdb/rdmatree/internal/rdma"
)

// Op codes of the RPC protocol.
const (
	// OpLookup is a point query against a server-local tree (coarse-grained).
	OpLookup = iota + 1
	// OpRange is a range query against a server-local tree (coarse-grained);
	// the response carries the qualifying entries.
	OpRange
	// OpInsert inserts into a server-local tree (coarse-grained).
	OpInsert
	// OpDelete marks an entry deleted in a server-local tree (coarse-grained).
	OpDelete
	// OpTraverse walks the server-resident upper levels and returns the
	// pointer of the leaf responsible for a key (hybrid).
	OpTraverse
	// OpInstall installs a separator for a leaf split a compute server
	// performed one-sided (hybrid).
	OpInstall
	// OpCatalog fetches the serialized catalog (used by the TCP transport).
	OpCatalog
	// OpStats fetches the server's live telemetry counters as JSON, packed
	// into the response's Pairs field (answered by the telemetry handler
	// wrapper on any design).
	OpStats
)

// OpName returns a human-readable name for an op code.
func OpName(op uint8) string {
	switch op {
	case OpLookup:
		return "lookup"
	case OpRange:
		return "range"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpTraverse:
		return "traverse"
	case OpInstall:
		return "install"
	case OpCatalog:
		return "catalog"
	case OpStats:
		return "stats"
	}
	return fmt.Sprintf("op%d", op)
}

// PackBytes packs a byte payload into a length-prefixed word slice, the
// shape carried by the response Pairs/Values fields for blob payloads
// (catalogs, telemetry JSON).
func PackBytes(b []byte) []uint64 {
	out := make([]uint64, 1+(len(b)+7)/8)
	out[0] = uint64(len(b))
	for i, c := range b {
		out[1+i/8] |= uint64(c) << uint(8*(i%8))
	}
	return out
}

// UnpackBytes unpacks a payload packed by PackBytes.
func UnpackBytes(w []uint64) []byte {
	if len(w) == 0 {
		return nil
	}
	n := int(w[0])
	if max := 8 * (len(w) - 1); n > max {
		n = max
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(w[1+i/8] >> uint(8*(i%8)))
	}
	return out
}

// Response status codes.
const (
	StatusOK = iota
	StatusNotFound
	// StatusErr carries an opaque remote failure; the operation aborts.
	StatusErr
	// StatusRetry carries a remote failure that an epoch fence and an
	// operation re-run can be expected to clear — the handler's tree
	// exhausted its consistency-restart budget, typically waiting on split
	// state that was lost with a crashed group member. AsError wraps
	// ErrRemoteRetry so the op-level recovery loop re-runs the operation.
	StatusRetry
)

var order = binary.LittleEndian

// Request is the decoded form of an RPC request.
type Request struct {
	Op    uint8
	Key   uint64
	End   uint64         // OpRange: inclusive end; OpInstall: separator
	Value uint64         // OpInsert/OpDelete payload
	Left  rdma.RemotePtr // OpInstall
	Right rdma.RemotePtr // OpInstall
	// Group is the replica group the request addresses (replicated
	// deployments only): after a failover the RPC lands on a backup server
	// that serves several groups' mirrored trees, and Group tells it which
	// one. Unreplicated clients leave it 0 and handlers ignore it.
	Group uint8
}

// requestBytes is the size of an encoded Request.
const requestBytes = 1 + 5*8 + 1

// Encode serializes r into a buffer of its own.
func (r *Request) Encode() []byte { return r.AppendTo(make([]byte, 0, requestBytes)) }

// AppendTo appends r's encoding to dst and returns the extended buffer, so
// a caller that owns a buffer encodes without allocating.
func (r *Request) AppendTo(dst []byte) []byte {
	dst = append(dst, r.Op)
	dst = order.AppendUint64(dst, r.Key)
	dst = order.AppendUint64(dst, r.End)
	dst = order.AppendUint64(dst, r.Value)
	dst = order.AppendUint64(dst, uint64(r.Left))
	dst = order.AppendUint64(dst, uint64(r.Right))
	return append(dst, r.Group)
}

// DecodeRequest parses a request. The Group byte is an appended extension:
// requests encoded before replication existed are one byte shorter and
// decode with Group 0.
func DecodeRequest(b []byte) (Request, error) {
	if len(b) < 1+5*8 {
		return Request{}, fmt.Errorf("nam: short request (%d bytes)", len(b))
	}
	r := Request{
		Op:    b[0],
		Key:   order.Uint64(b[1:]),
		End:   order.Uint64(b[9:]),
		Value: order.Uint64(b[17:]),
		Left:  rdma.RemotePtr(order.Uint64(b[25:])),
		Right: rdma.RemotePtr(order.Uint64(b[33:])),
	}
	if len(b) >= requestBytes {
		r.Group = b[41]
	}
	return r, nil
}

// DirtyKind classifies a replicated post-image carried by a response.
type DirtyKind uint8

// Dirty-page kinds, mirroring the btree.Replicator methods.
const (
	// DirtyFull is an in-place page update: the image carries its
	// published version word, and the mirror push is versioned.
	DirtyFull DirtyKind = iota
	// DirtyFresh is a never-published page (split right half, new root):
	// mirrored blind.
	DirtyFresh
	// DirtyWord is a root-pointer word update: Words holds one word.
	DirtyWord
)

// DirtyPage is one page (or word) post-image a server-side tree committed
// while handling an RPC. In replicated deployments the *client* pushes
// these to the group's backups before acking — the memory servers never
// talk to each other, keeping the NAM separation of compute and memory.
type DirtyPage struct {
	Kind  DirtyKind
	Ptr   rdma.RemotePtr
	Words []uint64
}

// DirtyPusher replays server-captured post-images onto a group's backups
// before the client acks the operation (implemented by repl.Mirrorer). The
// designs depend on this interface rather than the replication package so
// unreplicated deployments carry no replication code on their hot path.
type DirtyPusher interface {
	Push(dirty []DirtyPage) error
}

// Response is the decoded form of an RPC response.
type Response struct {
	Status uint8
	// Ptr carries the leaf pointer for OpTraverse.
	Ptr rdma.RemotePtr
	// Values carries point-lookup results.
	Values []uint64
	// Pairs carries (key, value) pairs for OpRange, flattened.
	Pairs []uint64
	// Err carries a message when Status == StatusErr.
	Err string
	// Dirty carries the page post-images the handler committed (replicated
	// deployments only), for the client to mirror before acking. Attached
	// to error responses too: a handler that committed pages and then
	// failed still needs those pages mirrored.
	Dirty []DirtyPage
	// Load is the responding server's handler-pool CPU utilization in
	// percent [0,100], piggybacked on every reply so clients see the load
	// signal without extra round trips (the adaptive traversal policy feeds
	// it to its crossover estimator). 0 when the server has no load probe
	// installed.
	Load uint8
}

// Encode serializes the response.
func (r *Response) Encode() []byte {
	// Sized exactly, trailers included, so every reply costs one allocation.
	n := 1 + 8 + 4 + 8*len(r.Values) + 4 + 8*len(r.Pairs) + 2 + len(r.Err) + 2 + 1
	for _, d := range r.Dirty {
		n += 1 + 8 + 4 + 8*len(d.Words)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, r.Status)
	buf = order.AppendUint64(buf, uint64(r.Ptr))
	buf = order.AppendUint32(buf, uint32(len(r.Values)))
	for _, v := range r.Values {
		buf = order.AppendUint64(buf, v)
	}
	buf = order.AppendUint32(buf, uint32(len(r.Pairs)))
	for _, v := range r.Pairs {
		buf = order.AppendUint64(buf, v)
	}
	buf = order.AppendUint16(buf, uint16(len(r.Err)))
	buf = append(buf, r.Err...)
	// Dirty-page trailer (appended so pre-replication decoders, which stop
	// after the error string, still parse the prefix).
	buf = order.AppendUint16(buf, uint16(len(r.Dirty)))
	for _, d := range r.Dirty {
		buf = append(buf, byte(d.Kind))
		buf = order.AppendUint64(buf, uint64(d.Ptr))
		buf = order.AppendUint32(buf, uint32(len(d.Words)))
		for _, w := range d.Words {
			buf = order.AppendUint64(buf, w)
		}
	}
	// Load trailer byte (appended after the dirty pages for the same
	// backward-compatibility reason).
	buf = append(buf, r.Load)
	return buf
}

// DecodeResponse parses a response.
func DecodeResponse(b []byte) (Response, error) {
	var r Response
	if len(b) < 1+8+4 {
		return r, fmt.Errorf("nam: short response (%d bytes)", len(b))
	}
	r.Status = b[0]
	r.Ptr = rdma.RemotePtr(order.Uint64(b[1:]))
	off := 9
	nv := int(order.Uint32(b[off:]))
	off += 4
	if len(b) < off+8*nv+4 {
		return r, fmt.Errorf("nam: truncated values")
	}
	if nv > 0 {
		r.Values = make([]uint64, nv)
		for i := range r.Values {
			r.Values[i] = order.Uint64(b[off:])
			off += 8
		}
	}
	np := int(order.Uint32(b[off:]))
	off += 4
	if len(b) < off+8*np+2 {
		return r, fmt.Errorf("nam: truncated pairs")
	}
	if np > 0 {
		r.Pairs = make([]uint64, np)
		for i := range r.Pairs {
			r.Pairs[i] = order.Uint64(b[off:])
			off += 8
		}
	}
	ne := int(order.Uint16(b[off:]))
	off += 2
	if len(b) < off+ne {
		return r, fmt.Errorf("nam: truncated error string")
	}
	r.Err = string(b[off : off+ne])
	off += ne
	// Optional dirty-page trailer (absent in pre-replication encodings).
	if len(b) < off+2 {
		return r, nil
	}
	nd := int(order.Uint16(b[off:]))
	off += 2
	for i := 0; i < nd; i++ {
		if len(b) < off+1+8+4 {
			return r, fmt.Errorf("nam: truncated dirty page header")
		}
		d := DirtyPage{Kind: DirtyKind(b[off]), Ptr: rdma.RemotePtr(order.Uint64(b[off+1:]))}
		nw := int(order.Uint32(b[off+9:]))
		off += 13
		if len(b) < off+8*nw {
			return r, fmt.Errorf("nam: truncated dirty page words")
		}
		d.Words = make([]uint64, nw)
		for j := range d.Words {
			d.Words[j] = order.Uint64(b[off:])
			off += 8
		}
		r.Dirty = append(r.Dirty, d)
	}
	// Optional load trailer byte (absent in pre-policy encodings).
	if len(b) > off {
		r.Load = b[off]
	}
	return r, nil
}

// ErrRemoteRetry reports a remote handler failure that is expected to clear
// under an epoch fence and an operation re-run from the root (the remote
// tree ran out of its restart budget — e.g. waiting for a split install
// that died with the old primary). core.Recovered treats this error as
// op-recoverable; the exactly-once contract holds because the re-run's
// presence check acks an insert whose leaf commit already published.
var ErrRemoteRetry = errors.New("nam: remote handler exhausted its restart budget")

// ErrResponse builds an error response.
func ErrResponse(err error) *Response {
	return &Response{Status: StatusErr, Err: err.Error()}
}

// RetryResponse builds an op-recoverable error response (StatusRetry).
func RetryResponse(err error) *Response {
	return &Response{Status: StatusRetry, Err: err.Error()}
}

// AsError converts an error response to a Go error (nil for OK/NotFound).
func (r *Response) AsError() error {
	switch r.Status {
	case StatusErr:
		return fmt.Errorf("nam: remote error: %s", r.Err)
	case StatusRetry:
		return fmt.Errorf("nam: remote error: %s: %w", r.Err, ErrRemoteRetry)
	}
	return nil
}
