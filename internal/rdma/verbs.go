package rdma

// Endpoint is the client-side verbs interface of one compute thread: a set
// of reliable connections (queue pairs) to every memory server in the NAM
// cluster. All index access protocols in this repository are written against
// this interface and run unchanged on all transports.
//
// One-sided verbs (Read, Write, CompareAndSwap, FetchAdd) access remote
// memory without involving the remote CPU. The two-sided verb pair
// SEND/RECEIVE is exposed as Call: a request message delivered to the target
// server's shared receive queue, processed by a handler on the server's CPU,
// answered with a response message.
//
// Alloc and Free implement the RDMA_ALLOC/free used by the one-sided split
// protocol (Listing 4) and the epoch garbage collector.
//
// An Endpoint is owned by a single client; it must not be used from multiple
// goroutines concurrently. Distinct Endpoints may be used concurrently.
type Endpoint interface {
	// Read copies len(dst) words (8*len(dst) bytes) from remote memory at p.
	Read(p RemotePtr, dst []uint64) error
	// ReadMulti issues one READ per pointer as a selectively signalled
	// batch: all reads are posted at once and only the last is waited for,
	// masking latency (the Section 4.3 head-node prefetch relies on this).
	ReadMulti(ps []RemotePtr, dst [][]uint64) error
	// Write copies src to remote memory at p.
	Write(p RemotePtr, src []uint64) error
	// CompareAndSwap atomically compares the remote 8-byte word at p with
	// old and, if equal, replaces it with new. It returns the value observed
	// before the operation (ibverbs semantics): the swap succeeded iff the
	// returned value == old.
	CompareAndSwap(p RemotePtr, old, new uint64) (uint64, error)
	// FetchAdd atomically adds delta to the remote word at p and returns the
	// prior value.
	FetchAdd(p RemotePtr, delta uint64) (uint64, error)
	// Alloc allocates n bytes in the region of the given server.
	Alloc(server int, n int) (RemotePtr, error)
	// Free returns the n-byte block at p to its server's allocator.
	Free(p RemotePtr, n int) error
	// Call sends req to the given server's shared receive queue and blocks
	// until the response arrives. req belongs to the caller again once Call
	// returns: an implementation copies or decodes it, and never keeps it.
	Call(server int, req []byte) ([]byte, error)
	// NumServers returns the number of memory servers in the cluster.
	NumServers() int
}

// Work reports the server-side effort of one RPC so the simulated transport
// can charge handler CPU time. Transports without a performance model ignore
// it.
type Work struct {
	// PagesTouched is the number of index pages the handler visited.
	PagesTouched int
}

// Env abstracts the execution environment of protocol code that runs on a
// server CPU, so the same implementation runs on real threads (direct,
// tcpnet) and on simulated virtual time (simnet).
type Env interface {
	// Charge accounts ns nanoseconds of CPU work. On simulated transports
	// this advances virtual time while occupying the handler's core; on real
	// transports it is a no-op.
	Charge(ns int64)
	// Pause is a spin-wait backoff hint, called inside lock spin loops. On
	// real transports it yields the processor; on simulated transports it
	// advances virtual time so that the lock holder can make progress.
	Pause()
}

// Handler processes one RPC on a memory server. Handlers run concurrently
// (one per handler core / SRQ worker) and must synchronize through the
// server's Region like any other accessor.
type Handler func(env Env, server int, req []byte) (resp []byte, w Work)

// Server bundles the registered memory region and allocator of one memory
// server. Transports expose it for index bulk-loading (an untimed setup
// path) and for server-local index structures (the coarse-grained design's
// per-server trees).
type Server struct {
	ID     int
	Region *Region
	Alloc  *Allocator
}

// NewServer creates a memory server with a region of the given byte size.
// The first reservedBytes bytes are left to the caller (e.g. for superblock
// metadata); the allocator manages the rest.
func NewServer(id, sizeBytes, reservedBytes int) *Server {
	return NewServerOn(id, NewRegion(sizeBytes), reservedBytes)
}

// NewServerOn creates a memory server over an existing region, reserving
// its first reservedBytes bytes like NewServer.
func NewServerOn(id int, r *Region, reservedBytes int) *Server {
	return &Server{
		ID:     id,
		Region: r,
		Alloc:  NewAllocator(uint64(reservedBytes), r.Size()),
	}
}

// Fabric is the server-side view of a transport: the set of memory servers
// and the RPC handler dispatched on them.
type Fabric interface {
	NumServers() int
	Server(i int) *Server
	// SetHandler installs the RPC handler executed for Call requests on
	// every server. It must be called before any Call is issued.
	SetHandler(h Handler)
}

// NopEnv is an Env that performs no accounting; used by real-time transports
// and setup paths.
type NopEnv struct{}

// Charge implements Env.
func (NopEnv) Charge(int64) {}

// Pause implements Env.
func (NopEnv) Pause() {}
