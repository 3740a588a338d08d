package nam

import (
	"encoding/binary"
	"fmt"

	"github.com/namdb/rdmatree/internal/partition"
	"github.com/namdb/rdmatree/internal/rdma"
)

// Design enumerates the three index designs of the paper.
type Design int

// The three designs.
const (
	// CoarseGrained is Design 1 (Section 3): per-server partitioned trees,
	// two-sided RPC access.
	CoarseGrained Design = iota
	// FineGrained is Design 2 (Section 4): one global tree with nodes
	// round-robin across servers, one-sided access.
	FineGrained
	// Hybrid is Design 3 (Section 5): partitioned upper levels accessed by
	// RPC, fine-grained leaves accessed one-sided.
	Hybrid
)

// String implements fmt.Stringer.
func (d Design) String() string {
	switch d {
	case CoarseGrained:
		return "coarse-grained"
	case FineGrained:
		return "fine-grained"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("Design(%d)", int(d))
	}
}

// Name returns the design's short name — "coarse", "fine" or "hybrid" —
// as command-line flags and metric labels spell it.
func (d Design) Name() string {
	switch d {
	case CoarseGrained:
		return "coarse"
	case FineGrained:
		return "fine"
	case Hybrid:
		return "hybrid"
	default:
		return "unknown"
	}
}

// ParseDesign parses a design's short name (see Name).
func ParseDesign(name string) (Design, error) {
	for _, d := range []Design{CoarseGrained, FineGrained, Hybrid} {
		if d.Name() == name {
			return d, nil
		}
	}
	return 0, fmt.Errorf("nam: unknown design %q (want coarse, fine or hybrid)", name)
}

// PartitionKind names the coarse-grained partitioning function.
type PartitionKind int

// Partitioning schemes (Section 2.2).
const (
	PartRange PartitionKind = iota
	PartHash
)

// Catalog is the metadata a compute server needs to access one distributed
// index — in the paper this is served by the catalog service consulted
// during query compilation. Root pointers are per memory server for the
// coarse-grained and hybrid designs (one tree per server) and a single
// global entry for the fine-grained design.
type Catalog struct {
	Design    Design
	PageBytes int
	// RootWords holds the location of each tree's root-pointer word:
	// indexed by server for CoarseGrained/Hybrid, a single entry for
	// FineGrained.
	RootWords []rdma.RemotePtr
	// Partition describes the coarse-grained key partitioning; nil for
	// FineGrained.
	PartKind PartitionKind
	// RangeBounds are the split points of range partitioning (PartRange).
	RangeBounds []uint64
	// Servers is the number of memory servers.
	Servers int
	// Replicas is the page-replication factor k (0 and 1 both mean
	// unreplicated). With k >= 2 every server's pages are mirrored onto the
	// k-1 following servers per the ReplicaLayout slab scheme.
	Replicas int
	// RegionBytes is the uniform registered-region size, needed by clients
	// to reconstruct the replicated slab geometry. Zero when unreplicated.
	RegionBytes uint64
}

// NewCatalog describes design deployed over servers memory servers: one
// tree per server partitioned by part (coarse-grained, hybrid), or one
// global tree rooted on server 0 (fine-grained; part is ignored). Root
// words sit in the superblock or, replicated, in each group's slot of the
// reserved replica prefix, present on every member to survive a failover.
func NewCatalog(design Design, pageBytes, servers, replicas int, regionBytes uint64, part partition.Partitioner) *Catalog {
	c := &Catalog{
		Design:      design,
		PageBytes:   pageBytes,
		Servers:     servers,
		Replicas:    replicas,
		RegionBytes: regionBytes,
	}
	root := RootWordPtr
	if c.Replicated() {
		root = GroupRootPtr
	}
	if design == FineGrained {
		c.RootWords = []rdma.RemotePtr{root(0)}
		return c
	}
	for i := 0; i < servers; i++ {
		c.RootWords = append(c.RootWords, root(i))
	}
	switch p := part.(type) {
	case *partition.Range:
		c.PartKind = PartRange
		c.RangeBounds = p.Bounds()
	case *partition.Hash:
		c.PartKind = PartHash
	default:
		panic(fmt.Sprintf("nam: unsupported partitioner %T", part))
	}
	return c
}

// FetchCatalog asks server's RPC handler for the catalog (OpCatalog), as a
// compute server consults the catalog service.
func FetchCatalog(ep rdma.Endpoint, server int) (*Catalog, error) {
	raw, err := ep.Call(server, (&Request{Op: OpCatalog}).Encode())
	if err != nil {
		return nil, err
	}
	resp, err := DecodeResponse(raw)
	if err != nil {
		return nil, err
	}
	if err := resp.AsError(); err != nil {
		return nil, err
	}
	return DecodeCatalog(UnpackBytes(resp.Pairs))
}

// Partitions returns the number of key partitions: one per server for the
// coarse-grained and hybrid designs, none for the fine-grained design's
// single global tree.
func (c *Catalog) Partitions() int {
	if c.Design == FineGrained {
		return 0
	}
	return c.Servers
}

// Replicated reports whether the deployment runs with page replication.
func (c *Catalog) Replicated() bool { return c.Replicas >= 2 }

// Layout reconstructs the replicated slab layout from the catalog. It
// panics if the catalog is unreplicated; check Replicated first.
func (c *Catalog) Layout() ReplicaLayout {
	return NewReplicaLayout(c.Servers, c.Replicas, c.RegionBytes)
}

// Partitioner materializes the catalog's partitioning function.
func (c *Catalog) Partitioner() partition.Partitioner {
	switch c.PartKind {
	case PartHash:
		return partition.NewHash(c.Servers)
	default:
		return rangeFromBounds(c.RangeBounds)
	}
}

// rangeFromBounds rebuilds a range partitioner from serialized bounds.
func rangeFromBounds(bounds []uint64) partition.Partitioner {
	// partition.Range has no exported constructor from raw bounds; rebuild
	// via weighted construction on the bounds themselves.
	return partition.NewRangeFromBounds(bounds)
}

// Encode serializes the catalog (for the OpCatalog RPC of the TCP transport).
func (c *Catalog) Encode() []byte {
	buf := make([]byte, 0, 64)
	buf = append(buf, byte(c.Design), byte(c.PartKind))
	buf = order.AppendUint32(buf, uint32(c.PageBytes))
	buf = order.AppendUint32(buf, uint32(c.Servers))
	buf = order.AppendUint32(buf, uint32(len(c.RootWords)))
	for _, p := range c.RootWords {
		buf = order.AppendUint64(buf, uint64(p))
	}
	buf = order.AppendUint32(buf, uint32(len(c.RangeBounds)))
	for _, b := range c.RangeBounds {
		buf = order.AppendUint64(buf, b)
	}
	// Replication trailer (appended so pre-replication decoders, which stop
	// after the bounds, still parse the prefix).
	buf = order.AppendUint32(buf, uint32(c.Replicas))
	buf = order.AppendUint64(buf, c.RegionBytes)
	return buf
}

// DecodeCatalog parses a serialized catalog.
func DecodeCatalog(b []byte) (*Catalog, error) {
	if len(b) < 2+4+4+4 {
		return nil, fmt.Errorf("nam: short catalog")
	}
	c := &Catalog{Design: Design(b[0]), PartKind: PartitionKind(b[1])}
	c.PageBytes = int(order.Uint32(b[2:]))
	c.Servers = int(order.Uint32(b[6:]))
	off := 10
	nr := int(order.Uint32(b[off:]))
	off += 4
	if len(b) < off+8*nr+4 {
		return nil, fmt.Errorf("nam: truncated catalog roots")
	}
	for i := 0; i < nr; i++ {
		c.RootWords = append(c.RootWords, rdma.RemotePtr(binary.LittleEndian.Uint64(b[off:])))
		off += 8
	}
	nb := int(order.Uint32(b[off:]))
	off += 4
	if len(b) < off+8*nb {
		return nil, fmt.Errorf("nam: truncated catalog bounds")
	}
	for i := 0; i < nb; i++ {
		c.RangeBounds = append(c.RangeBounds, binary.LittleEndian.Uint64(b[off:]))
		off += 8
	}
	// Optional replication trailer: absent in catalogs encoded before page
	// replication existed, so tolerate truncation here.
	if len(b) >= off+4 {
		c.Replicas = int(order.Uint32(b[off:]))
		off += 4
		if len(b) >= off+8 {
			c.RegionBytes = order.Uint64(b[off:])
		}
	}
	return c, nil
}

// SuperblockBytes is the reserved region at the start of every memory
// server: word 0 holds the root-pointer word of the server's tree (or of the
// global tree on server 0 for the fine-grained design).
const SuperblockBytes = 64

// RootWordPtr returns the conventional root-word location on a server.
func RootWordPtr(server int) rdma.RemotePtr { return rdma.MakePtr(server, 0) }
