//go:build !linux

package rdma

// NewMappedRegion returns a zeroed region of the given size in bytes. Where
// no lazily committed anonymous mapping is available it is a heap region.
func NewMappedRegion(sizeBytes int) (*Region, error) { return NewRegion(sizeBytes), nil }
