package rdma

import "syscall"

// NewMappedRegion returns a zeroed region of the given size in bytes
// (rounded up to a multiple of 8) over an anonymous private mapping without
// swap reservation: a page costs memory only once it is first written, so a
// region sized for the worst case costs what the data in it costs. Release
// unmaps it.
func NewMappedRegion(sizeBytes int) (*Region, error) {
	if sizeBytes < 0 {
		panic("rdma: negative region size")
	}
	n := (sizeBytes + 7) &^ 7
	if n == 0 {
		return NewRegion(0), nil
	}
	mem, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, err
	}
	return RegionOver(mem, syscall.Munmap), nil
}
