//go:build !race

package rdma

// raceEnabled is false outside the race detector: Region's bulk accessors
// move each range as one memory move.
const raceEnabled = false
