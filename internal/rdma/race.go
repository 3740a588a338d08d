//go:build race

package rdma

// raceEnabled selects the per-word atomic copies in Region's bulk accessors,
// so the race detector checks the concurrent paths instead of reporting the
// torn multi-word copies the protocol tolerates by design.
const raceEnabled = true
