package main

import "fmt"

// oracle predicts the index's answers from the operation stream. It encodes
// what core.Reference would hold after the same stream — the preload
// (key i → value i) plus every insert — in two pointer-free arrays, because
// the check runs between timed operations of a client that completes an op
// every 2 µs on direct-hybrid: core.Reference's per-lookup copy and its map
// of a million slices would cost more than the operation measured and feed
// the garbage collector that shares the box. The smoke test replays a stream
// into both and requires they agree.
//
// It relies on the generator's contract: inserts are duplicates of preloaded
// keys, and the n-th insert of client 0 carries value n.
type oracle struct {
	keys int
	// dups[k] is the number of inserted entries under key k.
	dups []uint16
	// insKey[n] is the key of the n-th insert (1-based; insKey[0] unused).
	insKey  []uint32
	inserts int64
}

func newOracle(keys int) *oracle {
	return &oracle{keys: keys, dups: make([]uint16, keys), insKey: make([]uint32, 1, 1<<16)}
}

func (o *oracle) insert(key, value uint64) {
	o.inserts++
	if value != uint64(o.inserts) || key >= uint64(o.keys) {
		panic(fmt.Sprintf("oracle: insert %d is (%d,%d): generator contract broken", o.inserts, key, value))
	}
	o.dups[key]++
	o.insKey = append(o.insKey, uint32(key))
}

// inserted reports whether v is the value of an insert under key.
func (o *oracle) inserted(key, v uint64) bool {
	return v >= 1 && v <= uint64(o.inserts) && uint64(o.insKey[v]) == key
}

// checkLookup requires vals to be exactly the preloaded value plus every
// inserted value of key, in any order. It returns "" or what is wrong.
func (o *oracle) checkLookup(key uint64, vals []uint64) string {
	if want := 1 + int(o.dups[key]); len(vals) != want {
		return fmt.Sprintf("%d values %v, want %d", len(vals), vals, want)
	}
	return o.checkMembers(key, vals)
}

// checkLookupLoose requires the preloaded value and nothing foreign; inserted
// values may be missing (still in flight).
func (o *oracle) checkLookupLoose(key uint64, vals []uint64) string {
	if len(vals) < 1 || len(vals) > 1+int(o.dups[key]) {
		return fmt.Sprintf("%d values %v, want 1..%d", len(vals), vals, 1+int(o.dups[key]))
	}
	return o.checkMembers(key, vals)
}

// checkMembers requires every value of vals to be the preloaded value or an
// inserted value of key, no more often than the stream put it there, and the
// preloaded value to be present. An insert's value can equal the key; such a
// value may appear twice.
func (o *oracle) checkMembers(key uint64, vals []uint64) string {
	if len(vals) == 1 && vals[0] == key {
		return ""
	}
	preload := false
	for _, v := range vals {
		allowed := 0
		if v == key {
			allowed++
			preload = true
		}
		if o.inserted(key, v) {
			allowed++
		}
		if allowed == 0 {
			return fmt.Sprintf("foreign value %d in %v", v, vals)
		}
		if n := countOf(vals, v); n > allowed {
			return fmt.Sprintf("value %d appears %d times in %v, want at most %d", v, n, vals, allowed)
		}
	}
	if !preload {
		return fmt.Sprintf("preloaded value missing from %v", vals)
	}
	return ""
}

func countOf(vals []uint64, v uint64) int {
	n := 0
	for _, w := range vals {
		if w == v {
			n++
		}
	}
	return n
}

// rangeCount is the number of entries with lo <= key <= hi.
func (o *oracle) rangeCount(lo, hi uint64) int64 {
	if hi >= uint64(o.keys) {
		hi = uint64(o.keys) - 1
	}
	if lo > hi {
		return 0
	}
	n := int64(hi - lo + 1)
	for _, d := range o.dups[lo : hi+1] {
		n += int64(d)
	}
	return n
}

// undupedFrom returns the first key >= k that has no inserted duplicate (the
// last key when there is none).
func (o *oracle) undupedFrom(k uint64) uint64 {
	for k < uint64(o.keys)-1 && o.dups[k] > 0 {
		k++
	}
	return k
}
