package main

import (
	"math"
	"math/bits"
	"sort"
)

// latHist is the harness's own latency histogram: log-linear buckets of
// 1/128 octave (0.8 % wide) with linear interpolation inside the bucket, so
// a percentile reads as a continuous value instead of a bucket edge.
// internal/stats.Histogram has 1/16-octave buckets — a 6 % step, wider than
// the 5 % bounds the p50 metrics carry — which is why it is not used here.
// Recording is one array increment: no allocation, no pointers for the GC.
type latHist struct {
	n      int64
	counts [histOctaves * histSub]uint32
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histOctaves = 40 // values up to 2^40 ns ≈ 18 min
)

func histBucket(v int64) int {
	if v < histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 - histSubBits
	idx := (exp+1)<<histSubBits + int(v>>uint(exp)) - histSub
	if idx >= histOctaves*histSub {
		idx = histOctaves*histSub - 1
	}
	return idx
}

// histLow returns the smallest value that lands in bucket idx.
func histLow(idx int) float64 {
	if idx < histSub {
		return float64(idx)
	}
	exp := idx>>histSubBits - 1
	return float64(int64(histSub+idx&(histSub-1)) << uint(exp))
}

func (h *latHist) record(ns int64) {
	h.counts[histBucket(ns)]++
	h.n++
}

// quantile returns the q-quantile (0 < q < 1) in nanoseconds, interpolated
// inside the bucket that holds the rank; 0 when the histogram is empty.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := histLow(i), histLow(i+1)
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return histLow(len(h.counts) - 1)
}

// tailLadder are the percentiles a tail figure may fall back to, highest
// first.
var tailLadder = []int64{99, 95, 90, 75, 50}

// tailQuantile picks the highest percentile of the ladder that still has at
// least ten samples beyond it: p99 needs 1000 samples, p95 200, and so on.
// With fewer than 20 samples even the median has under ten beyond it, and the
// median it stays. The quantile is returned so a report can say which one
// the value is.
func tailQuantile(n int64) float64 {
	for _, p := range tailLadder {
		if n*(100-p) >= 10*100 {
			return float64(p) / 100
		}
	}
	return 0.50
}

// median returns the median of xs (mean of the two middle values for an even
// count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return quantileOf(xs, 0.5)
}

// quantileOf is the linear-interpolation sample quantile (the "inclusive"
// method) of xs.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// batchRate is the median-of-batches throughput: every batch holds batchOps
// operations, so the rate is batchOps over the median batch duration. One
// slow batch (a GC cycle, a scheduler hiccup) moves a mean and leaves this
// where it was.
func batchRate(batchOps int, batchNS []float64) float64 {
	m := median(batchNS)
	if m <= 0 {
		return 0
	}
	return float64(batchOps) / (m / 1e9)
}
