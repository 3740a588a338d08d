package main

import (
	"math"
	"testing"

	"github.com/namdb/rdmatree/internal/stats"
)

func near(got, want, tol float64) bool { return math.Abs(got-want) <= tol*math.Abs(want) }

func TestBatchRateIsMedianOfBatches(t *testing.T) {
	// 9 batches of 1000 ops at 10 ms and one 500 ms outlier (a GC pause): the
	// mean rate halves, the median-of-batches rate must not move.
	batches := []float64{10e6, 10e6, 10e6, 10e6, 500e6, 10e6, 10e6, 10e6, 10e6, 10e6}
	if got := batchRate(1000, batches); got != 100_000 {
		t.Fatalf("batchRate = %v, want 100000", got)
	}
	if got := batchRate(1000, nil); got != 0 {
		t.Fatalf("batchRate of no batches = %v, want 0", got)
	}
	// Even count: the mean of the two middle batch times.
	if got := batchRate(100, []float64{1e9, 3e9}); got != 50 {
		t.Fatalf("batchRate of {1s,3s} = %v, want 50", got)
	}
}

func TestQuantileOf(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for q, want := range map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.75: 4, 1: 5} {
		if got := quantileOf(xs, q); got != want {
			t.Errorf("quantileOf(%v) = %v, want %v", q, got, want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantileOf sorted its argument in place")
	}
}

func TestLatHistQuantiles(t *testing.T) {
	// A uniform ramp 1..100000 ns: every quantile is known, and must come
	// back within the histogram's 0.8 % bucket width — not at a bucket edge.
	var h latHist
	for v := int64(1); v <= 100_000; v++ {
		h.record(v)
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99} {
		want := q * 100_000
		if got := h.quantile(q); !near(got, want, 0.008) {
			t.Errorf("quantile(%v) = %v, want %v within 0.8%%", q, got, want)
		}
	}
	// Two kinds in one histogram is what the harness never does; per kind the
	// median of a bimodal mix sits inside one mode.
	var point, scan latHist
	for i := 0; i < 1000; i++ {
		point.record(38_000 + int64(i))
		scan.record(300_000 + int64(i))
	}
	if got := point.quantile(0.5); !near(got, 38_500, 0.01) {
		t.Errorf("point median = %v, want ~38500", got)
	}
	if got := scan.quantile(0.5); !near(got, 300_500, 0.01) {
		t.Errorf("scan median = %v, want ~300500", got)
	}
	var empty latHist
	if got := empty.quantile(0.5); got != 0 {
		t.Errorf("empty histogram median = %v, want 0", got)
	}
}

func TestHistBucketsTile(t *testing.T) {
	// Every value lands in the bucket whose [low, nextLow) holds it.
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 1000, 37_597, 1 << 20, 1<<30 + 12345} {
		i := histBucket(v)
		if lo, hi := histLow(i), histLow(i+1); float64(v) < lo || float64(v) >= hi {
			t.Errorf("value %d in bucket %d = [%v,%v)", v, i, lo, hi)
		}
	}
}

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int64
		want float64
	}{
		{5, 0.50}, {19, 0.50}, {20, 0.50}, {39, 0.50}, {40, 0.75}, {99, 0.75},
		{100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {700_000, 0.99},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestStatsQuantileInterpolates(t *testing.T) {
	var h stats.Histogram
	for v := int64(40_000); v < 50_000; v++ {
		h.Record(v)
	}
	snap := h.Snapshot()
	got := statsQuantile(snap, 0.5)
	// The repo's own estimate is the lower edge of the bucket holding the
	// median; the interpolated one lies in that bucket, close to the truth.
	if edge := float64(snap.Percentile(50)); got < edge {
		t.Errorf("interpolated median %v below its bucket's edge %v", got, edge)
	}
	if !near(got, 45_000, 0.02) {
		t.Errorf("interpolated median = %v, want ~45000", got)
	}
}

// fakeClock hands out the timestamps a test scripts.
type fakeClock struct {
	t     *testing.T
	times []int64
}

func (c *fakeClock) now() int64 {
	if len(c.times) == 0 {
		c.t.Fatal("span log read the clock more often than scripted")
	}
	v := c.times[0]
	c.times = c.times[1:]
	return v
}

func TestSpanSelfTimeSubtractsChildren(t *testing.T) {
	// op [0,100] → client [10,90] → verb [20,40], verb [50,80].
	clk := &fakeClock{t: t, times: []int64{0, 10, 20, 40, 50, 80, 90, 100}}
	l := newSpanLogClock(clk.now)
	op, client, verb := l.layer("op.point"), l.layer("fine"), l.layer("tcpnet.readmulti")
	l.op = 7
	l.begin(op)
	l.begin(client)
	l.begin(verb)
	l.end()
	l.begin(verb)
	l.end()
	l.end()
	l.end()

	for name, want := range map[string]int64{"op.point": 20, "fine": 30, "tcpnet.": 50} {
		if got, _ := l.selfNS(name); got != want {
			t.Errorf("self time of %q = %d, want %d", name, got, want)
		}
	}
	if _, n := l.selfNS("tcpnet."); n != 2 {
		t.Errorf("tcpnet spans = %d, want 2", n)
	}
	opNS, selfNS := l.opTotals()
	if opNS != 100 || selfNS != 100 {
		t.Errorf("op total %d, self sum %d: want 100 and 100", opNS, selfNS)
	}
	if len(l.spans) != 4 {
		t.Fatalf("stored %d spans, want 4", len(l.spans))
	}
	// Parents point at the causing span; every span carries the op id.
	for i, want := range []int32{-1, 0, 1, 1} {
		if l.spans[i].Parent != want || l.spans[i].Op != 7 {
			t.Errorf("span %d: parent %d op %d, want parent %d op 7", i, l.spans[i].Parent, l.spans[i].Op, want)
		}
	}
	if s := l.spans[3]; s.Start != 50 || s.End != 80 {
		t.Errorf("second verb span = [%d,%d], want [50,80]", s.Start, s.End)
	}
}

func TestSpanLogOffRecordsNothing(t *testing.T) {
	clk := &fakeClock{t: t} // any clock read fails the test
	l := newSpanLogClock(clk.now)
	id := l.layer("tcpnet.read")
	l.off = true
	l.begin(id)
	l.end()
	if l.total != 0 || len(l.open) != 0 {
		t.Errorf("suspended log recorded %d spans, %d open", l.total, len(l.open))
	}
}
