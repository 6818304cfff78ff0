package main

import (
	"math"
	"testing"
)

// TestTailPercentile pins the rule that a tail percentile is reported
// only with at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},       // even the median has only 9 beyond
		{20, 0.50, true},     // median: 10 beyond
		{100, 0.90, true},    // p90 leaves 10, p95 only 5
		{256, 0.95, true},    // the final-256 window sets: p95 leaves 12, p99 only 2
		{999, 0.95, true},    // p99 leaves 9
		{1000, 0.99, true},   // p99 leaves 10
		{9999, 0.99, true},   // p99.9 leaves 9
		{10000, 0.999, true}, // p99.9 leaves 10
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if ok != c.ok || got != c.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if c.ok && beyond(c.n, got) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d beyond", c.n, got*100, beyond(c.n, got))
		}
	}
	if !supports(256, 0.95) || supports(256, 0.99) || !supports(256, 0.5) {
		t.Error("256 samples must carry p50 and p95 but not p99")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 256)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 256..1, unsorted
	}
	if got := percentile(xs, 0.95); got != 244 {
		t.Errorf("p95 of 1..256 = %v, want 244 (12 samples beyond)", got)
	}
	if got := percentile(xs, 0.5); got != 128 {
		t.Errorf("p50 of 1..256 = %v, want 128", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}
}

// TestWorstQuery checks that a workload figure is its worst query's and
// that a query too small for the percentile refuses the figure.
func TestWorstQuery(t *testing.T) {
	fast := make([]float64, 256)
	slow := make([]float64, 256)
	for i := range fast {
		fast[i], slow[i] = 200, 2000
	}
	if v, ok := worst([][]float64{fast, slow}, 0.5, percentile); !ok || v != 2000 {
		t.Errorf("worst p50 = %v, %v; want 2000", v, ok)
	}
	if _, ok := worst([][]float64{fast, slow[:100]}, 0.95, percentile); ok {
		t.Error("100 samples cannot carry p95")
	}
}

// TestMsPercentile checks the grouped-data reading of whole-ms samples:
// the percentile lands inside its value's 1 ms interval in proportion to
// how far its rank reaches into that value's ties.
func TestMsPercentile(t *testing.T) {
	// 100 samples: 40 at 10 ms, 50 at 11 ms, 10 at 12 ms.
	var xs []float64
	for i := 0; i < 100; i++ {
		switch {
		case i < 40:
			xs = append(xs, 10)
		case i < 90:
			xs = append(xs, 11)
		default:
			xs = append(xs, 12)
		}
	}
	cases := []struct{ p, want float64 }{
		{0.20, 10.5}, // rank 20 of the 40 at 10 ms
		{0.50, 11.2}, // rank 50: 10 into the 50 at 11 ms
		{0.95, 12.5}, // rank 95: 5 into the 10 at 12 ms
	}
	for _, c := range cases {
		got, v := msPercentile(xs, c.p), percentile(xs, c.p)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("msPercentile(p%v) = %v, want %v", c.p*100, got, c.want)
		}
		if got < v || got > v+1 {
			t.Errorf("p%v = %v left the [%v, %v] interval", c.p*100, got, v, v+1)
		}
	}
}

// TestScheduleLag runs the lag formula over a synthetic schedule: 1000
// tuples/s offered for 2 s, a server that keeps up except for a 100 ms
// stall at t=1 s, polled every 10 ms.
func TestScheduleLag(t *testing.T) {
	const rate, total = 1000.0, int64(2000)
	processedAt := func(el float64) int64 {
		p := rate * el
		if el >= 1.0 && el < 1.1 {
			p = rate * 1.0 // stalled
		} else if el >= 1.1 {
			p = rate * math.Max(1.0, el-0.1+0.1*(el-1.1)/0.9) // drains the backlog by 2 s
		}
		return int64(math.Min(p, float64(total)))
	}
	var lags []float64
	for i := 0; i <= 200; i++ {
		el := float64(i) / 100
		lags = append(lags, scheduleLagMS(el, rate, total, processedAt(el)))
	}
	if lags[50] > 1 {
		t.Errorf("lag while keeping up = %v ms, want < 1", lags[50])
	}
	if got := lags[109]; math.Abs(got-90) > 1 {
		t.Errorf("lag 90 ms into the stall = %v ms, want 90", got)
	}
	if got := lags[200]; got > 1 {
		t.Errorf("lag after draining = %v ms", got)
	}
	// The schedule, not the sender, is the reference: past the end of the
	// schedule due stays at total.
	if got := scheduleLagMS(5, rate, total, total-10); got != 10 {
		t.Errorf("lag after the schedule ended = %v ms, want 10", got)
	}
	if p99 := percentile(lags, 0.99); p99 < 80 {
		t.Errorf("p99 lag %v ms misses the stall", p99)
	}
}
