package main

import (
	"math"
	"sort"
)

// percentileLadder is the set of percentiles a timing may be reported
// at, lowest first.
var percentileLadder = []float64{0.50, 0.90, 0.95, 0.99, 0.999}

// minBeyond is how many samples must lie strictly above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// rankIndex is the nearest-rank index of percentile p in n sorted
// samples: the smallest index i with (i+1)/n >= p.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// beyond is the number of samples above the nearest-rank p-th percentile
// of n samples.
func beyond(n int, p float64) int { return n - 1 - rankIndex(n, p) }

// tailPercentile returns the highest percentile of the ladder that has at
// least minBeyond of n samples beyond it; ok is false when even the
// median does not (fewer than 2·minBeyond+1 samples).
func tailPercentile(n int) (p float64, ok bool) {
	for i := len(percentileLadder) - 1; i >= 0; i-- {
		if beyond(n, percentileLadder[i]) >= minBeyond {
			return percentileLadder[i], true
		}
	}
	return 0, false
}

// supports reports whether n samples carry percentile p: p is at or below
// the tail percentile tailPercentile selects for n.
func supports(n int, p float64) bool {
	tp, ok := tailPercentile(n)
	return ok && p <= tp
}

// percentile returns the nearest-rank p-th percentile of xs, leaving xs
// as it is. It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), p)]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// msPercentile is the p-th percentile of whole-millisecond samples, read
// as a continuous quantity: a sample v stands for the interval [v, v+1),
// and the percentile is placed inside its value's interval by how far
// rank p·n reaches into that value's run of ties (the grouped-data
// quantile). Stream time has 1 ms resolution, and a fixed slack puts most
// windows on the same few milliseconds, so the nearest-rank value alone
// would read the same on every seed.
func msPercentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v := percentile(xs, p)
	var below, at int
	for _, x := range xs {
		switch {
		case x < v:
			below++
		case x == v:
			at++
		}
	}
	return v + (p*float64(len(xs))-float64(below))/float64(at)
}

// lagBlock is how many consecutive lag samples one p99 is taken over.
const lagBlock = 1000

// blockP99 is the median, over consecutive blocks of lagBlock samples
// (a partial last block is dropped), of each block's p99: a lag p99 that
// one burst of interference on a shared host moves in one block only.
// ok is false with fewer than lagBlock samples.
func blockP99(xs []float64) (v float64, ok bool) {
	var p99s []float64
	for i := 0; i+lagBlock <= len(xs); i += lagBlock {
		p99s = append(p99s, percentile(xs[i:i+lagBlock], 0.99))
	}
	if len(p99s) == 0 {
		return 0, false
	}
	return median(p99s), true
}

// scheduleLagMS is the open-loop lag at one poll: how far, in ms of the
// offered rate, the slowest query trails the send schedule. due counts
// every tuple whose send time has passed by elapsedS seconds after the
// schedule started (capped at total), so a stalled generator shows up as
// lag too — the schedule, not the sender, is the reference.
func scheduleLagMS(elapsedS, rate float64, total, processed int64) float64 {
	due := rate * elapsedS
	if due > float64(total) {
		due = float64(total)
	}
	return (due - float64(processed)) / rate * 1000
}
