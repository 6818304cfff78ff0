// Package core implements the paper's contribution: quality-driven,
// adaptive disorder handling for continuous queries over out-of-order
// streams.
//
// Instead of a hand-tuned slack, the user states a bound θ on result
// quality — relative error of window aggregates (AQKSlack) or recall of
// window joins (AQJoin). A feedback loop keeps the slack K of an internal
// K-slack buffer at (approximately) the smallest value that still meets
// the bound:
//
//  1. a lateness sketch (Greenwald–Khanna quantile summary over observed
//     tuple lateness) yields P(lateness > K) for any candidate K;
//  2. an aggregate-specific error model maps the induced tuple-loss
//     probability to an expected relative window error over a reservoir
//     sample of recent tuple values: in closed form from the sample's
//     moments for sum, count and avg, and by a Monte-Carlo simulation on
//     common random numbers for every other aggregate (and wherever the
//     closed form's normal approximation does not hold);
//  3. a proportional–integral (PI) controller trims the model's choice
//     using the realized error, measured a posteriori: stragglers
//     eventually arrive, so the true value of each emitted window becomes
//     known after a feedback horizon and the error actually made is
//     observable.
//
// The baselines this is evaluated against live in internal/buffer.
package core

import (
	"math"

	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/window"
)

// Estimator predicts the relative window-aggregate error that a given
// slack K would cause, from the observed lateness distribution and a
// sample of recent tuple values.
type Estimator struct {
	spec     window.Spec
	agg      window.Factory
	lateness *stats.GK
	values   *stats.Reservoir
	winCount *stats.EWMA // tuples per window
	rng      *stats.RNG
	trials   int
	observed int64

	kind      errKind
	crnSeed   uint64   // seed of the current draw set; 0 until the first one
	crnWindow int      // simulated window size of the current draw set
	draws     []uint64 // trials × crnWindow draws expanded from crnSeed
	drawn     bool     // draws matches (crnSeed, crnWindow)
	envBuf    []float64
}

// EstimatorConfig parameterizes NewEstimator. Zero values select defaults.
type EstimatorConfig struct {
	SketchEps     float64 // GK rank error; default 0.005
	ReservoirSize int     // value sample size; default 512
	MCTrials      int     // simulated windows per draw set; default 16
	CountAlpha    float64 // EWMA factor for window tuple count; default 0.2
	Seed          uint64
}

func (c EstimatorConfig) withDefaults() EstimatorConfig {
	if c.SketchEps == 0 {
		c.SketchEps = 0.005
	}
	if c.ReservoirSize == 0 {
		// Large enough that values appearing at ~0.1% frequency (rare
		// spikes that dominate max/stddev) are present in the sample.
		c.ReservoirSize = 4096
	}
	if c.MCTrials == 0 {
		c.MCTrials = 16
	}
	if c.CountAlpha == 0 {
		c.CountAlpha = 0.2
	}
	return c
}

// NewEstimator returns an estimator for the given window spec and
// aggregate.
func NewEstimator(spec window.Spec, agg window.Factory, cfg EstimatorConfig) *Estimator {
	cfg = cfg.withDefaults()
	rng := stats.NewRNG(cfg.Seed ^ 0x9e3779b97f4a7c15)
	return &Estimator{
		spec:     spec,
		agg:      agg,
		lateness: stats.NewGK(cfg.SketchEps),
		values:   stats.NewReservoir(cfg.ReservoirSize, rng),
		winCount: stats.NewEWMA(cfg.CountAlpha),
		rng:      rng,
		trials:   cfg.MCTrials,
		kind:     errKindOf(agg),
	}
}

// ObserveTuple records one tuple's lateness (>= 0, in stream-time units)
// and value.
func (e *Estimator) ObserveTuple(lateness float64, value float64) {
	if lateness < 0 {
		lateness = 0
	}
	e.lateness.Add(lateness)
	e.values.Add(value)
	e.observed++
}

// ObserveWindowCount records the (eventually complete) tuple count of a
// finished window, feeding the per-window size estimate.
func (e *Estimator) ObserveWindowCount(n int64) {
	if n > 0 {
		e.winCount.Add(float64(n))
	}
}

// Observations returns how many tuples the estimator has seen.
func (e *Estimator) Observations() int64 { return e.observed }

// PLate returns the estimated probability that a tuple's lateness exceeds
// k — i.e. that a K-slack buffer with slack k would forward it as a
// straggler.
func (e *Estimator) PLate(k stream.Time) float64 {
	return e.lateness.FracAbove(float64(k))
}

// PLoss returns the estimated probability that a (tuple, window)
// contribution is lost at slack k. It is strictly tighter than PLate: a
// tuple with event time ts contributing to window [s, s+Size) is lost only
// if it is later than k plus the gap between ts and the window's end —
// tuples early in a window have the whole remaining window length as
// additional headroom. With windows every Slide, the gap of a uniformly
// placed tuple takes the values (j+½)·Slide for j = 0..Size/Slide−1, so we
// average P(L > k + gap) over them.
func (e *Estimator) PLoss(k stream.Time) float64 {
	m := int(e.spec.Size / e.spec.Slide)
	if m <= 0 {
		m = 1
	}
	var sum float64
	for j := 0; j < m; j++ {
		gap := float64(j)*float64(e.spec.Slide) + float64(e.spec.Slide)/2
		sum += e.lateness.FracAbove(float64(k) + gap)
	}
	return sum / float64(m)
}

// WindowCount returns the estimated tuples per window (at least 1).
func (e *Estimator) WindowCount() int {
	n := int(math.Round(e.winCount.Value()))
	if n < 1 {
		// Fall back to rate-based estimate: window size over a guessed
		// inter-arrival of 1 would overshoot; just use the sample size.
		n = e.values.Len()
	}
	if n < 1 {
		n = 1
	}
	return n
}

// EstimateErr predicts the expected relative window error at slack k:
// the error model (see errModel) evaluated at the loss probability
// PLoss(k). It runs no fresh simulation: the closed-form aggregates need
// no randomness, and the simulated ones reuse the draw set of the last
// MaxTolerableLoss refresh (an estimator that has not refreshed yet
// starts one).
func (e *Estimator) EstimateErr(k stream.Time) float64 {
	return e.model().err(e.PLoss(k), 1)
}

func (e *Estimator) estimateErrAt(p float64) float64 {
	return e.model().err(p, 1)
}

// EstimateShedErr predicts the relative window error of uniform shedding
// at probability p. With compensated set, survivor values are scaled by
// 1/(1−p) (Horvitz–Thompson): unbiased for linear aggregates like sum —
// only sampling variance remains — while distorting location and extreme
// statistics (avg, min, max, quantiles), which the model reports
// faithfully. Count cannot be value-compensated; its error stays p
// either way.
func (e *Estimator) EstimateShedErr(p float64, compensated bool) float64 {
	return e.model().err(p, shedScale(p, compensated))
}

func shedScale(p float64, compensated bool) float64 {
	if compensated && p < 1 {
		return 1 / (1 - p)
	}
	return 1
}

// MaxTolerableShed inverts EstimateShedErr: the largest shedding
// probability (at most 0.99 — total shedding is never sensible) whose
// estimated error stays within target. Like MaxTolerableLoss it starts a
// fresh draw set.
func (e *Estimator) MaxTolerableShed(target float64, compensated bool) float64 {
	if target <= 0 {
		return 0
	}
	e.redraw()
	m := e.model()
	if !compensated {
		m.tabulate()
	}
	return maxWithin(target, 0.99, func(p float64) float64 { return m.err(p, shedScale(p, compensated)) })
}

// MaxTolerableLoss inverts the error model: it returns the largest
// (tuple, window) loss probability whose estimated relative error stays
// within target. This is the expensive half of slack selection, and its
// result depends only on the value distribution and window size, which
// drift slowly; AQKSlack caches it across adaptation steps. Each call
// starts a fresh draw set for the simulated aggregates, which every probe
// of the bisection — and every EstimateErr until the next call — shares.
func (e *Estimator) MaxTolerableLoss(target float64) float64 {
	if target <= 0 {
		return 0
	}
	e.redraw()
	m := e.model()
	m.tabulate()
	return maxWithin(target, 1, func(p float64) float64 { return m.err(p, 1) })
}

// maxWithin bisects for the largest p in [0, hi] with err(p) <= target.
// The error model is non-decreasing in p — the closed forms analytically,
// the simulated aggregates by construction (see errModel.simulate), the
// closed-form aggregates' fallback in expectation — so bisection applies.
func maxWithin(target, hi float64, err func(float64) float64) float64 {
	if err(hi) <= target {
		return hi
	}
	lo := 0.0 // invariant: err(lo) <= target < err(hi)
	for i := 0; i < 12; i++ {
		mid := (lo + hi) / 2
		if err(mid) <= target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// relErrEst mirrors metrics.RelErr without importing it (core must not
// depend on the measurement package).
func relErrEst(e, o float64) float64 {
	eNaN, oNaN := math.IsNaN(e), math.IsNaN(o)
	switch {
	case eNaN && oNaN:
		return 0
	case eNaN || oNaN:
		return 1
	}
	den := math.Abs(o)
	if den < 1e-9 {
		den = 1e-9
	}
	return math.Abs(e-o) / den
}

// MinKForLoss returns the smallest slack in [0, kMax] whose loss
// probability PLoss(k) is at most pMax. PLoss is non-increasing in k, so
// bisection applies; probes only query the lateness sketch, making this
// the cheap, every-adaptation half of slack selection.
func (e *Estimator) MinKForLoss(pMax float64, kMax stream.Time) stream.Time {
	if kMax <= 0 || e.PLoss(0) <= pMax {
		return 0
	}
	lo, hi := stream.Time(0), kMax // invariant: PLoss(lo) > pMax
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if e.PLoss(mid) <= pMax {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// MinK returns the smallest slack in [0, kMax] whose estimated relative
// error meets target: the composition of MaxTolerableLoss and
// MinKForLoss.
func (e *Estimator) MinK(target float64, kMax stream.Time) stream.Time {
	return e.MinKForLoss(e.MaxTolerableLoss(target), kMax)
}
