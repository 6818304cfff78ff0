package core

import (
	"math"

	"repro/internal/stats"
	"repro/internal/window"
)

// This file holds the error model behind Estimator: the map from a
// (tuple, window) loss probability p to the expected relative error of
// one window aggregate. docs/ALGORITHMS.md §2 carries the derivations.
//
// Survivors of the thinning may be scaled by s (1 for plain loss,
// 1/(1−p) for Horvitz–Thompson compensated shedding). Sum, count and avg
// have a closed form over the moments of the value sample; every other
// aggregate — and the closed-form ones where the closed form's normal
// approximation does not hold — is simulated: synthetic windows resampled
// from the value sample, thinned at p, aggregated thinned vs. full.
//
// The simulation runs on common random numbers: one set of (index,
// uniform) draws per MaxTolerableLoss refresh, thresholded at every probe
// and at every EstimateErr until the next refresh. No probe calls the
// RNG, and the thinned sets are nested in p. The draw set is a pure
// function of (crnSeed, crnWindow), both part of EstimatorState, so a
// restored estimator re-expands the very draws the original was using.

// errKind selects the closed form an aggregate has, if any.
type errKind uint8

const (
	errSimulated errKind = iota
	errSum
	errCount
	errAvg
)

func errKindOf(agg window.Factory) errKind {
	switch agg.Name {
	case "sum":
		return errSum
	case "count":
		return errCount
	case "avg":
		return errAvg
	}
	return errSimulated
}

const (
	// maxSimWindow caps the simulated window size: beyond ~1k elements
	// the relative error of subset aggregates is insensitive to n for the
	// loss probabilities of interest, and the cap bounds the draw set.
	maxSimWindow = 1024
	// minTerms is the fewest expected dropped and surviving tuples per
	// window for which the closed forms' central-limit step holds: from
	// there on they track a 4096-trial simulation within a few percent
	// (TestClosedFormMatchesSimulation); at one expected drop the normal
	// approximation overstates the error by 15–30%.
	minTerms = 10
	// minMeanZ is how many standard deviations the window's full sum must
	// lie from zero for the closed forms to divide by its mean n·|μ|.
	minMeanZ = 10
)

// errModel evaluates the error model against one snapshot of the value
// sample. The moments and the simulated full-window aggregates are
// computed once per snapshot, so the probes of one bisection share them.
type errModel struct {
	e      *Estimator
	sample []float64 // aliases the reservoir: no Add during the model's use
	n      int       // estimated tuples per window, uncapped

	mean, m2 float64 // E[v], E[v²] over the sample
	sameSign bool    // no two sample values of opposite sign

	full []float64 // per-trial full-window aggregates, filled on demand
	env  []float64 // per-trial error envelopes; see tabulate
}

func (e *Estimator) model() *errModel {
	m := &errModel{e: e, sample: e.values.Sample(), n: e.WindowCount()}
	if e.kind == errSum || e.kind == errAvg {
		neg, pos := false, false
		for _, v := range m.sample {
			m.mean += v
			m.m2 += v * v
			neg = neg || v < 0
			pos = pos || v > 0
		}
		k := float64(len(m.sample))
		m.mean /= k
		m.m2 /= k
		m.sameSign = !neg || !pos
	}
	return m
}

// err returns the expected relative window error at loss probability p
// with survivors scaled by scale.
func (m *errModel) err(p, scale float64) float64 {
	if p <= 0 {
		return 0
	}
	if len(m.sample) == 0 {
		// No value information yet: fall back to the loss fraction, the
		// exact error of count and of a same-signed sum.
		return p
	}
	if v, ok := m.closedForm(p, scale); ok {
		return v
	}
	return m.simulate(p, scale)
}

// closedForm returns the model's expectation without simulation, or false
// where it does not hold and the caller must simulate. With survivors
// kept with probability 1−p and scaled by s, one tuple's contribution to
// the dropped mass D = Σ vᵢ(1 − s·bᵢ) has mean μ·c and second moment
// E[v²]·(c² + s²p(1−p)), c = 1 − s(1−p). The approximations fall back to
// simulation when
//
//   - fewer than minTerms tuples per window are expected to be dropped or
//     to survive: D (or the survivors' mean) is then a sum of a handful
//     of terms, not normal; or
//   - |μ|·√n < minMeanZ·σ: the full window's value itself strays near
//     zero, and dividing by its mean n·|μ| misstates the relative error
//     (zero-mean and heavy-tailed values).
func (m *errModel) closedForm(p, scale float64) (float64, bool) {
	switch m.e.kind {
	case errCount:
		// Count ignores values, so compensation cannot reach it: its error
		// is the dropped fraction, whose mean is p exactly.
		return p, true
	case errSum:
		if scale == 1 && m.sameSign {
			// Exact for any window size: D/S, the dropped share of a
			// same-signed mass, has mean p.
			return p, true
		}
	case errAvg:
	default:
		return 0, false
	}
	n := float64(m.n)
	sd := math.Sqrt(math.Max(m.m2-m.mean*m.mean, 0))
	if n*math.Min(p, 1-p) < minTerms || math.Abs(m.mean)*math.Sqrt(n) < minMeanZ*sd {
		return 0, false
	}
	if m.e.kind == errSum {
		// D is normal with mean n·μ·c and variance
		// n·(E[v²]·(c² + s²p(1−p)) − μ²c²); the relative error is the
		// folded-normal mean E|D| over the full sum n·|μ|.
		c := 1 - scale*(1-p)
		vD := n * (m.m2*(c*c+scale*scale*p*(1-p)) - m.mean*m.mean*c*c)
		return foldedNormalMean(n*m.mean*c, math.Sqrt(math.Max(vD, 0))) / (n * math.Abs(m.mean)), true
	}
	// Avg, by the delta method: the mean of the ≈ n(1−p) survivors of a
	// window of n is normal around μ with variance σ²·p/(n(1−p)), and
	// scaling moves it to s·μ.
	return foldedNormalMean((scale-1)*m.mean, scale*sd*math.Sqrt(p/(n*(1-p)))) / math.Abs(m.mean), true
}

// foldedNormalMean returns E|X| for X ~ N(mu, sd²).
func foldedNormalMean(mu, sd float64) float64 {
	if sd == 0 {
		return math.Abs(mu)
	}
	return sd*math.Sqrt(2/math.Pi)*math.Exp(-mu*mu/(2*sd*sd)) + mu*math.Erf(mu/(sd*math.Sqrt2))
}

// simulate estimates the error over the current draw set. Trial t's
// synthetic window is draws[t·w : (t+1)·w]; each draw packs a uniform
// (high 32 bits) and a sample index (low 32 bits, scaled onto the current
// sample). At loss probability p a trial keeps its first m draws, m the
// number of its uniforms at or above p·2³²: m is binomial(w, 1−p), and
// the first m of iid draws are a uniform random subset of that size. As
// p grows m only shrinks, so the kept sets are nested.
//
// For the aggregates without a closed form the plain-loss estimate is the
// trial's worst error at any loss up to p (see walk). It equals the error
// at p wherever removing tuples can only add error (max, min, distinct)
// and makes the estimate non-decreasing in p where it cannot (quantiles,
// stddev), so the bisection in maxWithin is exact. The closed-form
// aggregates' fallback, and compensated shedding, keep the plain
// estimate: the former must meet the closed form where the two hand
// over, and the latter's scale changes with p.
func (m *errModel) simulate(p, scale float64) float64 {
	draws, w := m.e.drawSet()
	cut := uint64(p * (1 << 32))
	envelope := m.e.kind == errSimulated && scale == 1
	var sum float64
	var env []float64
	for t := 0; t < m.e.trials; t++ {
		trial := draws[t*w : (t+1)*w]
		kept := 0
		for _, d := range trial {
			kept += 1 + int((int64(d>>32)-int64(cut))>>63) // d>>32 >= cut, without a branch
		}
		switch {
		case envelope && m.env != nil:
			sum += m.env[t*(w+1)+kept]
		case envelope:
			if env == nil {
				env = make([]float64, w+1)
			}
			m.walk(trial, kept, env)
			sum += env[kept]
		default:
			thin := m.e.agg.New()
			for _, d := range trial[:kept] {
				thin.Add(m.value(d) * scale)
			}
			sum += relErrEst(thin.Value(), m.fullValue(t))
		}
	}
	return sum / float64(m.e.trials)
}

// tabulate prepares the model for many plain-loss probes of an aggregate
// without a closed form: each trial is walked once from empty to full, and
// every later probe reads its estimate off the table.
func (m *errModel) tabulate() {
	if m.e.kind != errSimulated || len(m.sample) == 0 {
		return
	}
	draws, w := m.e.drawSet()
	need := m.e.trials * (w + 1)
	if cap(m.e.envBuf) < need {
		m.e.envBuf = make([]float64, need)
	}
	m.env = m.e.envBuf[:need]
	for t := 0; t < m.e.trials; t++ {
		m.walk(draws[t*w:(t+1)*w], 0, m.env[t*(w+1):(t+1)*(w+1)])
	}
}

// walk fills env[j], for j in [kept, w], with the trial's worst relative
// error over the windows trial[:j'], j' >= j — every loss up to the one
// that keeps j draws: it aggregates trial[:kept], re-admits the rest one
// by one, and rates every intermediate value against the final, full one.
func (m *errModel) walk(trial []uint64, kept int, env []float64) {
	agg := m.e.agg.New()
	for _, d := range trial[:kept] {
		agg.Add(m.value(d))
	}
	env[kept] = agg.Value()
	for j, d := range trial[kept:] {
		agg.Add(m.value(d))
		env[kept+j+1] = agg.Value()
	}
	full, worst := env[len(trial)], 0.0
	for j := len(trial); j >= kept; j-- {
		worst = max(worst, relErrEst(env[j], full))
		env[j] = worst
	}
}

// fullValue returns trial t's full-window aggregate; the first call
// computes every trial's.
func (m *errModel) fullValue(t int) float64 {
	if m.full == nil {
		draws, w := m.e.drawSet()
		m.full = make([]float64, m.e.trials)
		for i := range m.full {
			agg := m.e.agg.New()
			for _, d := range draws[i*w : (i+1)*w] {
				agg.Add(m.value(d))
			}
			m.full[i] = agg.Value()
		}
	}
	return m.full[t]
}

// value resolves a draw's sample index against the current sample.
func (m *errModel) value(d uint64) float64 {
	return m.sample[(d&math.MaxUint32)*uint64(len(m.sample))>>32]
}

// redraw starts a new draw set: a fresh seed from the estimator RNG and
// the current window size. The draws themselves are expanded lazily, so
// a closed-form aggregate that never simulates never pays for them.
func (e *Estimator) redraw() {
	e.crnSeed = e.rng.Uint64() | 1 // nonzero: zero marks "none yet"
	e.crnWindow = min(e.WindowCount(), maxSimWindow)
	e.drawn = false
}

// drawSet returns the current draws and the simulated window size,
// expanding them from the seed if needed. An estimator that has not
// refreshed yet — fresh, or restored from a snapshot taken before draw
// sets were persisted — starts one here.
func (e *Estimator) drawSet() ([]uint64, int) {
	if e.crnSeed == 0 {
		e.redraw()
	}
	if !e.drawn {
		need := e.trials * e.crnWindow
		if cap(e.draws) < need {
			e.draws = make([]uint64, need)
		}
		e.draws = e.draws[:need]
		rng := stats.NewRNG(e.crnSeed)
		for i := range e.draws {
			e.draws[i] = rng.Uint64()
		}
		e.drawn = true
	}
	return e.draws, e.crnWindow
}
