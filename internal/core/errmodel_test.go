package core

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/stats"
	"repro/internal/window"
)

// valueEstimator returns an estimator of agg that has seen vals (with no
// lateness) and windows of n tuples.
func valueEstimator(agg window.Factory, vals []float64, n int64, trials int) *Estimator {
	e := NewEstimator(window.Spec{Size: 10, Slide: 10}, agg, EstimatorConfig{Seed: 1, MCTrials: trials})
	for _, v := range vals {
		e.ObserveTuple(0, v)
	}
	e.ObserveWindowCount(n)
	return e
}

func sensorValues(n int) []float64 {
	var vs []float64
	for _, tp := range gen.Sensor(n, 5).Events() {
		vs = append(vs, tp.Value)
	}
	return vs
}

var lossGrid = []float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5}

// TestClosedFormMatchesSimulation checks the closed forms for sum, count
// and avg against a 4096-trial simulation over the same value sample,
// for plain loss and compensated shedding, wherever their guard admits
// them on sensor values. On zero-mean heavy-tailed values the guard must
// send sum and avg to the simulation.
func TestClosedFormMatchesSimulation(t *testing.T) {
	sensor := sensorValues(20000)
	rng := stats.NewRNG(9)
	heavy := make([]float64, 20000)
	for i := range heavy {
		// Symmetric Pareto(α=1.5): zero mean, infinite variance.
		v := math.Pow(1-rng.Float64(), -1/1.5)
		if rng.Float64() < 0.5 {
			v = -v
		}
		heavy[i] = v
	}
	for _, agg := range []window.Factory{window.Sum(), window.Count(), window.Avg()} {
		m := valueEstimator(agg, sensor, 500, 4096).model()
		hv := valueEstimator(agg, heavy, 500, 16).model()
		for _, compensated := range []bool{false, true} {
			closed := 0
			for _, p := range lossGrid {
				scale := shedScale(p, compensated)
				if _, ok := hv.closedForm(p, scale); ok && agg.Name != "count" {
					t.Errorf("%s compensated=%v p=%v: closed form accepted zero-mean heavy-tailed values",
						agg.Name, compensated, p)
				}
				got, ok := m.closedForm(p, scale)
				if !ok {
					continue
				}
				closed++
				// The simulation's own noise at 4096 trials is ~2%.
				if want := m.simulate(p, scale); math.Abs(got-want) > 0.06*want {
					t.Errorf("%s compensated=%v p=%v: closed form %.6g, simulation %.6g",
						agg.Name, compensated, p, got, want)
				}
			}
			if closed == 0 {
				t.Errorf("%s compensated=%v: closed form never applied to sensor values", agg.Name, compensated)
			}
		}
	}
}

// TestSimulatedErrNonDecreasingInP checks that the simulated estimate is
// non-decreasing in p by construction, for an aggregate whose error only
// grows as tuples are removed (max) and one whose error does not (p95),
// and that the table MaxTolerableLoss probes agrees with the per-probe
// walk EstimateErr takes.
func TestSimulatedErrNonDecreasingInP(t *testing.T) {
	vals := sensorValues(20000)
	for _, agg := range []window.Factory{window.Max(), window.Quantile(0.95)} {
		walked := valueEstimator(agg, vals, 1000, 16).model()
		tabled := valueEstimator(agg, vals, 1000, 16).model()
		tabled.tabulate()
		prev := 0.0
		for p := 0.0005; p < 1; p *= 1.05 {
			got := walked.err(p, 1)
			if got < prev {
				t.Errorf("%s: err(%.5f) = %.6g below the previous %.6g", agg.Name, p, got, prev)
			}
			if tab := tabled.err(p, 1); tab != got {
				t.Errorf("%s: tabulated err(%.5f) = %.6g, walked %.6g", agg.Name, p, tab, got)
			}
			prev = got
		}
	}
}
