package core

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/window"
)

func TestPIStateContinuation(t *testing.T) {
	a := DefaultPI()
	for i := 0; i < 50; i++ {
		a.Update(float64(i%7-3) * 0.8) // drive through clamps and sign flips
	}
	b := &PI{} // gains come from the state, per the export contract
	b.Restore(a.State())
	for i := 0; i < 50; i++ {
		sig := float64(i%5-2) * 1.3
		if fa, fb := a.Update(sig), b.Update(sig); fa != fb {
			t.Fatalf("factor diverged at step %d: %v vs %v", i, fa, fb)
		}
	}
	if a.Clamps() != b.Clamps() || a.Integral() != b.Integral() || a.LastFactor() != b.LastFactor() {
		t.Fatalf("controller internals diverged: %+v vs %+v", a.State(), b.State())
	}
}

func TestEstimatorStateContinuation(t *testing.T) {
	spec := window.Spec{Size: 100, Slide: 50}
	cfg := EstimatorConfig{Seed: 12, ReservoirSize: 64, MCTrials: 8}
	a := NewEstimator(spec, window.Avg(), cfg)
	rng := stats.NewRNG(4)
	for i := 0; i < 400; i++ {
		a.ObserveTuple(rng.ExpFloat64()*30, rng.NormFloat64()*10+50)
		if i%25 == 0 {
			a.ObserveWindowCount(int64(10 + rng.Intn(5)))
		}
	}
	_ = a.EstimateErr(40) // consume Monte-Carlo RNG draws before the snapshot

	b := NewEstimator(spec, window.Avg(), cfg)
	b.Restore(a.State())

	for i := 0; i < 300; i++ {
		late, val := rng.ExpFloat64()*30, rng.NormFloat64()*10+50
		a.ObserveTuple(late, val)
		b.ObserveTuple(late, val)
		if i%50 == 0 {
			// MC estimates consume RNG state; both must stay in lockstep.
			if ea, eb := a.EstimateErr(stream.Time(i)), b.EstimateErr(stream.Time(i)); ea != eb {
				t.Fatalf("estimate diverged at step %d: %v vs %v", i, ea, eb)
			}
			if ka, kb := a.MinK(0.01, 5000), b.MinK(0.01, 5000); ka != kb {
				t.Fatalf("MinK diverged at step %d: %d vs %d", i, ka, kb)
			}
		}
	}
	if a.Observations() != b.Observations() {
		t.Fatalf("observation counts diverged: %d vs %d", a.Observations(), b.Observations())
	}
}

func aqItems(seed uint64, n int) []stream.Item {
	rng := stats.NewRNG(seed)
	type arr struct {
		t   stream.Tuple
		pos stream.Time
	}
	tuples := make([]arr, n)
	for i := range tuples {
		ts := stream.Time(i) * 5
		delay := stream.Time(rng.ExpFloat64() * 40)
		tuples[i] = arr{
			t:   stream.Tuple{TS: ts, Arrival: ts + delay, Seq: uint64(i), Value: rng.NormFloat64()*20 + 100},
			pos: ts + delay,
		}
	}
	// Stable insertion sort by arrival keeps determinism.
	for i := 1; i < len(tuples); i++ {
		for j := i; j > 0 && tuples[j].pos < tuples[j-1].pos; j-- {
			tuples[j], tuples[j-1] = tuples[j-1], tuples[j]
		}
	}
	items := make([]stream.Item, n)
	for i, a := range tuples {
		items[i] = stream.DataItem(a.t)
	}
	return items
}

func TestAQKSlackStateContinuation(t *testing.T) {
	mk := func() *AQKSlack {
		return NewAQKSlack(Config{
			Theta:        0.02,
			Spec:         window.Spec{Size: 200, Slide: 100},
			Agg:          window.Avg(),
			WarmupTuples: 50,
			Estimator:    EstimatorConfig{Seed: 33, ReservoirSize: 128, MCTrials: 4},
		})
	}
	a := mk()
	items := aqItems(77, 3000)
	cut := len(items) / 2

	var scratch []stream.Tuple
	for _, it := range items[:cut] {
		scratch = a.Insert(it, scratch[:0])
	}
	st := a.State()

	b := mk()
	b.Restore(st)

	var relA, relB []stream.Tuple
	for _, it := range items[cut:] {
		relA = a.Insert(it, relA)
		relB = b.Insert(it, relB)
		if a.K() != b.K() {
			t.Fatalf("slack decisions diverged: K=%d vs %d after %v", a.K(), b.K(), it)
		}
	}
	relA = a.Flush(relA)
	relB = b.Flush(relB)

	if len(relA) != len(relB) {
		t.Fatalf("release counts diverged: %d vs %d", len(relA), len(relB))
	}
	for i := range relA {
		if relA[i] != relB[i] {
			t.Fatalf("release %d diverged: %v vs %v", i, relA[i], relB[i])
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("buffer stats diverged: %v vs %v", a.Stats(), b.Stats())
	}
	if a.Quality() != b.Quality() {
		t.Fatalf("quality stats diverged: %+v vs %+v", a.Quality(), b.Quality())
	}
	if a.Quality().Adaptations == 0 {
		t.Fatalf("test setup: expected adaptations to have run")
	}
	if b.Theta() != 0.02 {
		t.Fatalf("theta accessor: got %v", b.Theta())
	}
}

func TestAQKSlackStateSnapshotIsDeterministic(t *testing.T) {
	mk := func() *AQKSlack {
		return NewAQKSlack(Config{
			Theta: 0.05, Spec: window.Spec{Size: 100, Slide: 50}, Agg: window.Sum(),
			WarmupTuples: 30, Estimator: EstimatorConfig{Seed: 9, ReservoirSize: 64, MCTrials: 2},
		})
	}
	a, b := mk(), mk()
	var scratch []stream.Tuple
	for _, it := range aqItems(5, 800) {
		scratch = a.Insert(it, scratch[:0])
		scratch = b.Insert(it, scratch[:0])
	}
	sa, sb := a.State(), b.State()
	// Slices built from map iteration must still come out identically ordered.
	if len(sa.Full) != len(sb.Full) || len(sa.Emitted) != len(sb.Emitted) {
		t.Fatalf("state shapes diverged: full=%d/%d emitted=%d/%d",
			len(sa.Full), len(sb.Full), len(sa.Emitted), len(sb.Emitted))
	}
	for i := range sa.Full {
		if sa.Full[i].Idx != sb.Full[i].Idx {
			t.Fatalf("full window order nondeterministic at %d", i)
		}
	}
	for i := range sa.Emitted {
		if sa.Emitted[i] != sb.Emitted[i] {
			t.Fatalf("emitted order nondeterministic at %d", i)
		}
	}
}

// TestAQKSlackStateBetweenRefreshes snapshots a simulated-aggregate
// handler whose cached loss bound and draw set are mid-way between two
// MaxTolerableLoss refreshes, restores it through JSON, and requires the
// identical slack decisions and estimates the uninterrupted handler
// makes.
func TestAQKSlackStateBetweenRefreshes(t *testing.T) {
	mk := func() *AQKSlack {
		return NewAQKSlack(Config{
			Theta:        0.005,
			Spec:         window.Spec{Size: 200, Slide: 100},
			Agg:          window.Max(),
			WarmupTuples: 50,
			Estimator:    EstimatorConfig{Seed: 41, ReservoirSize: 128, MCTrials: 8},
		})
	}
	a := mk()
	items := aqItems(78, 3000)
	i := 0
	var scratch []stream.Tuple
	for ; i < len(items) && (a.Quality().Adaptations < 60 || a.pMaxAge == 0); i++ {
		scratch = a.Insert(items[i], scratch[:0])
	}
	st := a.State()
	if st.PMaxAge == 0 || st.Est.CRNSeed == 0 {
		t.Fatalf("test setup: want a snapshot between refreshes, got pMaxAge=%d crnSeed=%d", st.PMaxAge, st.Est.CRNSeed)
	}
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var decoded AQState
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	b := mk()
	b.Restore(decoded)

	changes, k := 0, a.K()
	for _, it := range items[i:] {
		scratch = a.Insert(it, scratch[:0])
		scratch = b.Insert(it, scratch[:0])
		if a.K() != b.K() || a.Quality() != b.Quality() {
			t.Fatalf("diverged after restore: K=%d vs %d, quality %+v vs %+v", a.K(), b.K(), a.Quality(), b.Quality())
		}
		if a.K() != k {
			changes, k = changes+1, a.K()
		}
	}
	if changes == 0 {
		t.Fatal("test setup: the slack never moved after the snapshot")
	}
}

// TestEstimatorRestoresSnapshotWithoutDrawSet restores estimator state
// written before draw sets were persisted: without crnSeed and crnWindow
// the estimator must start a draw set of its own and keep estimating.
func TestEstimatorRestoresSnapshotWithoutDrawSet(t *testing.T) {
	spec := window.Spec{Size: 100, Slide: 50}
	cfg := EstimatorConfig{Seed: 12, ReservoirSize: 64, MCTrials: 8}
	a := NewEstimator(spec, window.Quantile(0.95), cfg)
	rng := stats.NewRNG(4)
	for i := 0; i < 400; i++ {
		a.ObserveTuple(rng.ExpFloat64()*30, rng.NormFloat64()*10+50)
	}
	a.ObserveWindowCount(40)
	a.MaxTolerableLoss(0.01)

	raw, err := json.Marshal(a.State())
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields["crnSeed"]; !ok {
		t.Fatal("test setup: current state lacks crnSeed")
	}
	delete(fields, "crnSeed")
	delete(fields, "crnWindow")
	if raw, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	var old EstimatorState
	if err := json.Unmarshal(raw, &old); err != nil {
		t.Fatal(err)
	}
	b := NewEstimator(spec, window.Quantile(0.95), cfg)
	b.Restore(old)
	for _, k := range []stream.Time{0, 20, 80} {
		if got := b.EstimateErr(k); math.IsNaN(got) || got < 0 {
			t.Fatalf("EstimateErr(%d) after restoring an old snapshot = %v", k, got)
		}
	}
	if p := b.MaxTolerableLoss(0.01); p < 0 || p > 1 {
		t.Fatalf("MaxTolerableLoss after restoring an old snapshot = %v", p)
	}
}
