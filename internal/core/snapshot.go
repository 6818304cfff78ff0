package core

import (
	"sort"

	"repro/internal/buffer"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/window"
)

// This file exports and restores the adaptive controller's state for
// crash-consistent snapshots (internal/durable). The contract matches the
// rest of the State/Restore family: a restored AQKSlack fed the identical
// item suffix makes identical slack decisions and identical releases,
// because every input to the adaptation loop — sketch, sample, RNG, PI
// integral, shadow windows, feedback bookkeeping — round-trips exactly.
//
// Deliberately NOT persisted: the adaptation trace ([]KSample, a debugging
// artifact unbounded in size), telemetry and tracer attachments (runtime
// wiring, re-attached by the host process), and scratch buffers.

// PIState is the exported state of a PI controller. Gains and clamp bounds
// are included — a snapshot taken under one tuning must not be silently
// reinterpreted under another.
type PIState struct {
	Kp         float64 `json:"kp"`
	Ki         float64 `json:"ki"`
	MinFactor  float64 `json:"minFactor"`
	MaxFactor  float64 `json:"maxFactor"`
	Integral   float64 `json:"integral"`
	Clamps     int64   `json:"clamps"`
	LastFactor float64 `json:"lastFactor"`
	HasOutput  bool    `json:"hasOutput"`
}

// State exports the controller state, gains included.
func (c *PI) State() PIState {
	return PIState{
		Kp: c.Kp, Ki: c.Ki, MinFactor: c.MinFactor, MaxFactor: c.MaxFactor,
		Integral: c.integral, Clamps: c.clamps, LastFactor: c.lastFactor, HasOutput: c.hasOutput,
	}
}

// Restore sets the controller to a previously exported state, including
// gains.
func (c *PI) Restore(st PIState) {
	c.Kp, c.Ki, c.MinFactor, c.MaxFactor = st.Kp, st.Ki, st.MinFactor, st.MaxFactor
	c.integral, c.clamps, c.lastFactor, c.hasOutput = st.Integral, st.Clamps, st.LastFactor, st.HasOutput
}

// EstimatorState is the exported state of an Estimator. The RNG is shared
// with the reservoir, so it is snapshotted exactly once, here. The
// simulation's draw set is persisted as the seed and window size it
// expands from; snapshots written before draw sets existed lack both and
// restore to "none yet", so the next estimate starts one.
type EstimatorState struct {
	Lateness  stats.GKState        `json:"lateness"`
	Values    stats.ReservoirState `json:"values"`
	WinCount  stats.EWMAState      `json:"winCount"`
	RNG       stats.RNGState       `json:"rng"`
	Observed  int64                `json:"observed"`
	CRNSeed   uint64               `json:"crnSeed,omitempty"`
	CRNWindow int                  `json:"crnWindow,omitempty"`
}

// State exports the estimator state.
func (e *Estimator) State() EstimatorState {
	return EstimatorState{
		Lateness:  e.lateness.State(),
		Values:    e.values.State(),
		WinCount:  e.winCount.State(),
		RNG:       e.rng.State(),
		Observed:  e.observed,
		CRNSeed:   e.crnSeed,
		CRNWindow: e.crnWindow,
	}
}

// Restore sets the estimator to a previously exported state.
func (e *Estimator) Restore(st EstimatorState) {
	e.lateness.Restore(st.Lateness)
	e.values.Restore(st.Values)
	e.winCount.Restore(st.WinCount)
	e.rng.Restore(st.RNG)
	e.observed = st.Observed
	e.crnSeed, e.crnWindow, e.drawn = st.CRNSeed, st.CRNWindow, false
}

// EmittedVal records the value a shadow window had at emission time, while
// it awaits finalization.
type EmittedVal struct {
	Idx   int64   `json:"idx"`
	Value float64 `json:"value"`
}

// AQState is the exported state of an AQKSlack handler.
type AQState struct {
	Buf    buffer.SlackState `json:"buf"`
	Est    EstimatorState    `json:"est"`
	PI     PIState           `json:"pi"`
	Shadow window.OpState    `json:"shadow"`

	Full    []window.WinAgg `json:"full,omitempty"`
	FullLo  int64           `json:"fullLo"`
	FullHi  int64           `json:"fullHi"`
	HaveWin bool            `json:"haveWin"`
	Emitted []EmittedVal    `json:"emitted,omitempty"`

	RelClock stream.Time `json:"relClock"`
	RelStart bool        `json:"relStart"`

	Realized   stats.EWMAState `json:"realized"`
	PMaxCache  float64         `json:"pMaxCache"`
	PMaxAge    int             `json:"pMaxAge"`
	LastAdapt  stream.Time     `json:"lastAdapt"`
	AdaptInit  bool            `json:"adaptInit"`
	QStats     QualityStats    `json:"qstats"`
	LastClamps int64           `json:"lastClamps"`
}

// State exports the handler state.
func (a *AQKSlack) State() AQState {
	st := AQState{
		Buf:        a.buf.State(),
		Est:        a.est.State(),
		PI:         a.pi.State(),
		Shadow:     a.shadow.State(),
		FullLo:     a.fullLo,
		FullHi:     a.fullHi,
		HaveWin:    a.haveWin,
		RelClock:   a.relClock,
		RelStart:   a.relStart,
		Realized:   stats.EWMAState{Value: a.realized.v, Init: a.realized.init},
		PMaxCache:  a.pMaxCache,
		PMaxAge:    a.pMaxAge,
		LastAdapt:  a.lastAdapt,
		AdaptInit:  a.adaptInit,
		QStats:     a.qstats,
		LastClamps: a.lastClamps,
	}
	if len(a.full) > 0 {
		st.Full = make([]window.WinAgg, 0, len(a.full))
		for idx, agg := range a.full {
			st.Full = append(st.Full, window.WinAgg{Idx: idx, Agg: window.SaveAggregate(agg)})
		}
		sort.Slice(st.Full, func(i, j int) bool { return st.Full[i].Idx < st.Full[j].Idx })
	}
	if len(a.emitted) > 0 {
		st.Emitted = make([]EmittedVal, 0, len(a.emitted))
		for idx, v := range a.emitted {
			st.Emitted = append(st.Emitted, EmittedVal{Idx: idx, Value: v})
		}
		sort.Slice(st.Emitted, func(i, j int) bool { return st.Emitted[i].Idx < st.Emitted[j].Idx })
	}
	return st
}

// Restore sets the handler to a previously exported state. The handler must
// have been built with the same Config as the one the state was saved from.
func (a *AQKSlack) Restore(st AQState) {
	a.buf.Restore(st.Buf)
	a.est.Restore(st.Est)
	a.pi.Restore(st.PI)
	a.shadow.Restore(st.Shadow)
	a.full = make(map[int64]window.Aggregate, len(st.Full))
	for _, wa := range st.Full {
		a.full[wa.Idx] = window.RestoreAggregate(a.cfg.Agg, wa.Agg)
	}
	a.fullLo, a.fullHi, a.haveWin = st.FullLo, st.FullHi, st.HaveWin
	a.emitted = make(map[int64]float64, len(st.Emitted))
	for _, ev := range st.Emitted {
		a.emitted[ev.Idx] = ev.Value
	}
	a.relClock, a.relStart = st.RelClock, st.RelStart
	a.realized.v, a.realized.init = st.Realized.Value, st.Realized.Init
	a.pMaxCache, a.pMaxAge = st.PMaxCache, st.PMaxAge
	a.lastAdapt, a.adaptInit = st.LastAdapt, st.AdaptInit
	a.qstats = st.QStats
	a.lastClamps = st.LastClamps
	a.trace = nil // the adaptation trace is not persisted
}

// Theta returns the configured quality bound. Recovery validation uses it
// to check a snapshot is being restored into an identically-bounded query.
func (a *AQKSlack) Theta() float64 { return a.cfg.Theta }
