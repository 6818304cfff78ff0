package main

import (
	"context"
	"os"
	"path/filepath"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/window"
)

// probeTuples caps the items an off-path probe or an allocation count
// runs over: a per-tuple rate settles long before that.
const probeTuples = 100_000

// Off-path probes time a layer the workload's server path does not run,
// over the workload's own tuples, so that every per-layer figure is a
// measurement on every workload: a change to that layer moves its
// per-layer figure everywhere, while the end-to-end figures of the
// workloads that bypass it must not move. Probe spans are roots, and
// aqserver.unattributed_us_per_tuple never subtracts them.

// probeSpec is the window the probes aggregate over: the paper's
// 10s/1s sum.
var probeSpec = window.Spec{Size: 10 * stream.Second, Slide: stream.Second}

// layerCounters are the non-time per-layer figures a replay or probe
// yields.
type layerCounters struct {
	stragglers   int64
	trace        []core.KSample
	durableItems int64
	durableBytes float64
	commits      float64
}

// probeHandler times a disorder handler's Insert over items.
func probeHandler(rec *recorder, name string, h buffer.Handler, items []stream.Item) {
	var rel []stream.Tuple
	for i := 0; i < len(items); i += 256 {
		s := rec.begin(name, 0)
		for _, it := range items[i:min(i+256, len(items))] {
			rel = h.Insert(it, rel[:0])
		}
		rec.end(s)
	}
}

// probeKSlack runs the fixed 2 s slack buffer of the fixed-slack
// workloads.
func probeKSlack(rec *recorder, items []stream.Item, lc *layerCounters) {
	h := buffer.NewKSlack(2 * stream.Second)
	probeHandler(rec, spanKSlack, h, items)
	lc.stragglers = h.Stats().Stragglers
}

// probeAQ runs the adaptive handler at θ = 1% (aq-wire's configuration).
func probeAQ(rec *recorder, items []stream.Item, lc *layerCounters) {
	h := core.NewAQKSlack(core.Config{Theta: 0.01, Spec: probeSpec, Agg: window.Sum()})
	probeHandler(rec, spanAQ, h, items)
	lc.trace = h.Trace()
}

// probeCQ runs grouped-durable's grouped query shape through cq's sharded
// executor.
func probeCQ(rec *recorder, items []stream.Item) error {
	s := rec.begin(spanCQ, 0)
	_, err := cq.New(stream.NewSliceSource(items)).Handle(buffer.NewKSlack(200*stream.Millisecond)).
		Window(probeSpec, window.Sum()).AggCore(window.CoreFiba).GroupBy().Shards(2).
		SinkKeyed(func(window.KeyedResult) {}).DiscardReport().RunConcurrent(context.Background(), nil)
	rec.end(s)
	return err
}

// probeDurable journals items with aqserver's group commit per batch.
func probeDurable(rec *recorder, items []stream.Item, dir string, lc *layerCounters) error {
	dir = filepath.Join(dir, "probe")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	m := durable.NewMetrics(obs.NewRegistry())
	l, err := durable.Open(durable.Options{Dir: dir, CommitEvery: durableCommitEvery, Metrics: m})
	if err != nil {
		return err
	}
	defer l.Close()
	for i := 0; i < len(items); i += durableCommitEvery {
		s := rec.begin(spanDurable, 0)
		for _, it := range items[i:min(i+durableCommitEvery, len(items))] {
			if err := l.AppendItem(it); err != nil {
				return err
			}
		}
		err := l.Commit()
		rec.end(s)
		if err != nil {
			return err
		}
	}
	lc.addDurable(m, int64(len(items)))
	return nil
}

// addDurable folds a journal's counters in. Journal bytes are the
// rotated segments plus the open one.
func (lc *layerCounters) addDurable(m *durable.Metrics, items int64) {
	lc.durableItems += items
	lc.durableBytes += m.Rotations.Value()*float64(4<<20) + m.JournalBytes.Value()
	lc.commits += m.Commits.Value()
}
