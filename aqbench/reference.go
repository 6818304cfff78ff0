package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/cq"
	"repro/internal/stream"
	"repro/internal/window"
)

// lastN is how many of each query's final windows the harness reads back
// from the server's result ring (its capacity) and compares.
const lastN = 256

// outputLog folds a query's emitted windows, in emission order, into a
// count, a SHA-256 digest of every field, the final lastN windows and,
// with sampleEvery > 0, every sampleEvery-th window.
type outputLog struct {
	count       int64
	h           hash.Hash
	tail        []window.KeyedResult
	buf         [64]byte
	sampleEvery int64
	sample      []window.KeyedResult
}

// groupedSample thins a grouped query's output (millions of windows) to
// the windows its quality figures are computed over.
const groupedSample = 8

func newOutputLog() *outputLog { return &outputLog{h: sha256.New()} }

func (o *outputLog) add(kr window.KeyedResult) {
	o.count++
	b := o.buf[:0]
	for _, v := range []uint64{kr.Key, uint64(kr.Idx), uint64(kr.Start), uint64(kr.End),
		math.Float64bits(kr.Value), uint64(kr.Count), uint64(kr.EmitArrival)} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	o.h.Write(b)
	if o.sampleEvery > 0 && o.count%o.sampleEvery == 0 {
		o.sample = append(o.sample, kr)
	}
	if len(o.tail) == 2*lastN {
		copy(o.tail, o.tail[lastN:])
		o.tail = o.tail[:lastN]
	}
	o.tail = append(o.tail, kr)
}

func (o *outputLog) digest() [32]byte {
	var d [32]byte
	copy(d[:], o.h.Sum(nil))
	return d
}

func (o *outputLog) last() []window.KeyedResult {
	if len(o.tail) > lastN {
		return o.tail[len(o.tail)-lastN:]
	}
	return o.tail
}

// refOutput is one query's in-process reference output over the
// closed-loop segment plus its closing heartbeat: the windows emitted
// before end of stream, which is everything the server emits, since the
// server never flushes a live query.
type refOutput struct {
	count  int64
	digest [32]byte
	last   []window.KeyedResult
	// scored are the windows the quality figures are computed over: every
	// window of a non-grouped query, every groupedSample-th window of a
	// grouped one.
	scored []window.KeyedResult
}

// runReference executes the query in-process with the cq engine over
// the same items the server receives, closing heartbeats included. Only
// windows emitted at or before closeWM count: the rest are the
// end-of-stream flush, which the server never performs.
func runReference(q querySpec, seg *segment) (*refOutput, error) {
	h, err := q.stmt.BuildHandler()
	if err != nil {
		return nil, err
	}
	closeWM := seg.closeWM
	log := newOutputLog()
	if q.stmt.GroupBy {
		log.sampleEvery = groupedSample
	}
	keep := func(kr window.KeyedResult) {
		if kr.EmitArrival <= closeWM {
			log.add(kr)
		}
	}
	query := cq.New(seg.source()).Handle(h).Window(q.stmt.Spec, q.stmt.Agg).AggCore(window.CoreFiba)
	var rep *cq.AggReport
	if q.stmt.GroupBy {
		// Grouped output is too large to hold as a report: stream it.
		_, err = query.GroupBy().Shards(1).SinkKeyed(keep).DiscardReport().RunConcurrent(context.Background(), nil)
	} else {
		rep, err = query.Run()
		if err == nil {
			for _, r := range rep.Results[:rep.PreFlush] {
				log.add(window.KeyedResult{Result: r})
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("reference run of %s: %w", q.name, err)
	}
	ro := &refOutput{count: log.count, digest: log.digest(), last: append([]window.KeyedResult(nil), log.last()...)}
	ro.scored = log.sample
	if rep != nil {
		ro.scored = make([]window.KeyedResult, rep.PreFlush)
		for i, r := range rep.Results[:rep.PreFlush] {
			ro.scored[i] = window.KeyedResult{Result: r}
		}
	}
	return ro, nil
}

// runReferences runs every query's reference, as many at once as there
// are CPUs: the runs share only the segment's read-only tuples.
func runReferences(qs []querySpec, seg *segment) ([]*refOutput, error) {
	out := make([]*refOutput, len(qs))
	errs := make([]error, len(qs))
	slots := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		slots <- struct{}{}
		go func() {
			defer func() { <-slots; wg.Done() }()
			out[i], errs[i] = runReference(q, seg)
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// sameWindows checks the windows read back from the server against the
// reference's final windows, field by field and value bit for bit.
func sameWindows(query string, got []wireResult, want []window.KeyedResult) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: server returned %d final windows, reference has %d", query, len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Window != w.Idx || g.Start != int64(w.Start) || g.End != int64(w.End) || g.Count != w.Count ||
			math.Float64bits(g.Value) != math.Float64bits(w.Value) || g.Latency != int64(w.Latency()) {
			return fmt.Errorf("%s: window %d differs: server %+v, reference %+v", query, i, g, w.Result)
		}
	}
	return nil
}

// exactIndex answers exact window aggregates over the loss-free stream:
// every tuple, sorted by event time, regardless of arrival order.
type exactIndex struct {
	ts      []stream.Time
	keys    []uint64
	vals    []float64
	scratch []float64
}

func newExactIndex(tuples []stream.Tuple) *exactIndex {
	ts := append([]stream.Tuple(nil), tuples...)
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].TS != ts[j].TS {
			return ts[i].TS < ts[j].TS
		}
		return ts[i].Seq < ts[j].Seq
	})
	x := &exactIndex{ts: make([]stream.Time, len(ts)), keys: make([]uint64, len(ts)), vals: make([]float64, len(ts))}
	for i, t := range ts {
		x.ts[i], x.keys[i], x.vals[i] = t.TS, t.Key, t.Value
	}
	return x
}

// exact returns the aggregate of every tuple in [start, end) (of key, when
// grouped) and how many there were. Values go in sorted: the exact
// answer does not depend on order, and the order-statistic aggregates
// keep their values sorted, so ascending input costs them no shifting.
func (x *exactIndex) exact(agg window.Factory, start, end stream.Time, grouped bool, key uint64) (float64, int64) {
	lo := sort.Search(len(x.ts), func(i int) bool { return x.ts[i] >= start })
	x.scratch = x.scratch[:0]
	for i := lo; i < len(x.ts) && x.ts[i] < end; i++ {
		if !grouped || x.keys[i] == key {
			x.scratch = append(x.scratch, x.vals[i])
		}
	}
	sort.Float64s(x.scratch)
	a := agg.New()
	for _, v := range x.scratch {
		a.Add(v)
	}
	return a.Value(), a.N()
}

// windowQuality holds, per query, the per-window figures behind the
// result and quality metrics.
type windowQuality struct {
	latencyMS [][]float64 // stream-time window end → emission
	relErr    [][]float64 // |emitted − exact| / |exact|, windows with tuples only
}

// assess scores a query's windows against the exact answers.
// Windows released by the closing heartbeat are left out of the latency
// figures: their emission position is the harness's end-of-segment
// watermark, not anything the handler chose.
// The exact answers are computed in one contiguous share of the windows
// per CPU, each share with its own scratch buffer.
func (wq *windowQuality) assess(q querySpec, final []window.KeyedResult, x *exactIndex, closeWM stream.Time) {
	var lat []float64
	for _, r := range final {
		if r.EmitArrival < closeWM {
			lat = append(lat, float64(r.Latency()))
		}
	}
	shares := make([][]float64, runtime.NumCPU())
	per := (len(final) + len(shares) - 1) / len(shares)
	var wg sync.WaitGroup
	for i := range shares {
		part := final[min(i*per, len(final)):min((i+1)*per, len(final))]
		wg.Add(1)
		go func() {
			defer wg.Done()
			xs := &exactIndex{ts: x.ts, keys: x.keys, vals: x.vals}
			for _, r := range part {
				ex, n := xs.exact(q.stmt.Agg, r.Start, r.End, q.stmt.GroupBy, r.Key)
				if n == 0 || ex == 0 {
					continue
				}
				shares[i] = append(shares[i], math.Abs(r.Value-ex)/math.Abs(ex))
			}
		}()
	}
	wg.Wait()
	var errs []float64
	for _, sh := range shares {
		errs = append(errs, sh...)
	}
	wq.latencyMS = append(wq.latencyMS, lat)
	wq.relErr = append(wq.relErr, errs)
}

// worst is the largest per-query p-th percentile, by pct: the workload's
// figure is its worst query's, as lag is its slowest query's. Queries
// with different slacks would make a pooled percentile jump between
// modes. ok is false when some query has too few samples for p.
func worst(perQuery [][]float64, p float64, pct func([]float64, float64) float64) (v float64, ok bool) {
	for _, xs := range perQuery {
		if !supports(len(xs), p) {
			return 0, false
		}
		v = max(v, pct(xs, p))
	}
	return v, true
}
