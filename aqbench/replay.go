package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/durable"
	"repro/internal/fanout"
	"repro/internal/fleet"
	"repro/internal/netstream"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/window"
)

// Span names: one per layer, named after its package. Spans named
// bench.* are the harness's own bookkeeping and belong to no layer.
const (
	spanBatch   = "bench.batch"
	spanCheck   = "bench.check"
	spanEncode  = "netstream.encode"
	spanDecode  = "netstream.decode"
	spanPublish = "fleet.publish"
	spanFanout  = "fanout"
	spanKSlack  = "buffer"
	spanAQ      = "core"
	spanWindow  = "window"
	spanDurable = "durable"
	spanCQ      = "cq"
)

// replayRead is the listener's read-buffer size (netstream.MaxLine+2):
// the server publishes one batch per buffer of decoded frames, so the
// replay cuts batches at the same byte count.
const replayRead = netstream.MaxLine + 2

// durableSnapshotEvery and durableCommitEvery mirror aqserver's defaults
// (-snapshot-interval 50000, -batch 64).
const (
	durableSnapshotEvery = 50000
	durableCommitEvery   = 64
)

// feedReader hands the decoder one batch of wire bytes at a time and
// reports a clean end of input between batches.
type feedReader struct{ b []byte }

func (f *feedReader) Read(p []byte) (int, error) {
	if len(f.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, f.b)
	f.b = f.b[n:]
	return n, nil
}

// pipe is one query's server-side chain in the replay.
type pipe struct {
	q   querySpec
	sub *fanout.Sub

	// Non-grouped: disorder handler → window operator (→ journal).
	h      buffer.Handler
	aq     *core.AQKSlack // h, when the query declares QUALITY
	layer  string         // span name of h
	op     *window.Op
	now    stream.Time
	rel    []stream.Tuple
	relNow []stream.Time
	res    []window.Result
	dlog   *durable.QueryLog
	dm     *durable.Metrics

	// Grouped: the subscription's items, run through cq afterwards.
	items []stream.Item

	out *outputLog
}

// replayResult is one replay's outputs and counters.
type replayResult struct {
	wall      time.Duration
	tuples    int64
	wireBytes int64
	pipes     []*pipe
	windowRes int64
}

// replay runs the closed-loop segment, closing heartbeat included,
// through each layer's public entry points in the order the server calls
// them: encode, netstream.Decoder, fleet.Registry.Publish,
// then per query its fanout subscription, disorder handler, window
// operator and — where the workload journals — the durable log. Grouped
// queries collect their subscription's items and run through cq's
// sharded executor at the end. With rec nil nothing is traced.
func replay(w *workload, seg *segment, dir string, rec *recorder) (*replayResult, error) {
	ctx := context.Background()
	reg := fleet.NewRegistry(fleet.Options{})
	src := reg.Source(w.source)
	res := &replayResult{}
	for _, q := range w.queries {
		p := &pipe{q: q, sub: src.Attach(q.name), out: newOutputLog()}
		if !q.stmt.GroupBy {
			h, err := q.stmt.BuildHandler()
			if err != nil {
				return nil, err
			}
			p.h, p.layer = h, spanKSlack
			if aq, ok := h.(*core.AQKSlack); ok {
				p.aq, p.layer = aq, spanAQ
			}
			p.op = window.NewOpWithCore(q.stmt.Spec, q.stmt.Agg, window.DropLate, 0, window.CoreFiba)
			if w.durable {
				qdir := filepath.Join(dir, q.name)
				if err := os.RemoveAll(qdir); err != nil {
					return nil, err
				}
				p.dm = durable.NewMetrics(obs.NewRegistry())
				dl, err := durable.Open(durable.Options{Dir: qdir, CommitEvery: durableCommitEvery,
					SnapshotEvery: durableSnapshotEvery, Metrics: p.dm})
				if err != nil {
					return nil, err
				}
				p.dlog = dl
			}
		}
		res.pipes = append(res.pipes, p)
	}
	defer func() {
		for _, p := range res.pipes {
			if p.dlog != nil {
				p.dlog.Close()
			}
		}
	}()

	feed := &feedReader{b: netstream.AppendHello(nil, w.source, "bench")}
	dec := netstream.NewDecoder(feed)
	if err := dec.Hello(); err != nil {
		return nil, err
	}
	var wireBuf []byte
	var decoded []stream.Item
	runtime.GC()
	t0 := time.Now()
	for i, id := 0, uint64(1); i < seg.len(); id++ {
		root := rec.begin(spanBatch, 0)

		s := rec.begin(spanEncode, root)
		wireBuf = netstream.AppendBatchMark(wireBuf[:0], stream.BatchProv{BatchID: id, SendMS: 1})
		for i < seg.len() && len(wireBuf) < replayRead {
			wireBuf = netstream.AppendItem(wireBuf, seg.item(i))
			i++
		}
		rec.end(s)
		res.wireBytes += int64(len(wireBuf))

		s = rec.begin(spanDecode, root)
		feed.b = wireBuf
		decoded = decoded[:0]
		for {
			it, ok, err := dec.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			decoded = append(decoded, it)
		}
		prov := dec.Prov()
		rec.end(s)

		s = rec.begin(spanPublish, root)
		err := reg.Publish(w.source, "bench", decoded, prov)
		rec.end(s)
		if err != nil {
			return nil, err
		}

		for _, p := range res.pipes {
			if err := p.step(ctx, rec, root, res); err != nil {
				return nil, err
			}
		}
		rec.end(root)
	}
	for _, p := range res.pipes {
		if p.q.stmt.GroupBy {
			if err := p.runGrouped(rec, seg.closeWM); err != nil {
				return nil, err
			}
		}
	}
	res.wall = time.Since(t0)
	res.tuples = int64(len(seg.tuples))
	return res, nil
}

// step consumes one ring batch for the query.
func (p *pipe) step(ctx context.Context, rec *recorder, root int, res *replayResult) error {
	fs := rec.begin(spanFanout, root)
	items, seq, _, ok, err := p.sub.NextBatchProv(ctx)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("replay: ring for %s ended early", p.q.name)
	}
	if p.q.stmt.GroupBy {
		s := rec.begin(spanCheck, fs)
		p.items = append(p.items, items...)
		rec.end(s)
		p.sub.Release(seq)
		rec.end(fs)
		return nil
	}

	// The server journals every accepted item before the handler sees it.
	if p.dlog != nil {
		s := rec.begin(spanDurable, fs)
		for _, it := range items {
			if err := p.dlog.AppendItem(it); err != nil {
				return err
			}
		}
		rec.end(s)
	}

	s := rec.begin(p.layer, fs)
	p.rel, p.relNow = p.rel[:0], p.relNow[:0]
	for _, it := range items {
		if !it.Heartbeat {
			if it.Tuple.Arrival > p.now {
				p.now = it.Tuple.Arrival
			}
		} else if it.Watermark > p.now {
			p.now = it.Watermark
		}
		n := len(p.rel)
		p.rel = p.h.Insert(it, p.rel)
		for range p.rel[n:] {
			p.relNow = append(p.relNow, p.now)
		}
	}
	rec.end(s)

	s = rec.begin(spanWindow, fs)
	p.res = p.res[:0]
	for k, t := range p.rel {
		p.res = p.op.Observe(t, p.relNow[k], p.res)
	}
	rec.end(s)

	s = rec.begin(spanCheck, fs)
	for _, r := range p.res {
		p.out.add(window.KeyedResult{Result: r})
	}
	res.windowRes += int64(len(p.res))
	rec.end(s)

	if p.dlog != nil {
		s := rec.begin(spanDurable, fs)
		if err := p.journalTick(); err != nil {
			return err
		}
		rec.end(s)
	}
	p.sub.Release(seq)
	rec.end(fs)
	return nil
}

// journalTick is aqserver's per-batch durability work: record the
// emission cursor, group-commit, and cut a snapshot when one is due.
func (p *pipe) journalTick() error {
	if emit, have := p.op.EmitProgress(); have {
		if err := p.dlog.AppendEmitProgress(emit); err != nil {
			return err
		}
	}
	if err := p.dlog.Commit(); err != nil {
		return err
	}
	if !p.dlog.ShouldSnapshot() {
		return nil
	}
	records, items, err := p.dlog.CutForSnapshot()
	if err != nil {
		return err
	}
	hs, err := durable.SaveHandler(p.h)
	if err != nil {
		return err
	}
	ops := p.op.State()
	emit, have := p.op.EmitProgress()
	return p.dlog.WriteSnapshot(&durable.Snapshot{
		Query: p.q.name, Records: records, Items: items, Now: p.now,
		Handler: hs, Op: &ops, EmitProgress: emit, HaveEmit: have,
	})
}

// runGrouped runs a grouped query's collected items through cq's sharded
// concurrent executor, as aqserver's grouped runner does, keeping the
// windows the server emits (see runReference).
func (p *pipe) runGrouped(rec *recorder, closeWM stream.Time) error {
	h, err := p.q.stmt.BuildHandler()
	if err != nil {
		return err
	}
	s := rec.begin(spanCQ, 0)
	_, err = cq.New(stream.NewSliceSource(p.items)).Handle(h).Window(p.q.stmt.Spec, p.q.stmt.Agg).
		AggCore(window.CoreFiba).GroupBy().Shards(2).
		SinkKeyed(func(kr window.KeyedResult) {
			if kr.EmitArrival <= closeWM {
				p.out.add(kr)
			}
		}).DiscardReport().RunConcurrent(context.Background(), nil)
	rec.end(s)
	return err
}

// allocsPerTuple measures the heap allocations of the netstream and
// window layers in isolation, outside any timed run: an encode+decode
// pass over items, and, per non-grouped query, a fresh window operator
// fed what a fresh handler releases from items.
func allocsPerTuple(w *workload, items []stream.Item) (netAllocs, winAllocs float64, err error) {
	var buf []byte
	feed := &feedReader{}
	dec := netstream.NewDecoder(feed)
	m0 := mallocs()
	buf = netstream.AppendHello(buf, w.source, "bench")
	for i := 0; i < len(items); {
		for i < len(items) && len(buf) < replayRead {
			buf = netstream.AppendItem(buf, items[i])
			i++
		}
		feed.b = buf
		for {
			_, ok, err := dec.Next()
			if err != nil {
				return 0, 0, err
			}
			if !ok {
				break
			}
		}
		buf = buf[:0]
	}
	netAllocs = float64(mallocs()-m0) / float64(len(items))

	var winTotal uint64
	var winTuples int64
	for _, q := range w.queries {
		if q.stmt.GroupBy {
			continue
		}
		h, err := q.stmt.BuildHandler()
		if err != nil {
			return 0, 0, err
		}
		var rel []stream.Tuple
		var relNow []stream.Time
		var now stream.Time
		for _, it := range items {
			if !it.Heartbeat {
				now = max(now, it.Tuple.Arrival)
			} else {
				now = max(now, it.Watermark)
			}
			n := len(rel)
			rel = h.Insert(it, rel)
			for range rel[n:] {
				relNow = append(relNow, now)
			}
		}
		op := window.NewOpWithCore(q.stmt.Spec, q.stmt.Agg, window.DropLate, 0, window.CoreFiba)
		out := make([]window.Result, 0, 64)
		m0 := mallocs()
		for k, t := range rel {
			out = op.Observe(t, relNow[k], out[:0])
		}
		winTotal += mallocs() - m0
		winTuples += int64(len(rel))
	}
	if winTuples > 0 {
		winAllocs = float64(winTotal) / float64(winTuples)
	}
	return netAllocs, winAllocs, nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
