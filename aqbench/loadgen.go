package main

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/netstream"
	"repro/internal/stream"
)

// sendMSDigits is the width of the pre-encoded batch-mark send time: a
// Unix-ms clock has 13 digits until the year 2286.
const sendMSDigits = 13

// wire is a pre-encoded tuple stream cut into write chunks. Every chunk
// opens with a `B <id> <sendms>` batch mark whose send time is a
// zero-padded placeholder, stamped just before the chunk is written; the
// item frames themselves are encoded once, untimed, at set-up.
type wire struct {
	buf    []byte
	chunks []wireChunk
}

type wireChunk struct {
	from, to int // byte range in buf
	markAt   int // offset of the send-time digits in buf
	tuples   int
}

// encodeWire pre-encodes tuples in chunks of per tuples, numbering batch
// marks from firstID.
func encodeWire(tuples []stream.Tuple, per int, firstID uint64) *wire {
	w := &wire{buf: make([]byte, 0, len(tuples)*56)}
	id := firstID
	for i := 0; i < len(tuples); i += per {
		j := min(i+per, len(tuples))
		c := wireChunk{from: len(w.buf)}
		w.buf = append(w.buf, 'B', ' ')
		w.buf = strconv.AppendUint(w.buf, id, 10)
		w.buf = append(w.buf, ' ')
		c.markAt = len(w.buf)
		for k := 0; k < sendMSDigits; k++ {
			w.buf = append(w.buf, '0')
		}
		w.buf = append(w.buf, '\n')
		for _, t := range tuples[i:j] {
			w.buf = netstream.AppendItem(w.buf, stream.DataItem(t))
		}
		c.tuples = j - i
		c.to = len(w.buf)
		w.chunks = append(w.chunks, c)
		id++
	}
	return w
}

// stamp writes the wall-clock send time into chunk i's batch mark.
func (w *wire) stamp(i int, now time.Time) {
	ms := now.UnixMilli()
	d := w.buf[w.chunks[i].markAt : w.chunks[i].markAt+sendMSDigits]
	for k := sendMSDigits - 1; k >= 0; k-- {
		d[k] = byte('0' + ms%10)
		ms /= 10
	}
}

func (w *wire) bytes(i int) []byte { return w.buf[w.chunks[i].from:w.chunks[i].to] }

// dialWire opens the single ingest connection and sends the hello.
func dialWire(addr, source string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if _, err := c.Write(netstream.AppendHello(nil, source, "bench")); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// progress is what the poller and the sender tell each other.
type progress struct {
	minIn  atomic.Int64 // slowest query's tuplesIn
	signal chan struct{}
	nudges atomic.Int64  // nudges written (sender)
	nudge  chan struct{} // the poller asks for a nudge
}

func newProgress() *progress {
	return &progress{signal: make(chan struct{}, 1), nudge: make(chan struct{}, 1)}
}

func (p *progress) publish(minIn int64) {
	p.minIn.Store(minIn)
	select {
	case p.signal <- struct{}{}:
	default:
	}
}

// slowest returns the smallest tuplesIn across the workload's queries and
// their statuses by name.
func slowest(w *workload, sts []queryStatus) (minIn int64, byName map[string]queryStatus, err error) {
	byName = make(map[string]queryStatus, len(sts))
	for _, s := range sts {
		byName[s.Name] = s
	}
	minIn = -1
	for _, q := range w.queries {
		s, ok := byName[q.name]
		if !ok {
			return 0, nil, fmt.Errorf("query %s missing from /api/queries", q.name)
		}
		if minIn < 0 || s.TuplesIn < minIn {
			minIn = s.TuplesIn
		}
	}
	return minIn, byName, nil
}

// closedResult is what the closed loop measured.
type closedResult struct {
	elapsed   time.Duration // first byte sent → last expected window seen
	serverCPU time.Duration
	genCPU    time.Duration
	final     map[string]queryStatus
	nudges    int64 // closing nudges the server needed (see segment)
	// Per slice of the loop (closedSlices equal shares of N, the last
	// ending at completion): tuples/s and server CPU µs per tuple.
	sliceTPS, sliceCPU []float64
}

// closedSlices is how many equal shares of N the closed loop is timed in;
// the reported throughput and CPU cost are the median slice's, so one
// stall on a shared host moves one slice, not the figure.
const closedSlices = 21

// sliceClock records (time, tuples processed, server CPU) at slice
// boundaries and turns consecutive marks into per-slice figures.
type sliceClock struct {
	at    []time.Time
	tup   []int64
	cpu   []time.Duration
	every int64
}

func (s *sliceClock) mark(at time.Time, tuples int64, cpu time.Duration) {
	s.at, s.tup, s.cpu = append(s.at, at), append(s.tup, tuples), append(s.cpu, cpu)
}

// due reports whether tuples crossed the next slice boundary.
func (s *sliceClock) due(tuples int64) bool {
	return tuples >= s.tup[len(s.tup)-1]+s.every
}

func (s *sliceClock) figures() (tps, cpuUS []float64) {
	for i := 1; i < len(s.at); i++ {
		n := float64(s.tup[i] - s.tup[i-1])
		tps = append(tps, n/s.at[i].Sub(s.at[i-1]).Seconds())
		cpuUS = append(cpuUS, float64((s.cpu[i]-s.cpu[i-1]).Microseconds())/n)
	}
	return tps, cpuUS
}

const (
	closedChunk = 512                    // tuples per closed-loop write
	inFlight    = 8192                   // W: max tuples sent but not yet processed by the slowest query
	closedPoll  = 5 * time.Millisecond   // pause between closed-loop progress polls
	openTick    = 2 * time.Millisecond   // open-loop send period
	openPoll    = 2 * time.Millisecond   // pause between open-loop lag polls
	scrapeEvery = 100 * time.Millisecond // /metrics sampling period (traced runs)
)

// settlePolls is how many consecutive polls with unchanged window counts,
// short of the reference, make the poller ask for a nudge.
const settlePolls = 4

// runClosed sends the pre-encoded segment as fast as the server takes it,
// never more than inFlight tuples ahead of the slowest query, then the
// closing heartbeat (and nudges while the server needs them), and returns
// once every query has emitted its reference window count and taken in
// every tuple sent. The window count is the completion signal: a grouped
// runner counts tuplesIn when a tuple is enqueued, not when it is
// processed.
func runClosed(srv *server, conn net.Conn, wr *wire, seg *segment, want map[string]int64, w *workload, deadline time.Time) (*closedResult, error) {
	p := newProgress()
	stop := make(chan struct{})
	type pollOut struct {
		at    time.Time
		cpu   time.Duration
		final map[string]queryStatus
		err   error
	}
	done := make(chan pollOut, 1)
	cpu0, err := cpuTime(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	total := int64(0)
	for _, c := range wr.chunks {
		total += int64(c.tuples)
	}
	slices := &sliceClock{every: total / closedSlices}
	t0 := time.Now()
	slices.mark(t0, 0, cpu0)
	go func() {
		var lastWindows int64
		settled := 0
		for {
			sts, err := srv.statuses()
			if err != nil {
				done <- pollOut{err: err}
				return
			}
			at := time.Now()
			minIn, byName, err := slowest(w, sts)
			if err != nil {
				done <- pollOut{err: err}
				return
			}
			p.publish(minIn)
			if minIn < total && slices.due(minIn) {
				cpu, err := cpuTime(srv.cmd.Process.Pid)
				if err != nil {
					done <- pollOut{err: err}
					return
				}
				slices.mark(at, minIn, cpu)
			}
			sent := total + p.nudges.Load()
			complete := minIn >= sent
			var windows int64
			for _, q := range w.queries {
				windows += byName[q.name].Windows
				if byName[q.name].Windows < want[q.name] {
					complete = false
				}
			}
			if !complete && minIn >= sent && windows == lastWindows {
				if settled++; settled == settlePolls {
					settled = 0
					select {
					case p.nudge <- struct{}{}:
					default:
					}
				}
			} else {
				settled = 0
			}
			lastWindows = windows
			if complete {
				cpu, err := cpuTime(srv.cmd.Process.Pid)
				slices.mark(at, total, cpu)
				done <- pollOut{at: at, cpu: cpu, final: byName, err: err}
				return
			}
			if at.After(deadline) {
				done <- pollOut{err: fmt.Errorf("closed loop incomplete at deadline: %+v", byName)}
				return
			}
			select {
			case <-stop:
				done <- pollOut{err: errors.New("stopped")}
				return
			case <-time.After(closedPoll):
			}
		}
	}()
	defer close(stop)

	gen0 := selfCPU()
	var written int64
	for i := range wr.chunks {
		for written-p.minIn.Load() > inFlight {
			select {
			case <-p.signal:
			case out := <-done:
				if out.err == nil {
					out.err = errors.New("queries completed before the segment was sent")
				}
				return nil, out.err
			}
		}
		wr.stamp(i, time.Now())
		if _, err := conn.Write(wr.bytes(i)); err != nil {
			return nil, err
		}
		written += int64(wr.chunks[i].tuples)
	}
	if _, err := conn.Write(seg.closing()); err != nil {
		return nil, err
	}
	var out pollOut
	for waiting := true; waiting; {
		select {
		case out = <-done:
			waiting = false
		case <-p.nudge:
			p.nudges.Add(1)
			if _, err := conn.Write(seg.nudge()); err != nil {
				return nil, err
			}
		}
	}
	if out.err != nil {
		return nil, out.err
	}
	res := &closedResult{
		elapsed:   out.at.Sub(t0),
		serverCPU: out.cpu - cpu0,
		genCPU:    selfCPU() - gen0,
		final:     out.final,
		nudges:    p.nudges.Load(),
	}
	res.sliceTPS, res.sliceCPU = slices.figures()
	return res, nil
}

// openResult is what the open loop measured.
type openResult struct {
	lagMS      []float64 // schedule lag at each poll while the schedule ran
	latenessMS []float64 // per chunk: actual write time − scheduled time
	fanoutLag  []float64 // sampled max aq_fanout_lag_batches (scrape on)
	queueDepth []float64 // sampled max aq_queue_depth (scrape on)
	wireLatSum float64   // aq_wire_latency_ms sum/count over the loop (scrape on)
	wireLatCnt float64
	final      map[string]queryStatus
}

// runOpen sends the second segment on a fixed schedule: chunk i (rate ×
// openTick tuples) is written at t0 + (i+1)·openTick, when its last tuple
// falls due. The poller samples schedule lag; with scrape on it also
// samples the ring-lag and queue-depth gauges from /metrics.
func runOpen(srv *server, conn net.Conn, wr *wire, rate int, base int64, w *workload, scrape bool, deadline time.Time) (*openResult, error) {
	total := int64(0)
	for _, c := range wr.chunks {
		total += int64(c.tuples)
	}
	res := &openResult{}
	var before map[string]float64
	if scrape {
		m, err := srv.scrape("aq_wire_latency_ms_sum", "aq_wire_latency_ms_count")
		if err != nil {
			return nil, err
		}
		before = m
	}
	schedule := time.Duration(len(wr.chunks)) * openTick
	t0 := time.Now()
	done := make(chan error, 1)
	go func() {
		lastScrape := t0
		for {
			sts, err := srv.statuses()
			if err != nil {
				done <- err
				return
			}
			at := time.Now()
			minIn, byName, err := slowest(w, sts)
			if err != nil {
				done <- err
				return
			}
			el := at.Sub(t0)
			if el <= schedule {
				res.lagMS = append(res.lagMS, scheduleLagMS(el.Seconds(), float64(rate), total, minIn-base))
			}
			if scrape && at.Sub(lastScrape) >= scrapeEvery && el <= schedule {
				lastScrape = at
				m, err := srv.scrape("aq_fanout_lag_batches", "aq_queue_depth")
				if err != nil {
					done <- err
					return
				}
				res.fanoutLag = append(res.fanoutLag, maxSeries(m, "aq_fanout_lag_batches"))
				res.queueDepth = append(res.queueDepth, maxSeries(m, "aq_queue_depth"))
			}
			if minIn-base >= total && el > schedule {
				res.final = byName
				done <- nil
				return
			}
			if at.After(deadline) {
				done <- fmt.Errorf("open loop did not drain by the deadline: slowest query at %d of %d", minIn-base, total)
				return
			}
			time.Sleep(openPoll)
		}
	}()
	for i := range wr.chunks {
		due := t0.Add(time.Duration(i+1) * openTick)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		res.latenessMS = append(res.latenessMS, float64(now.Sub(due))/1e6)
		wr.stamp(i, now)
		if _, err := conn.Write(wr.bytes(i)); err != nil {
			<-done
			return nil, err
		}
	}
	if err := <-done; err != nil {
		return nil, err
	}
	if scrape {
		m, err := srv.scrape("aq_wire_latency_ms_sum", "aq_wire_latency_ms_count")
		if err != nil {
			return nil, err
		}
		res.wireLatSum = sumSeries(m, "aq_wire_latency_ms_sum") - sumSeries(before, "aq_wire_latency_ms_sum")
		res.wireLatCnt = sumSeries(m, "aq_wire_latency_ms_count") - sumSeries(before, "aq_wire_latency_ms_count")
	}
	return res, nil
}
