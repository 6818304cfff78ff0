package main

import (
	"fmt"

	"repro/internal/cql"
	"repro/internal/gen"
	"repro/internal/netstream"
	"repro/internal/stream"
)

// querySpec is one continuous query a workload registers over /api/.
type querySpec struct {
	name string
	cql  string
	stmt cql.Query // parsed once at set-up
}

// workload is one traffic mix. The server sees only the tuples the
// workload generates from the run's seed.
type workload struct {
	name   string
	source string
	keys   int // >1: uniform random keys in [0, keys)
	// closedPerSec sizes the closed loop: N = closedPerSec × --seconds.
	// It is about half of what the server sustains on a 2-vCPU host, so
	// the closed loop takes roughly half of --seconds; on aq-wire, whose
	// figures the host's noise moves most, it is about all of it.
	closedPerSec int
	// openRate is the open loop's absolute offered rate in tuples/s,
	// about a third of the closed-loop throughput the unchanged server
	// reaches on a 2-vCPU host (at half, open-loop lag was too noisy to
	// bound). It is fixed here so later changes are measured at the same
	// offered load.
	openRate int
	// theta is the workload's quality bound (0: fixed-slack queries).
	theta float64
	// durable runs the server with -durable-dir and -shards 2.
	durable bool
	queries []querySpec
}

var workloads = []*workload{
	{
		name: "aq-wire", source: "sensors",
		closedPerSec: 70_000, openRate: 25_000, theta: 0.01,
		queries: []querySpec{
			{name: "aq-sum", cql: `SELECT sum(value) FROM sensors WINDOW 10s SLIDE 1s QUALITY 1%`},
		},
	},
	{
		name: "kslack-fanout4", source: "feed",
		closedPerSec: 200_000, openRate: 160_000,
		queries: []querySpec{
			{name: "ks-sum", cql: `SELECT sum(value) FROM feed WINDOW 10s SLIDE 1s HANDLER kslack(2s)`},
			{name: "ks-max", cql: `SELECT max(value) FROM feed WINDOW 10s SLIDE 10s HANDLER kslack(2s)`},
			{name: "ks-p95", cql: `SELECT p95(value) FROM feed WINDOW 60s SLIDE 10s HANDLER kslack(2s)`},
			{name: "ks-avg", cql: `SELECT avg(value) FROM feed WINDOW 1s SLIDE 1s HANDLER kslack(2s)`},
		},
	},
	{
		name: "grouped-durable", source: "users", keys: 256, durable: true,
		closedPerSec: 150_000, openRate: 110_000,
		queries: []querySpec{
			{name: "user-sum", cql: `SELECT sum(value) FROM users GROUP BY key WINDOW 10s SLIDE 1s HANDLER kslack(200ms)`},
			{name: "total-sum", cql: `SELECT sum(value) FROM users WINDOW 10s SLIDE 1s HANDLER kslack(2s)`},
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			for i := range w.queries {
				q := &w.queries[i]
				st, err := cql.Parse(q.cql)
				if err != nil {
					return nil, fmt.Errorf("workload %s query %s: %w", w.name, q.name, err)
				}
				q.stmt = st
			}
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// serverFlags are the aqserver flags beyond the address pair. The
// compiled-in demo feeds are throttled to one 128-tuple batch per 128 s.
func (w *workload) serverFlags(durableDir string) []string {
	f := []string{"-api", "-obs", "-rate", "1", "-n", "1000"}
	if w.durable {
		f = append(f, "-durable-dir", durableDir, "-shards", "2")
	}
	return f
}

// generate builds one stream segment in arrival order: the first n
// tuples to arrive of a longer sensor stream (Pareto delays, mean 500
// ms), shifted by base in both event and arrival time. Cutting by arrival
// keeps the segment's end like its middle; the last n tuples of a
// finite stream would instead be a pile-up of its heaviest stragglers.
func (w *workload) generate(n int, seed uint64, base stream.Time) []stream.Tuple {
	c := gen.Sensor(n+n/100+1000, seed)
	c.NumKeys = w.keys
	tuples := c.Arrivals()[:n]
	for i := range tuples {
		tuples[i].TS += base
		tuples[i].Arrival += base
	}
	return tuples
}

// segment is the closed-loop input as the server receives it: the
// tuples, a closing heartbeat at closeWM that releases everything the
// handlers hold, then a nudge: one straggler arriving at closeWM+1 and a
// heartbeat at closeWM+1.
//
// The straggler repeats the first tuple's event time and key with value
// 0, so every window operator drops it as late and no window changes. The
// nudge exists because aqserver's grouped runner (cq's concurrent engine)
// ships a partial batch of released tuples to its window stage only when
// that stage is idle or on the next release, and a partial source batch
// only on a heartbeat: the closing heartbeat's releases can stay parked,
// their windows unemitted, for as long as nothing else arrives. The
// harness sends the nudge once the server's window counts stop moving
// short of the reference — again if it is needed again; repeats change
// no window either. In the in-process reference the nudge also stamps
// the end-of-stream flush with an emission position past closeWM, which
// tells the windows the server emits (at or before closeWM) from the
// flush it never performs.
//
// Items are built on demand so only the compact tuples stay in memory.
type segment struct {
	tuples  []stream.Tuple
	closeWM stream.Time
}

// newSegment closes tuples with a heartbeat far enough past the last
// event time that every handler releases everything it holds, whatever
// slack it adapted to.
func newSegment(tuples []stream.Tuple) *segment {
	var maxTS stream.Time
	for _, t := range tuples {
		maxTS = max(maxTS, t.TS)
	}
	return &segment{tuples: tuples, closeWM: maxTS + 60*stream.Second}
}

// len counts items: every tuple, the closing heartbeat and the nudge.
func (s *segment) len() int { return len(s.tuples) + 3 }

func (s *segment) item(i int) stream.Item {
	switch i - len(s.tuples) {
	case 0:
		return stream.HeartbeatItem(s.closeWM)
	case 1:
		first := s.tuples[0]
		return stream.DataItem(stream.Tuple{TS: first.TS, Arrival: s.closeWM + 1,
			Seq: uint64(len(s.tuples)), Key: first.Key})
	case 2:
		return stream.HeartbeatItem(s.closeWM + 1)
	}
	return stream.DataItem(s.tuples[i])
}

// wireItems encodes items [from, to).
func (s *segment) wireItems(from, to int) []byte {
	var b []byte
	for i := from; i < to; i++ {
		b = netstream.AppendItem(b, s.item(i))
	}
	return b
}

// closing is the wire form of the closing heartbeat.
func (s *segment) closing() []byte { return s.wireItems(len(s.tuples), len(s.tuples)+1) }

// nudge is the wire form of the nudge: one straggler, one heartbeat.
func (s *segment) nudge() []byte { return s.wireItems(len(s.tuples)+1, s.len()) }

// source yields the segment's items.
func (s *segment) source() stream.Source {
	i := 0
	return stream.FuncSource(func() (stream.Item, bool) {
		if i == s.len() {
			return stream.Item{}, false
		}
		i++
		return s.item(i - 1), true
	})
}

// prefix returns the segment's first n tuples as data items.
func (s *segment) prefix(n int) []stream.Item {
	items := make([]stream.Item, min(n, len(s.tuples)))
	for i := range items {
		items[i] = stream.DataItem(s.tuples[i])
	}
	return items
}
