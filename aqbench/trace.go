package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer during the traced replay. Spans of
// one replay share Run; Parent is the index+1 of the enclosing span (0 for
// a root), so the tree can be rebuilt after the run.
type span struct {
	Run    string `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory. A nil *recorder records nothing, so
// the untraced replay runs the same code with tracing compiled in but
// off.
type recorder struct {
	run   string
	t0    time.Time
	spans []span
}

func newRecorder(run string, capHint int) *recorder {
	return &recorder{run: run, t0: time.Now(), spans: make([]span, 0, capHint)}
}

// begin opens a span under parent (0 = root) and returns its id.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{Run: r.run, ID: len(r.spans) + 1, Parent: parent,
		Name: name, Start: int64(time.Since(r.t0))})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = int64(time.Since(r.t0))
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval covered by its direct children. Overlapping children (a
// layer that fans out concurrently) are counted once, and a child running
// past its parent's end is clipped to it.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}
