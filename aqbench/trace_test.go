package main

import (
	"path/filepath"
	"testing"
)

// TestSelfTimesNested checks the self-time arithmetic on a hand-built
// tree: a batch root with sequential children, one of which has its own
// overlapping and overrunning children.
func TestSelfTimesNested(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "decode", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "fanout", Start: 30, End: 90},
		{ID: 4, Parent: 3, Name: "handler", Start: 35, End: 55},
		{ID: 5, Parent: 3, Name: "window", Start: 50, End: 70},   // overlaps handler by 5
		{ID: 6, Parent: 3, Name: "durable", Start: 85, End: 95},  // runs 5 past its parent
		{ID: 7, Parent: 0, Name: "fanout", Start: 200, End: 210}, // a second root, no children
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"root":    100 - 20 - 60, // children cover [10,90)
		"decode":  20,
		"fanout":  (60 - 35 - 5) + 10, // children cover [35,70) and [85,90); plus the childless root
		"handler": 20,
		"window":  20,
		"durable": 10,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%s] = %d, want %d", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d names, want %d: %v", len(got), len(want), got)
	}
}

// TestRecorder checks that spans nest by id and that a nil recorder is a
// no-op, as the untraced replay relies on.
func TestRecorder(t *testing.T) {
	var off *recorder
	if id := off.begin("x", 0); id != 0 {
		t.Fatalf("nil recorder returned id %d", id)
	}
	off.end(0)

	r := newRecorder("run-1", 4)
	root := r.begin("root", 0)
	child := r.begin("child", root)
	r.end(child)
	r.end(root)
	if len(r.spans) != 2 || r.spans[1].Parent != root || r.spans[0].Run != "run-1" {
		t.Fatalf("spans = %+v", r.spans)
	}
	if s := r.spans[0]; s.End < r.spans[1].End || s.Start > r.spans[1].Start {
		t.Errorf("child %+v not inside root %+v", r.spans[1], s)
	}
	if err := r.write(filepath.Join(t.TempDir(), "spans.jsonl")); err != nil {
		t.Fatal(err)
	}
}
