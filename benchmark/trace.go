package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer: its name ("layer.operation"), the
// query it belongs to, when it started and ended (nanoseconds since the
// recorder was created), and the span that caused it (0 for a root).
//
// The benchmark records spans from outside the packages, around one call
// per layer boundary, one layer at a time on an idle system. A child is
// therefore a separate execution of the work its parent contains, and its
// interval follows the parent's rather than nesting inside it; self times
// are computed from durations. Parallel marks a child that, inside its
// parent, runs at the same time as its like-named siblings (the per-shard
// scans of a fan-out, the router's per-shard RPCs).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Query    int    `json:"query"`
	Name     string `json:"name"`
	Parallel bool   `json:"parallel,omitempty"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its id for children to cite.
func (r *recorder) add(s span, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	s.Start, s.End = start.Sub(r.epoch).Nanoseconds(), end.Sub(r.epoch).Nanoseconds()
	r.spans = append(r.spans, s)
	return s.ID
}

// time runs f as a span under parent and returns the span's id; parallel
// marks the span as one branch of a fan-out.
func (r *recorder) time(parent, query int, name string, parallel bool, f func()) int {
	start := time.Now()
	f()
	return r.add(span{Parent: parent, Query: query, Name: name, Parallel: parallel}, start, time.Now())
}

// warmUp runs f untimed a few times, so that a measurement of f which
// follows sees it as it runs under load, on awake cores with its data in
// cache. Without that, whichever layer is timed first after a served
// request's idle wait, or first on a copy of the world the previous call
// did not touch, absorbs the wake-up and the cache refill as if they were
// its own cost (1.5 ms on a 3 ms scan, when measured).
func warmUp(f func()) {
	start := time.Now()
	for runs := 0; runs < 2 || (runs < 8 && time.Since(start) < 5*time.Millisecond); runs++ {
		f()
	}
}

// warm is time for an in-process call, warmed up first.
func (r *recorder) warm(parent, query int, name string, parallel bool, f func()) int {
	warmUp(f)
	return r.time(parent, query, name, parallel, f)
}

// spanTree is a set of spans indexed for analysis: each span's children
// (roots under parent 0) and self time.
type spanTree struct {
	spans    []span
	children map[int][]span
	// self is each span's self time in nanoseconds, by span id: its
	// duration minus what its children cover. A child measured slower than
	// its parent (separate executions jitter) leaves a self time of zero,
	// not a negative one.
	self map[int]int64
}

func newSpanTree(spans []span) *spanTree {
	t := &spanTree{spans: spans, children: map[int][]span{}, self: make(map[int]int64, len(spans))}
	for _, s := range spans {
		t.children[s.Parent] = append(t.children[s.Parent], s)
	}
	for _, s := range spans {
		total, _ := covered(t.children[s.ID])
		t.self[s.ID] = max(s.dur()-total, 0)
	}
	return t
}

// covered is how much of a span's duration its children account for: the
// sequential ones add up, and of each group of parallel like-named ones
// only the slowest counts, because that is what the parent waited for.
// critical lists the children that make up that time.
func covered(children []span) (total int64, critical []span) {
	slowest := map[string]span{}
	for _, c := range children {
		if !c.Parallel {
			total += c.dur()
			critical = append(critical, c)
		} else if best, ok := slowest[c.Name]; !ok || c.dur() > best.dur() {
			slowest[c.Name] = c
		}
	}
	for _, c := range slowest {
		total += c.dur()
		critical = append(critical, c)
	}
	return total, critical
}

// criticalPath lists the spans one root's duration is made of: the root,
// and under every span its sequential children and the slowest branch of
// each fan-out.
func (t *spanTree) criticalPath(root span) []span {
	path := []span{root}
	_, critical := covered(t.children[root.ID])
	for _, c := range critical {
		path = append(path, t.criticalPath(c)...)
	}
	return path
}

// criticalSelfSum adds up the self times along a root's critical path. It
// equals the root's duration exactly when no child outran its parent, so
// the distance between the two says how coherent the layer-by-layer
// measurements of that query are.
func (t *spanTree) criticalSelfSum(root span) int64 {
	sum := int64(0)
	for _, s := range t.criticalPath(root) {
		sum += t.self[s.ID]
	}
	return sum
}

// write stores the spans as one JSON document.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	blob, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
