package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// A query's spans as the traced run records them: a served request, the
// layer under it, a two-way fan-out, and two sequential leaves under the
// slower branch.
func exampleSpans() []span {
	return []span{
		{ID: 1, Parent: 0, Name: "serve.http_query", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Name: "dehealth.query_user", Start: 1000, End: 1700},
		{ID: 3, Parent: 2, Name: "shard.topk", Parallel: true, Start: 1700, End: 2000}, // 300: the faster shard
		{ID: 4, Parent: 2, Name: "shard.topk", Parallel: true, Start: 2000, End: 2500}, // 500: the critical path
		{ID: 5, Parent: 4, Name: "similarity.prepare", Start: 2500, End: 2550},         // 50
		{ID: 6, Parent: 4, Name: "similarity.score", Start: 2550, End: 2950},           // 400
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	self := newSpanTree(exampleSpans()).self
	for id, want := range map[int]int64{
		1: 300, // 1000 - 700
		2: 200, // 700 - the slower of the two parallel shard scans (500)
		3: 300, // a leaf keeps its whole duration
		4: 50,  // 500 - (50 + 400): sequential children add up
		5: 50,
		6: 400,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestSelfTimeNeverNegative(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "serve.http_query", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "dehealth.query_user", Start: 100, End: 250}, // outran its parent
	}
	tree := newSpanTree(spans)
	if got := tree.self[1]; got != 0 {
		t.Errorf("self time of a parent outrun by its child = %d, want 0", got)
	}
	// The incoherent measurement shows in the critical-path sum instead.
	if got := tree.criticalSelfSum(spans[0]); got != 150 {
		t.Errorf("critical self sum = %d, want 150", got)
	}
}

func TestCriticalSelfSumTelescopes(t *testing.T) {
	spans := exampleSpans()
	// 300 + 200 + 50 + 50 + 400: the faster shard is off the critical path.
	if got := newSpanTree(spans).criticalSelfSum(spans[0]); got != spans[0].dur() {
		t.Errorf("critical self sum = %d, want the root's duration %d", got, spans[0].dur())
	}
}

// Like-named children that are not marked parallel ran one after another:
// the exact batched scan walks its shards in sequence.
func TestSelfTimeSequentialSiblingsAddUp(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "shard.world_batch", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Name: "shard.topk_batch", Start: 1000, End: 1400},
		{ID: 3, Parent: 1, Name: "shard.topk_batch", Start: 1400, End: 1900},
	}
	tree := newSpanTree(spans)
	if got := tree.self[1]; got != 100 {
		t.Errorf("self time = %d, want 1000 - 400 - 500", got)
	}
	if got := len(tree.criticalPath(spans[0])); got != 3 {
		t.Errorf("critical path holds %d spans, want all 3", got)
	}
}

func TestRecorderWritesSpans(t *testing.T) {
	rec := newRecorder()
	root := rec.time(0, 7, "serve.http_query", false, func() { time.Sleep(time.Millisecond) })
	calls := 0
	child := rec.warm(root, 7, "dehealth.query_user", true, func() { calls++ })
	if root != 1 || child != 2 || calls < 3 {
		t.Fatalf("span ids = %d, %d after %d calls, want 1, 2 after at least two warm calls and a timed one", root, child, calls)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := rec.write(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) != 2 || doc.Spans[1].Parent != root || !doc.Spans[1].Parallel || doc.Spans[0].Query != 7 || doc.Spans[0].dur() < int64(time.Millisecond) {
		t.Errorf("trace file spans = %+v", doc.Spans)
	}
}
