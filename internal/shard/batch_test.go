package shard

import (
	"runtime"
	"slices"
	"testing"

	"dehealth/internal/index"
)

// TestTopKBatchParity pins the batched shard scan's bit-identity contract:
// TopKBatch(users, k) must equal one TopK(u, k) per user — same candidates,
// same scores, same order — across batch widths (including repeats, Q=1,
// and batches wider than the shard), k values, and shard windows.
func TestTopKBatchParity(t *testing.T) {
	auxS, auxUDA, base, anonN := testWorld(t, 24, 6, 17)
	auxN := auxUDA.NumNodes()
	for _, shards := range []int{1, 3} {
		w := New(base, auxUDA, auxS, shards)
		for _, sh := range w.Shards() {
			for _, k := range []int{0, 1, 3, auxN + 5} {
				for _, users := range [][]int{
					{},
					{0},
					{3, 3, 3},
					{1, 0, anonN - 1, 2, 1, 5, 7, 4, 6, 0},
				} {
					got := sh.TopKBatch(users, k)
					if len(got) != len(users) {
						t.Fatalf("TopKBatch returned %d results for %d users", len(got), len(users))
					}
					for qi, u := range users {
						want := sh.TopK(u, k)
						if len(got[qi]) != len(want) {
							t.Fatalf("shards=%d k=%d Q=%d u=%d: batch len %d, TopK len %d",
								shards, k, len(users), u, len(got[qi]), len(want))
						}
						for j := range want {
							if got[qi][j] != want[j] {
								t.Fatalf("shards=%d k=%d u=%d pos %d: batch %+v, TopK %+v",
									shards, k, u, j, got[qi][j], want[j])
							}
						}
					}
				}
			}
		}
	}
}

// TestQueryBatchWorkerCounts checks every engine's batch loop against the
// plain world's QueryUser, bit for bit — the batched kernel (plain world
// QueryBatch), the pruner (WithPruning world QueryBatch) and the cursor
// walk at theta 1 (WithApprox world QueryBatchApprox) — over every shape
// the schedule takes: worlds of 1 to 5 shards, worker budgets from
// sequential to more workers than cells, and batches narrower than the
// budget (widths 1 and 2, where only the shard fan-out can use the spare
// workers), one wider than it, one of many chunks per worker, and one
// wider than a kernel pass (maxBatchQ).
func TestQueryBatchWorkerCounts(t *testing.T) {
	auxS, auxUDA, base, anonN := testWorld(t, 24, 6, 19)
	for _, shards := range []int{1, 2, 3, 4, 5} {
		w := New(base, auxUDA, auxS, shards)
		want := make([][]Candidate, anonN)
		for u := range want {
			want[u] = w.QueryUser(u, 5)
		}
		aw := w.WithApprox(index.Config{}, nil)
		engines := []struct {
			name  string
			batch func(users []int, k, workers int) [][]Candidate
		}{
			{"scan", w.QueryBatch},
			{"pruned", w.WithPruning(index.Config{}, nil).QueryBatch},
			{"approx", func(users []int, k, workers int) [][]Candidate {
				return aw.QueryBatchApprox(users, k, workers, index.ApproxParams{Theta: 1})
			}},
		}
		for _, workers := range []int{0, 1, 2, 7, maxBatchQ + 20} {
			resolved := workers
			if resolved <= 0 {
				resolved = runtime.GOMAXPROCS(0)
			}
			for _, width := range []int{1, 2, resolved + 1, 2*anonN + 3, maxBatchQ + 5} {
				users := make([]int, width)
				for i := range users {
					users[i] = (i + width) % anonN
				}
				for _, e := range engines {
					got := e.batch(users, 5, workers)
					if len(got) != width {
						t.Fatalf("%s shards=%d workers=%d width=%d: %d results", e.name, shards, workers, width, len(got))
					}
					for i, u := range users {
						if !slices.Equal(got[i], want[u]) {
							t.Fatalf("%s shards=%d workers=%d width=%d u=%d: %+v, want %+v",
								e.name, shards, workers, width, u, got[i], want[u])
						}
					}
				}
			}
		}
	}
}

// TestTopKBatchAllocs pins the pooled scratch: a steady-state TopKBatch
// allocates only its result slices (and the final sorts), independent of
// how many scoreBlock passes the shard scan makes.
func TestTopKBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop Puts at random")
	}
	auxS, auxUDA, base, anonN := testWorld(t, 24, 6, 23)
	w := New(base, auxUDA, auxS, 1)
	sh := w.Shards()[0]
	const q, k = 8, 5
	users := make([]int, q)
	sh.TopKBatch(users, k) // warm the pool and lazy scorer state
	off := 0
	allocs := testing.AllocsPerRun(50, func() {
		for i := range users {
			users[i] = (off + i) % anonN
		}
		off++
		sh.TopKBatch(users, k)
	})
	// Result slices: 1 outer + q inner + q sorted copies; sortCandidates'
	// sort.Slice adds a bounded per-call overhead. Anything scaling with
	// the scan (per-block buffers, profiles, tables) would blow past this.
	if max := float64(4*q + 4); allocs > max {
		t.Fatalf("TopKBatch allocates %v times per batch, want <= %v", allocs, max)
	}
}

// TestScanBatchObserver pins the observer contract the offline Top-K phase
// builds on: every query's whole similarity row arrives exactly once, in
// ascending global row order, with the scores the gather kernel computes,
// and the returned candidates are QueryBatch's — at one shard and several.
func TestScanBatchObserver(t *testing.T) {
	auxS, auxUDA, base, anonN := testWorld(t, 24, 6, 29)
	auxN := auxUDA.NumNodes()
	users := []int{2, 0, anonN - 1, 2}
	for _, shards := range []int{1, 3, auxN} {
		w := New(base, auxUDA, auxS, shards)
		next := make([]int, len(users))
		got := w.ScanBatch(users, 4, func(q, lo int, scores []float64) {
			if lo != next[q] || len(scores) == 0 {
				t.Fatalf("shards=%d query %d: block at row %d (%d scores), want row %d", shards, q, lo, len(scores), next[q])
			}
			for i, s := range scores {
				if want := base.Score(users[q], lo+i); s != want {
					t.Fatalf("shards=%d query %d row %d: observed %v, Score %v", shards, q, lo+i, s, want)
				}
			}
			next[q] += len(scores)
		})
		want := w.QueryBatch(users, 4, 1)
		for q := range users {
			if next[q] != auxN {
				t.Fatalf("shards=%d query %d: observed %d rows, want %d", shards, q, next[q], auxN)
			}
			if !slices.Equal(got[q], want[q]) {
				t.Fatalf("shards=%d query %d: %+v, QueryBatch %+v", shards, q, got[q], want[q])
			}
		}
	}
}
