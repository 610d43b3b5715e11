package shard

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dehealth/internal/corpus"
	"dehealth/internal/features"
	"dehealth/internal/index"
	"dehealth/internal/similarity"
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
						want := sh.TopKBatch([]int{u}, k)[0]
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

// TestQueryBatchWorkerCounts checks every engine's batch loop against a
// full-sort oracle, bit for bit — the batched kernel (plain world
// QueryBatch), the pruner handing dense queries to the scan (WithPruning
// world QueryBatch) and the pruner kept on its banded path
// (MaxCandidateFrac 1) — over every shape the schedule takes: worlds of 1
// to 5 shards, worker budgets from sequential to more workers than cells,
// batches narrower than the budget (widths 1 and 2, where only the shards
// can use the spare workers), one wider than it, one of many chunks per
// worker, and one wider than a kernel pass (maxBatchQ). At workers 0 and 1
// k also runs from one to beyond the world, including k just above the
// smallest shard, where clamped shards sit beside shards that publish to
// the shared floors.
func TestQueryBatchWorkerCounts(t *testing.T) {
	auxS, auxUDA, base, anonN := testWorld(t, 24, 6, 19)
	auxN := auxUDA.NumNodes()
	oracle := make([][]Candidate, anonN)
	for u := range oracle {
		oracle[u] = oracleTopK(base, u, auxN)
	}
	for _, shards := range []int{1, 2, 3, 4, 5} {
		w := New(base, auxUDA, auxS, shards)
		smallest := auxN
		for _, sh := range w.Shards() {
			smallest = min(smallest, sh.NumUsers())
		}
		engines := []struct {
			name  string
			batch func(users []int, k, workers int) [][]Candidate
		}{
			{"scan", w.QueryBatch},
			{"pruned", w.WithPruning(index.Config{}, nil).QueryBatch},
			{"banded", w.WithPruning(index.Config{MaxCandidateFrac: 1}, nil).QueryBatch},
		}
		for _, workers := range []int{0, 1, 2, 7, maxBatchQ + 20} {
			resolved := workers
			if resolved <= 0 {
				resolved = cap(w.scanTokens) + 1
			}
			for _, width := range []int{1, 2, resolved + 1, 2*anonN + 3, maxBatchQ + 5} {
				users := make([]int, width)
				for i := range users {
					users[i] = (i + width) % anonN
				}
				ks := []int{5}
				if workers <= 1 { // both schedules: helper goroutines and every cell inline
					ks = []int{1, 5, smallest + 1, auxN + 5}
				}
				for _, k := range ks {
					for _, e := range engines {
						got := e.batch(users, k, workers)
						if len(got) != width {
							t.Fatalf("%s shards=%d workers=%d width=%d k=%d: %d results", e.name, shards, workers, width, k, len(got))
						}
						for i, u := range users {
							if want := oracle[u][:min(k, auxN)]; !slices.Equal(got[i], want) {
								t.Fatalf("%s shards=%d workers=%d width=%d k=%d u=%d: %+v, oracle %+v",
									e.name, shards, workers, width, k, u, got[i], want)
							}
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

// goid returns the calling goroutine's id, read from its stack header
// ("goroutine 7 [running]:").
func goid() string {
	var buf [32]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestScanBatchObserver pins the observer contract the offline Top-K phase
// builds on, at workers 1, 2 and 0 on a world with idle scan tokens, on one
// shard, three and one per auxiliary user: every query's whole similarity
// row arrives exactly once, in ascending global row order, with the scores
// the gather kernel computes, never from two goroutines at once (q counts
// the caller's users, so the duplicate user 2 is two rows), and the
// returned lists are QueryBatch's. Then, with every token drained, a
// workers-0 call must observe every row on the caller's goroutine.
func TestScanBatchObserver(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // three scan tokens
	auxS, auxUDA, base, anonN := testWorld(t, 24, 6, 29)
	auxN := auxUDA.NumNodes()
	users := make([]int, 2*maxBatchQ+3) // three chunks at workers 1
	for i := range users {
		users[i] = (i * 5) % anonN
	}
	users[0], users[1] = 2, 2
	// scan runs one ScanBatch and checks the rows it observes, returning
	// the goroutines they were observed on.
	scan := func(w *World, what string, workers int) map[string]bool {
		next, busy := make([]int, len(users)), make([]atomic.Bool, len(users))
		var mu sync.Mutex
		seen := map[string]bool{}
		got := w.ScanBatch(users, 4, workers, func(q, lo int, scores []float64) {
			if !busy[q].CompareAndSwap(false, true) {
				t.Errorf("%s: query %d observed from two goroutines at once", what, q)
				return
			}
			defer busy[q].Store(false)
			mu.Lock()
			seen[goid()] = true
			mu.Unlock()
			if lo != next[q] || len(scores) == 0 {
				t.Errorf("%s query %d: block at row %d (%d scores), want row %d", what, q, lo, len(scores), next[q])
				return
			}
			for i, s := range scores {
				if want := base.Score(users[q], lo+i); s != want {
					t.Errorf("%s query %d row %d: observed %v, Score %v", what, q, lo+i, s, want)
				}
			}
			next[q] += len(scores)
		})
		want := w.QueryBatch(users, 4, 1)
		for q := range users {
			if next[q] != auxN {
				t.Fatalf("%s query %d: observed %d rows, want %d", what, q, next[q], auxN)
			}
			if !slices.Equal(got[q], want[q]) {
				t.Fatalf("%s query %d: %+v, QueryBatch %+v", what, q, got[q], want[q])
			}
		}
		return seen
	}
	for _, shards := range []int{1, 3, auxN} {
		w := New(base, auxUDA, auxS, shards)
		for _, workers := range []int{1, 2, 0} {
			scan(w, fmt.Sprintf("shards=%d workers=%d", shards, workers), workers)
		}
	}
	w := New(base, auxUDA, auxS, 3)
	for range cap(w.scanTokens) {
		<-w.scanTokens
	}
	if seen := scan(w, "drained tokens", 0); len(seen) != 1 || !seen[goid()] {
		t.Fatalf("a batch on drained tokens observed rows on goroutines %v, want only the caller's %s", seen, goid())
	}
}

// TestScanBatchWorkersBound pins ScanBatch's core budget through the
// observer: on a world built with three scan tokens, every observation
// reads how many tokens the call holds (the channel's cap-len less any the
// test holds back). workers 1 must claim none; no call may hold more than
// min(workers-1, idle tokens); and every token must be back when the call
// returns. The batch has four chunks at every budget, so a loop that
// spawned a helper per spare cell regardless of workers would be seen.
func TestScanBatchWorkersBound(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	auxS, auxUDA, base, anonN := testWorld(t, 24, 6, 31)
	users := make([]int, 4*maxBatchQ)
	for i := range users {
		users[i] = i % anonN
	}
	for _, shards := range []int{1, 3} {
		w := New(base, auxUDA, auxS, shards)
		tokens := w.scanTokens
		if cap(tokens) != 3 {
			t.Fatalf("a world built at GOMAXPROCS 4 has %d scan tokens, want 3", cap(tokens))
		}
		for _, tc := range []struct{ workers, held int }{
			{1, 0}, {2, 0}, {3, 0}, {0, 0}, {0, 2}, {3, 2}, {2, 3},
		} {
			for range tc.held {
				<-tokens
			}
			resolved := tc.workers
			if resolved <= 0 {
				resolved = cap(tokens) + 1
			}
			bound := min(resolved-1, cap(tokens)-tc.held)
			var most atomic.Int64
			w.ScanBatch(users, 3, tc.workers, func(int, int, []float64) {
				claimed := int64(cap(tokens) - len(tokens) - tc.held)
				for m := most.Load(); claimed > m && !most.CompareAndSwap(m, claimed); m = most.Load() {
				}
			})
			if got := most.Load(); got > int64(bound) {
				t.Errorf("shards=%d workers=%d with %d tokens held: the call held %d tokens, want at most %d", shards, tc.workers, tc.held, got, bound)
			}
			if idle := len(tokens); idle != cap(tokens)-tc.held {
				t.Fatalf("shards=%d workers=%d: %d of %d tokens idle after the call, want %d", shards, tc.workers, idle, cap(tokens), cap(tokens)-tc.held)
			}
			for range tc.held {
				tokens <- struct{}{}
			}
		}
	}
}

// TestScanFloorMatchesFullRows pins the threshold-aware scan to the scan
// that scores every row: with a no-op observer the kernel gets no floors
// and produces whole exact rows, without one it may answer rows below a
// heap's k-th score with their bounds — and both must return the same
// lists, bit for bit, at batch widths 1, 8 and 64, on one shard and three,
// over a freshly built scorer and one restored from its parts (the
// snapshot path), before and after users are appended behind the world.
// The fixture is dense (every shard spans several score blocks and carries
// presence bitsets), so the filter must also be seen to fire: a scan that
// skips nothing would pass every parity test while the optimization is
// silently off.
func TestScanFloorMatchesFullRows(t *testing.T) {
	anonS, auxS, base := testStores(t, 2000, 2, 37)
	auxUDA := auxS.UDA()
	if auxUDA.NumNodes() <= 3*scoreBlock {
		t.Fatalf("fixture has %d auxiliary users; each of three shards must span more than one score block", auxUDA.NumNodes())
	}
	const k = 5
	noop := func(int, int, []float64) {}
	check := func(stage string) {
		restored, err := similarity.NewScorerFromParts(anonS.UDA(), auxUDA, testConfig, base.Parts())
		if err != nil {
			t.Fatal(err)
		}
		anonN := anonS.UDA().NumNodes()
		for name, sc := range map[string]*similarity.Scorer{"built": base, "restored": restored} {
			for _, shards := range []int{1, 3} {
				for _, sh := range New(sc, auxUDA, auxS, shards).Shards() {
					for _, width := range []int{1, 8, maxBatchQ} {
						users := make([]int, width)
						for i := range users {
							users[i] = anonN - 1 - (i*131+width)%anonN // reaches the appended users first
						}
						full, fast := make([][]Candidate, width), make([][]Candidate, width)
						if n := sh.scan(users, k, nil, noop, full); n != 0 {
							t.Fatalf("%s %s shards=%d width=%d: observed scan skipped %d rows, want whole rows", stage, name, shards, width, n)
						}
						if n := sh.scan(users, k, nil, nil, fast); n == 0 {
							t.Fatalf("%s %s shards=%d width=%d: the scan skipped no row of shard [%d, %d)", stage, name, shards, width, sh.Lo, sh.Hi)
						}
						for q := range users {
							if !slices.Equal(fast[q], full[q]) {
								t.Fatalf("%s %s shards=%d width=%d u=%d: %+v, whole rows give %+v", stage, name, shards, width, users[q], fast[q], full[q])
							}
						}
					}
				}
			}
		}
	}
	check("built")
	texts := auxS.Dataset.Posts
	if _, err := anonS.Append([]features.UserPosts{
		{User: corpus.User{Name: "late-1", TrueIdentity: -1}, Posts: []features.IncomingPost{
			{Thread: 0, Text: texts[0].Text}, {Thread: 1, Text: texts[1].Text},
		}},
		{User: corpus.User{Name: "late-2", TrueIdentity: -1}, Posts: []features.IncomingPost{
			{Thread: features.NewThread, Text: texts[2].Text},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	if added := base.SyncAnon(); added != 2 {
		t.Fatalf("SyncAnon added %d, want 2", added)
	}
	check("appended")
}

// scanFixture is BenchmarkShardScan's world: a synthetic WebMD-like forum
// of 3,000 accounts with Zipf-distributed posts, split in half, so the
// auxiliary side is one dense window of ~2,000 users.
func scanFixture(tb testing.TB) (auxS *features.Store, base *similarity.Scorer, anonN int) {
	anonS, auxS, base := testStores(tb, 3000, 0, 41)
	return auxS, base, anonS.UDA().NumNodes()
}

// TestScanSkipShare pins how much of BenchmarkShardScan's world the floors
// answer with a bound: at least 0.9 of the (query, row) pairs at widths 1
// and 8. A floor refreshed only every few hundred rows leaves the first
// block of every scan unfiltered and falls to ~0.73.
func TestScanSkipShare(t *testing.T) {
	auxS, base, anonN := scanFixture(t)
	sh := New(base, auxS.UDA(), auxS, 1).Shards()[0]
	for _, width := range []int{1, 8} {
		users, res := make([]int, width), make([][]Candidate, width)
		skipped, pairs := 0, 0
		for i := 0; i < 16; i++ {
			for q := range users {
				users[q] = (i*width + q) % anonN
			}
			skipped += sh.scan(users, 10, nil, nil, res)
			pairs += width * sh.NumUsers()
		}
		if share := float64(skipped) / float64(pairs); share < 0.9 {
			t.Errorf("width=%d: the floors answered %.4f of the pairs with a bound, want >= 0.9", width, share)
		}
	}
}

// BenchmarkShardScan times the one whole-window scan on scanFixture's
// world and reports the cost per (query, row) pair next to the share of
// pairs the floors let the kernel answer with a bound:
//   - width=Q: a lone query, a group of eight and a full kernel batch;
//   - observed/width=Q: the same scans under an observer, which sets no
//     floors and scores whole rows (the offline Top-K DA phase);
//   - world/shards=2: a one-user World.QueryBatch on a 2-shard world, whose
//     shards share one floor. Its skipped/row comes from the same queries
//     scanned inline (shard by shard through one cell) over a fixed
//     sample of 64 users after the timer stops, so it repeats exactly.
func BenchmarkShardScan(b *testing.B) {
	auxS, base, anonN := scanFixture(b)
	sh := New(base, auxS.UDA(), auxS, 1).Shards()[0]
	noop := func(int, int, []float64) {}
	for _, observe := range []func(int, int, []float64){nil, noop} {
		for _, width := range []int{1, 8, maxBatchQ} {
			name := fmt.Sprintf("width=%d", width)
			if observe != nil {
				name = "observed/" + name
			}
			b.Run(name, func(b *testing.B) {
				users, res := make([]int, width), make([][]Candidate, width)
				skipped := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for q := range users {
						users[q] = (i*width + q) % anonN
					}
					skipped += sh.scan(users, 10, nil, observe, res)
				}
				pairs := float64(b.N * width * sh.NumUsers())
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pairs, "ns/pair")
				b.ReportMetric(float64(skipped)/pairs, "skipped/row")
			})
		}
	}
	b.Run("world/shards=2", func(b *testing.B) {
		w := New(base, auxS.UDA(), auxS, 2)
		auxN := w.AuxUsers()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.QueryBatch([]int{i % anonN}, 10, 0)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*auxN), "ns/pair")
		b.StopTimer()
		const sample = 64
		skipped, res := 0, make([][]Candidate, 1)
		for u := 0; u < sample; u++ {
			cells := newFloorCells(1)
			for _, sh := range w.Shards() {
				skipped += sh.scan([]int{u % anonN}, 10, cells, nil, res)
			}
		}
		b.ReportMetric(float64(skipped)/float64(sample*auxN), "skipped/row")
	})
}
