package dehealth

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"dehealth/internal/corpus"
)

// approxWorld prepares a closed-world split with the approximate tier on.
func approxWorld(t *testing.T, users int, seed int64, shards int, cfg ApproxConfig) *PreparedWorld {
	t.Helper()
	w := GenerateWorld(WorldConfig{WebMDUsers: users, HBUsers: users, Seed: seed})
	split := SplitClosedWorld(w.WebMD, 0.5, seed+1)
	opt := DefaultOptions()
	opt.MaxBigrams = 50
	opt.Shards = shards
	opt.Approx = cfg
	return PrepareWorld(split.Anon, split.Aux, opt)
}

// TestApproxPreparedWorldExactUnbounded is the public-layer exactness
// guarantee: a world prepared with the approximate tier at the degenerate
// knobs (Theta and Budget zero) answers every query — including after
// ingestion — bit-identically to a world without the tier. The tier with
// conservative knobs is a pure accelerator.
func TestApproxPreparedWorldExactUnbounded(t *testing.T) {
	opt := DefaultOptions()
	opt.MaxBigrams = 50
	opt.Landmarks = 5

	mkSplit := func() *Split {
		w := GenerateWorld(WorldConfig{WebMDUsers: 26, HBUsers: 26, Seed: 1021})
		return SplitClosedWorld(w.WebMD, 0.5, 1022)
	}
	plainSplit, approxSplit := mkSplit(), mkSplit()
	plain := PrepareWorld(plainSplit.Anon, plainSplit.Aux, opt)
	approxOpt := opt
	approxOpt.Approx = ApproxConfig{Enabled: true}
	approxOpt.Shards = 3
	approx := PrepareWorld(approxSplit.Anon, approxSplit.Aux, approxOpt)

	ingest := []UserPosts{
		{User: corpus.User{Name: "late-arrival", TrueIdentity: -1}, Posts: []IngestPost{
			{Thread: 0, Text: "the new medication finally started working for me"},
		}},
	}
	if _, err := plain.Ingest(ingest); err != nil {
		t.Fatal(err)
	}
	if _, err := approx.Ingest(ingest); err != nil {
		t.Fatal(err)
	}

	anon, _ := plain.Sizes()
	users := make([]int, anon)
	for i := range users {
		users[i] = i
	}
	wantBatch, err := plain.QueryBatch(users, 6, opt)
	if err != nil {
		t.Fatal(err)
	}
	gotBatch, err := approx.QueryBatch(users, 6, approxOpt)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < anon; u++ {
		got, err := approx.QueryUser(u, 6, approxOpt)
		if err != nil {
			t.Fatal(err)
		}
		want := wantBatch[u]
		if len(got) != len(want) || len(gotBatch[u]) != len(want) {
			t.Fatalf("user %d: lengths %d/%d, want %d", u, len(got), len(gotBatch[u]), len(want))
		}
		for i := range want {
			if got[i] != want[i] || gotBatch[u][i] != want[i] {
				t.Fatalf("user %d candidate %d: %+v / %+v, want %+v", u, i, got[i], gotBatch[u][i], want[i])
			}
		}
	}

	as := approx.ApproxStats()
	if !as.Enabled || as.Queries == 0 {
		t.Fatalf("approx world stats inactive: %+v", as)
	}
	if as.BudgetExhausted != 0 {
		t.Fatalf("unbounded budget cannot exhaust: %+v", as)
	}
	if got := plain.ApproxStats(); got.Enabled || got.Queries != 0 {
		t.Fatalf("tier-less world reports approx stats: %+v", got)
	}
}

// TestApproxRecallDense is the recall regression floor on a dense synth
// text world: with an aggressive Theta the tier must still recover at
// least 90% of the exact top-10, and every score it returns must be
// exact.
func TestApproxRecallDense(t *testing.T) {
	opt := DefaultOptions()
	opt.MaxBigrams = 50
	opt.Landmarks = 5
	w := GenerateWorld(WorldConfig{WebMDUsers: 40, HBUsers: 40, Seed: 1031})
	mk := func(cfg ApproxConfig, shards int) *PreparedWorld {
		split := SplitClosedWorld(w.WebMD, 0.5, 1032)
		o := opt
		o.Shards = shards
		o.Approx = cfg
		return PrepareWorld(split.Anon, split.Aux, o)
	}
	plain := mk(ApproxConfig{}, 1)
	approx := mk(ApproxConfig{Enabled: true, Theta: 1.2}, 2)
	approxOpt := opt
	approxOpt.Approx = ApproxConfig{Enabled: true, Theta: 1.2}

	anon, aux := plain.Sizes()
	hits, want := 0, 0
	for u := 0; u < anon; u++ {
		exact, err := plain.QueryUser(u, 10, opt)
		if err != nil {
			t.Fatal(err)
		}
		all, err := plain.QueryUser(u, aux, opt)
		if err != nil {
			t.Fatal(err)
		}
		exactScore := make(map[int]float64, len(all))
		for _, c := range all {
			exactScore[c.User] = c.Score
		}
		got, err := approx.QueryUser(u, 10, approxOpt)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range got {
			if s, ok := exactScore[c.User]; !ok || s != c.Score {
				t.Fatalf("user %d candidate %d: approximate score %v, exact %v", u, i, c.Score, s)
			}
		}
		inGot := map[int]bool{}
		for _, c := range got {
			inGot[c.User] = true
		}
		for _, c := range exact {
			want++
			if inGot[c.User] {
				hits++
			}
		}
	}
	recall := float64(hits) / float64(want)
	if recall < 0.9 {
		t.Fatalf("recall@10 at Theta 1.2 = %v, below the 0.9 floor", recall)
	}
	if as := approx.ApproxStats(); as.PostingsSkipped == 0 {
		t.Fatalf("aggressive Theta skipped no postings: %+v", as)
	}
}

// TestApproxSnapshotRoundTrip pins warm restart for the tier: a world
// prepared with Approx snapshots its shard indexes, the loaded world
// reports the tier enabled, and answers degenerate-knob approximate
// queries bit-identically to the world that saved it.
func TestApproxSnapshotRoundTrip(t *testing.T) {
	pw := approxWorld(t, 22, 1041, 3, ApproxConfig{Enabled: true})
	opt := DefaultOptions()
	opt.Landmarks = 5
	opt.Approx = ApproxConfig{Enabled: true}

	path := filepath.Join(t.TempDir(), "approx.snap")
	if err := pw.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	for _, noMmap := range []bool{false, true} {
		lw, err := LoadWorld(path, LoadOptions{NoMmap: noMmap})
		if err != nil {
			t.Fatal(err)
		}
		if !lw.PreparedOptions().Approx.Enabled {
			t.Fatal("loaded world lost the approximate tier")
		}
		anon, _ := pw.Sizes()
		for u := 0; u < anon; u++ {
			want, err := pw.QueryUser(u, 5, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := lw.QueryUser(u, 5, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("noMmap %v user %d: %d candidates, want %d", noMmap, u, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("noMmap %v user %d candidate %d: %+v, want %+v", noMmap, u, i, got[i], want[i])
				}
			}
		}
		if as := lw.ApproxStats(); !as.Enabled || as.Queries == 0 {
			t.Fatalf("loaded world approx stats inactive: %+v", as)
		}
	}
}

// TestStatsApproxBlock drives the full public serving stack: the wire
// "approx" knob reaches the tier of an Approx-prepared world, and
// /v1/stats carries its counters — while a tier-less world's stats omit
// the block.
func TestStatsApproxBlock(t *testing.T) {
	pw := approxWorld(t, 20, 1061, 2, ApproxConfig{Enabled: true, Theta: 1.1})
	opt := DefaultOptions()
	opt.Landmarks = 5
	opt.Approx = ApproxConfig{Enabled: true, Theta: 1.1}
	srv := NewServer(pw, ServeOptions{K: 5, Attack: opt})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, body := range []string{`{"user": 0, "k": 5, "approx": true}`, `{"user": 1, "k": 5}`} {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %s: status %d", body, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Approx *struct {
			Queries       int64 `json:"queries"`
			CursorsOpened int64 `json:"cursors_opened"`
			Rescored      int64 `json:"rescored"`
			BlocksChecked int64 `json:"blocks_checked"`
		} `json:"approx"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Approx == nil || stats.Approx.Queries == 0 {
		t.Fatalf("stats missing approx block: %+v", stats.Approx)
	}
	// Exactly one of the two wire queries carried the approx knob, so the
	// counters must show one approximate query per shard and nothing from
	// the plain query — the tier is per-request opt-in even on a server
	// prepared with it enabled.
	if want := int64(2); stats.Approx.Queries != want {
		t.Fatalf("approx queries = %d, want %d (plain wire query must stay exact)", stats.Approx.Queries, want)
	}
	if stats.Approx.BlocksChecked == 0 {
		t.Fatalf("approx stats must carry block-max counters: %+v", stats.Approx)
	}

	// A world without the tier omits the block entirely.
	w := GenerateWorld(WorldConfig{WebMDUsers: 16, HBUsers: 16, Seed: 1062})
	split := SplitClosedWorld(w.WebMD, 0.5, 1063)
	plainOpt := DefaultOptions()
	plainOpt.MaxBigrams = 50
	pw2 := PrepareWorld(split.Anon, split.Aux, plainOpt)
	srv2 := NewServer(pw2, ServeOptions{K: 5})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resp2, err := http.Get(ts2.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp2.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["approx"]; ok {
		t.Fatal("tier-less stats must omit the approx block")
	}
}

// TestConcurrentApproxQueryIngest races approximate queries (single and
// batched, with live Theta/Budget knobs) against world growth under
// -race: every result must come back full-length with sorted candidates.
func TestConcurrentApproxQueryIngest(t *testing.T) {
	pw := approxWorld(t, 20, 1051, 2, ApproxConfig{Enabled: true})
	opt := DefaultOptions()
	opt.Landmarks = 5
	opt.Workers = 3
	opt.Approx = ApproxConfig{Enabled: true}
	anon0, _ := pw.Sizes()
	if _, err := pw.QueryUser(0, 3, opt); err != nil { // warm the pipeline
		t.Fatal(err)
	}

	const (
		queriers  = 4
		ingesters = 2
		rounds    = 8
	)
	var wg sync.WaitGroup
	errCh := make(chan error, (queriers+ingesters)*rounds)
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				qopt := opt
				// Exercise the live knobs concurrently: per-call Theta and
				// budget values must not race each other or ingestion.
				qopt.Approx.Theta = []float64{0, 1, 1.3}[i%3]
				qopt.Approx.Budget = []int{0, 0, 7}[g%3]
				q := 1 + (g+i)%(anon0-1)
				users := make([]int, q)
				for j := range users {
					users[j] = (g*rounds + i + j) % anon0
				}
				res, err := pw.QueryBatch(users, 4, qopt)
				if err != nil {
					errCh <- err
					return
				}
				if len(res) != q {
					errCh <- fmt.Errorf("batch of %d returned %d results", q, len(res))
					return
				}
				for _, cands := range res {
					for j := 1; j < len(cands); j++ {
						if cands[j].Score > cands[j-1].Score {
							errCh <- fmt.Errorf("approx batch candidates not sorted")
							return
						}
					}
				}
			}
		}(g)
	}
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("approx-racer-%d-%d", g, i)
				if _, err := pw.IngestUser(name, []IngestPost{
					{Thread: i % 3, Text: "new symptoms after switching medication"},
				}); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if anon1, _ := pw.Sizes(); anon1 != anon0+ingesters*rounds {
		t.Fatalf("anon users after race: %d, want %d", anon1, anon0+ingesters*rounds)
	}
	if as := pw.ApproxStats(); !as.Enabled || as.Queries == 0 {
		t.Fatalf("race left no approx activity: %+v", as)
	}
}
