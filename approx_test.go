package dehealth

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"dehealth/internal/corpus"
)

// The retired approximate tier survives as Options.Approx, which prepares
// a world exactly as Options.Prune does, and as the wire "approx" key,
// answered exactly. These tests pin both against the exact answers.

// approxWorld prepares a closed-world split with the deprecated
// Options.Approx set.
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
// guarantee: a world prepared with Options.Approx answers every query —
// including after ingestion — bit-identically to a world without it, and
// runs those queries through the pruner.
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

	if ps := approx.PruneStats(); !ps.Enabled || ps.Queries == 0 {
		t.Fatalf("Options.Approx world did not prune: %+v", ps)
	}
	if ps := plain.PruneStats(); ps.Enabled || ps.Queries != 0 {
		t.Fatalf("plain world reports pruning: %+v", ps)
	}
}

// TestApproxRecallDense pins recall 1.0 on a dense synth text world: a
// world prepared with Options.Approx at 2 shards returns exactly the
// unsharded exact world's top-10 for every user.
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
	approx := mk(ApproxConfig{Enabled: true}, 2)
	approxOpt := opt
	approxOpt.Approx = ApproxConfig{Enabled: true}

	anon, _ := plain.Sizes()
	for u := 0; u < anon; u++ {
		exact, err := plain.QueryUser(u, 10, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := approx.QueryUser(u, 10, approxOpt)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, exact) {
			t.Fatalf("user %d: %+v, exact %+v", u, got, exact)
		}
	}
}

// TestApproxSnapshotRoundTrip pins warm restart for an Options.Approx
// world: it snapshots its shard indexes, the loaded world keeps the flag,
// boots pruned, and answers bit-identically to the world that saved it.
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
		if ps := lw.PruneStats(); !ps.Enabled || ps.Queries == 0 {
			t.Fatalf("loaded world did not boot pruned: %+v", ps)
		}
	}
}

// TestStatsApproxBlock drives the full public serving stack: the wire
// "approx" key is accepted and answered exactly — the same reply as the
// plain query — and /v1/stats carries no approx block, only the prune
// block of the Options.Approx world.
func TestStatsApproxBlock(t *testing.T) {
	pw := approxWorld(t, 20, 1061, 2, ApproxConfig{Enabled: true})
	opt := DefaultOptions()
	opt.Landmarks = 5
	srv := NewServer(pw, ServeOptions{K: 5, Attack: opt})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var replies []string
	for _, body := range []string{`{"user": 3, "k": 5, "approx": true}`, `{"user": 3, "k": 5}`} {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %s: status %d", body, resp.StatusCode)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		replies = append(replies, buf.String())
	}
	if replies[0] != replies[1] {
		t.Fatalf("approx reply %s differs from the exact reply %s", replies[0], replies[1])
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["approx"]; ok {
		t.Fatal("stats must carry no approx block")
	}
	var prune struct {
		Queries int64 `json:"queries"`
	}
	if err := json.Unmarshal(raw["prune"], &prune); err != nil || prune.Queries != 4 {
		t.Fatalf("prune block %s: want 4 shard queries (2 queries x 2 shards), err %v", raw["prune"], err)
	}
}

// TestConcurrentApproxQueryIngest races batched queries on an
// Options.Approx world against world growth under -race: every result
// must come back full-length with sorted candidates.
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
				q := 1 + (g+i)%(anon0-1)
				users := make([]int, q)
				for j := range users {
					users[j] = (g*rounds + i + j) % anon0
				}
				res, err := pw.QueryBatch(users, 4, opt)
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
	if ps := pw.PruneStats(); !ps.Enabled || ps.Queries == 0 {
		t.Fatalf("race left no pruned activity: %+v", ps)
	}
}
