package dehealth

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"dehealth/internal/corpus"
)

// The retired approximate tier survives as Options.Approx, which is
// ignored, and as the wire "approx" key, answered exactly. These tests pin
// both against the ScoreSlow oracle.

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
// including after ingestion — bit-identically to the ScoreSlow oracle.
func TestApproxPreparedWorldExactUnbounded(t *testing.T) {
	opt := DefaultOptions()
	opt.MaxBigrams = 50
	opt.Landmarks = 5
	opt.Approx = ApproxConfig{Enabled: true}
	opt.Shards = 3
	w := GenerateWorld(WorldConfig{WebMDUsers: 26, HBUsers: 26, Seed: 1021})
	split := SplitClosedWorld(w.WebMD, 0.5, 1022)
	approx := PrepareWorld(split.Anon, split.Aux, opt)

	ingest := []UserPosts{
		{User: corpus.User{Name: "late-arrival", TrueIdentity: -1}, Posts: []IngestPost{
			{Thread: 0, Text: "the new medication finally started working for me"},
		}},
	}
	if _, err := approx.Ingest(ingest); err != nil {
		t.Fatal(err)
	}
	single, batch := worldAnswers(t, approx, 6, opt)
	oracle := oracleAnswers(t, approx, 6, opt)
	sameCandidates(t, "lone", oracle, single)
	sameCandidates(t, "QueryBatch", oracle, batch)
}

// TestApproxRecallDense pins recall 1.0 on a dense synth text world: a
// world prepared with Options.Approx at 2 shards returns exactly the
// oracle's top-10 for every user.
func TestApproxRecallDense(t *testing.T) {
	opt := DefaultOptions()
	opt.MaxBigrams = 50
	opt.Landmarks = 5
	opt.Shards = 2
	opt.Approx = ApproxConfig{Enabled: true}
	w := GenerateWorld(WorldConfig{WebMDUsers: 40, HBUsers: 40, Seed: 1031})
	split := SplitClosedWorld(w.WebMD, 0.5, 1032)
	approx := PrepareWorld(split.Anon, split.Aux, opt)

	oracle := oracleAnswers(t, approx, 10, opt)
	for u := range oracle {
		rows, err := approx.QueryBatch([]int{u}, 10, opt)
		if err != nil {
			t.Fatal(err)
		}
		got := rows[0]
		if !slices.Equal(got, oracle[u]) {
			t.Fatalf("user %d: %+v, oracle %+v", u, got, oracle[u])
		}
	}
}

// TestApproxSnapshotRoundTrip pins warm restart for an Options.Approx
// world: the flag leaves no trace in the file — its bytes are those of the
// same world prepared without it — and the loaded world answers
// bit-identically to the world that saved it.
func TestApproxSnapshotRoundTrip(t *testing.T) {
	pw := approxWorld(t, 22, 1041, 3, ApproxConfig{Enabled: true})
	plain := approxWorld(t, 22, 1041, 3, ApproxConfig{})
	opt := DefaultOptions()
	opt.Landmarks = 5
	opt.Approx = ApproxConfig{Enabled: true}

	dir := t.TempDir()
	path, plainPath := filepath.Join(dir, "approx.snap"), filepath.Join(dir, "plain.snap")
	if err := pw.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	if err := plain.Snapshot(plainPath); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(plainPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("Options.Approx changed the snapshot: %d bytes, %d without it", len(a), len(b))
	}
	want, _ := worldAnswers(t, pw, 5, opt)
	for _, noMmap := range []bool{false, true} {
		lw, err := LoadWorld(path, LoadOptions{NoMmap: noMmap})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := worldAnswers(t, lw, 5, opt)
		sameCandidates(t, fmt.Sprintf("noMmap=%v", noMmap), want, got)
	}
}

// TestStatsApproxBlock drives the full public serving stack: the wire
// "approx" key is accepted and answered exactly — the same reply as the
// plain query — and /v1/stats carries no approx block.
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
	if _, err := pw.QueryBatch([]int{0}, 3, opt); err != nil { // warm the pipeline
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
}
