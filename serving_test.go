package dehealth

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"dehealth/internal/corpus"
)

// servingWorld prepares a small closed-world split for online tests.
func servingWorld(t *testing.T, users int, seed int64) *PreparedWorld {
	t.Helper()
	w := GenerateWorld(WorldConfig{WebMDUsers: users, HBUsers: users, Seed: seed})
	split := SplitClosedWorld(w.WebMD, 0.5, seed+1)
	opt := DefaultOptions()
	opt.MaxBigrams = 50
	return PrepareWorld(split.Anon, split.Aux, opt)
}

// TestQueryUserMatchesAttackTopK proves the public serving path — lone
// queries (one-user batches) and a full batch — returns exactly the Top-K
// phase's candidate sets.
func TestQueryUserMatchesAttackTopK(t *testing.T) {
	pw := servingWorld(t, 30, 901)
	opt := DefaultOptions()
	opt.K = 5
	opt.Landmarks = 5
	opt.Classifier = KNN
	res, err := pw.Attack(opt)
	if err != nil {
		t.Fatal(err)
	}
	anon, _ := pw.Sizes()
	users := make([]int, anon)
	for u := range users {
		users[u] = u
	}
	batch, err := pw.QueryBatch(users, 5, opt)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < anon; u++ {
		rows, err := pw.QueryBatch([]int{u}, 5, opt)
		if err != nil {
			t.Fatal(err)
		}
		single := rows[0]
		want := res.TopK.Candidates[u]
		if len(single) != len(want) || len(batch[u]) != len(want) {
			t.Fatalf("user %d: lengths %d/%d, want %d", u, len(single), len(batch[u]), len(want))
		}
		for i := range want {
			if single[i] != want[i] || batch[u][i] != want[i] {
				t.Fatalf("user %d candidate %d: query %+v batch %+v, want %+v", u, i, single[i], batch[u][i], want[i])
			}
		}
	}
	if _, err := pw.QueryBatch([]int{-1}, 5, opt); err == nil {
		t.Fatal("negative user accepted")
	}
	if _, err := pw.QueryBatch([]int{anon}, 5, opt); err == nil {
		t.Fatal("out-of-range user accepted")
	}
}

// TestIngestThenQuery grows the prepared world and checks ingested users
// are immediately queryable, with the grown sizes reported.
func TestIngestThenQuery(t *testing.T) {
	pw := servingWorld(t, 24, 911)
	opt := DefaultOptions()
	opt.Landmarks = 5
	anon0, aux := pw.Sizes()

	// Warm a pipeline first so ingestion exercises the incremental sync.
	if _, err := pw.QueryBatch([]int{0}, 3, opt); err != nil {
		t.Fatal(err)
	}
	id, err := pw.IngestUser("fresh-account", []IngestPost{
		{Thread: 0, Text: "my migraines got worse after the new prescription"},
		{Thread: NewThread, Text: "does anyone know a good specialist in the area?"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if id != anon0 {
		t.Fatalf("ingested id %d, want %d", id, anon0)
	}
	if a, x := pw.Sizes(); a != anon0+1 || x != aux {
		t.Fatalf("Sizes() = (%d, %d), want (%d, %d)", a, x, anon0+1, aux)
	}
	rows, err := pw.QueryBatch([]int{id}, 7, opt)
	if err != nil {
		t.Fatal(err)
	}
	cands := rows[0]
	if len(cands) != 7 {
		t.Fatalf("ingested user got %d candidates, want 7", len(cands))
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].Score > cands[i-1].Score {
			t.Fatal("candidates not sorted")
		}
	}
}

// TestServeConcurrentQueryIngest hammers a live httptest server with
// concurrent /v1/query and /v1/ingest traffic — the acceptance bar for the
// serving subsystem under -race.
func TestServeConcurrentQueryIngest(t *testing.T) {
	pw := servingWorld(t, 20, 921)
	opt := DefaultOptions()
	opt.Landmarks = 5
	srv := NewServer(pw, ServeOptions{Workers: 4, Batch: 8, K: 5, Attack: opt})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	anon0, _ := pw.Sizes()
	const (
		queriers  = 6
		ingesters = 3
		perWorker = 10
	)
	var wg sync.WaitGroup
	errCh := make(chan error, (queriers+ingesters)*perWorker)
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				body := fmt.Sprintf(`{"user": %d, "k": 4}`, (g*perWorker+i)%anon0)
				resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader([]byte(body)))
				if err != nil {
					errCh <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("query status %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(g)
	}
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				body := fmt.Sprintf(`{"name": "acct-%d-%d", "posts": [{"thread": %d, "text": "the treatment helped my symptoms a lot"}]}`, g, i, i%3)
				resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader([]byte(body)))
				if err != nil {
					errCh <- err
					return
				}
				var reply struct {
					User int `json:"user"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
					errCh <- err
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("ingest status %d", resp.StatusCode)
					continue
				}
				// Every ingested account must be queryable right away.
				qb := fmt.Sprintf(`{"user": %d}`, reply.User)
				qr, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader([]byte(qb)))
				if err != nil {
					errCh <- err
					return
				}
				if qr.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("query of ingested %d: status %d", reply.User, qr.StatusCode)
				}
				qr.Body.Close()
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	anon1, _ := pw.Sizes()
	if want := anon0 + ingesters*perWorker; anon1 != want {
		t.Fatalf("anon users after ingest storm: %d, want %d", anon1, want)
	}
}

// TestShardedPreparedWorldParity proves Options.Shards is invisible in
// results: a sharded prepared world answers lone and batched queries with
// bit-identical candidates to an unsharded world over the same datasets,
// including for users ingested after preparation.
func TestShardedPreparedWorldParity(t *testing.T) {
	opt := DefaultOptions()
	opt.MaxBigrams = 50
	opt.Landmarks = 5

	// Each world gets its own (identically seeded) copy of the datasets:
	// ingestion grows the anonymized dataset in place, so two prepared
	// worlds must not alias one underlying corpus.
	mkSplit := func() *Split {
		w := GenerateWorld(WorldConfig{WebMDUsers: 28, HBUsers: 28, Seed: 931})
		return SplitClosedWorld(w.WebMD, 0.5, 932)
	}
	flatSplit, shardSplit := mkSplit(), mkSplit()
	flat := PrepareWorld(flatSplit.Anon, flatSplit.Aux, opt)
	shardedOpt := opt
	shardedOpt.Shards = 4
	sharded := PrepareWorld(shardSplit.Anon, shardSplit.Aux, shardedOpt)

	ingest := []UserPosts{
		{User: corpus.User{Name: "late-arrival", TrueIdentity: -1}, Posts: []IngestPost{
			{Thread: 0, Text: "the new medication finally started working for me"},
		}},
	}
	if _, err := flat.Ingest(ingest); err != nil {
		t.Fatal(err)
	}
	if _, err := sharded.Ingest(ingest); err != nil {
		t.Fatal(err)
	}

	anon, _ := flat.Sizes()
	if a2, _ := sharded.Sizes(); a2 != anon {
		t.Fatalf("world sizes diverged: %d vs %d", a2, anon)
	}
	users := make([]int, anon)
	for i := range users {
		users[i] = i
	}
	flatBatch, err := flat.QueryBatch(users, 6, opt)
	if err != nil {
		t.Fatal(err)
	}
	shardBatch, err := sharded.QueryBatch(users, 6, opt)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < anon; u++ {
		rows, err := sharded.QueryBatch([]int{u}, 6, opt)
		if err != nil {
			t.Fatal(err)
		}
		single := rows[0]
		for i := range flatBatch[u] {
			if single[i] != flatBatch[u][i] || shardBatch[u][i] != flatBatch[u][i] {
				t.Fatalf("user %d candidate %d: sharded %+v / batch %+v, want %+v",
					u, i, single[i], shardBatch[u][i], flatBatch[u][i])
			}
		}
	}
}

// TestShardSizesStats checks ShardSizes tiles the world exactly and that
// /v1/stats surfaces the same breakdown.
func TestShardSizesStats(t *testing.T) {
	pw := servingWorldSharded(t, 26, 941, 3)
	anon, aux := pw.Sizes()
	sizes := pw.ShardSizes()
	if len(sizes) != 3 {
		t.Fatalf("got %d shards, want 3", len(sizes))
	}
	sumAux, sumAnon := 0, 0
	for i, s := range sizes {
		if s.Shard != i {
			t.Fatalf("shard ids out of order: %+v", sizes)
		}
		sumAux += s.AuxUsers
		sumAnon += s.AnonUsers
	}
	if sumAux != aux || sumAnon != anon {
		t.Fatalf("shard sums (%d, %d) != aggregate (%d, %d)", sumAnon, sumAux, anon, aux)
	}

	opt := DefaultOptions()
	opt.Landmarks = 5
	srv := NewServer(pw, ServeOptions{K: 5, Attack: opt})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		AnonUsers int `json:"anon_users"`
		AuxUsers  int `json:"aux_users"`
		Shards    []struct {
			Shard     int `json:"shard"`
			AuxUsers  int `json:"aux_users"`
			AnonUsers int `json:"anon_users"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != len(sizes) {
		t.Fatalf("stats shards %d, want %d", len(st.Shards), len(sizes))
	}
	for i, s := range st.Shards {
		if s.Shard != sizes[i].Shard || s.AuxUsers != sizes[i].AuxUsers || s.AnonUsers != sizes[i].AnonUsers {
			t.Fatalf("stats shard %d = %+v, want %+v", i, s, sizes[i])
		}
	}
}

// servingWorldSharded is servingWorld with a shard count.
func servingWorldSharded(t *testing.T, users int, seed int64, shards int) *PreparedWorld {
	t.Helper()
	w := GenerateWorld(WorldConfig{WebMDUsers: users, HBUsers: users, Seed: seed})
	split := SplitClosedWorld(w.WebMD, 0.5, seed+1)
	opt := DefaultOptions()
	opt.MaxBigrams = 50
	opt.Shards = shards
	return PrepareWorld(split.Anon, split.Aux, opt)
}

// TestIngestRoutingStableAcrossRestarts pins the restart guarantee: two
// independently prepared copies of the same world, growing through the
// same ingested account names (in different arrival orders), report
// identical per-shard anonymized counts — the home-shard hash depends only
// on the name and shard count.
func TestIngestRoutingStableAcrossRestarts(t *testing.T) {
	mk := func() *PreparedWorld { return servingWorldSharded(t, 22, 951, 4) }
	a, b := mk(), mk()

	names := []string{"drifter-17", "sleepless", "anon9000", "jdoe", "qu1et", "zebra-fish"}
	// World a ingests in order; world b in reverse — a "restart" that saw
	// the same accounts arrive differently.
	for _, n := range names {
		if _, err := a.IngestUser(n, []IngestPost{{Thread: 0, Text: "same post body for " + n}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := len(names) - 1; i >= 0; i-- {
		if _, err := b.IngestUser(names[i], []IngestPost{{Thread: 0, Text: "same post body for " + names[i]}}); err != nil {
			t.Fatal(err)
		}
	}
	sa, sb := a.ShardSizes(), b.ShardSizes()
	if len(sa) != len(sb) {
		t.Fatalf("shard counts differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("shard %d diverged across restarts: %+v vs %+v", i, sa[i], sb[i])
		}
	}
}

// TestPreparedWorldOracleParity is the public-layer exactness guarantee:
// sharded and unsharded worlds answer every lone and batched query —
// including after ingestion — bit-identically to the ScoreSlow oracle.
func TestPreparedWorldOracleParity(t *testing.T) {
	opt := DefaultOptions()
	opt.MaxBigrams = 50
	opt.Landmarks = 5
	ingest := []UserPosts{
		{User: corpus.User{Name: "late-arrival", TrueIdentity: -1}, Posts: []IngestPost{
			{Thread: 0, Text: "the new medication finally started working for me"},
		}},
	}
	for _, shards := range []int{1, 3} {
		w := GenerateWorld(WorldConfig{WebMDUsers: 26, HBUsers: 26, Seed: 961})
		split := SplitClosedWorld(w.WebMD, 0.5, 962)
		o := opt
		o.Shards = shards
		pw := PrepareWorld(split.Anon, split.Aux, o)
		if _, err := pw.Ingest(ingest); err != nil {
			t.Fatal(err)
		}
		single, batch := worldAnswers(t, pw, 6, o)
		oracle := oracleAnswers(t, pw, 6, o)
		label := fmt.Sprintf("shards=%d", shards)
		sameCandidates(t, label+" lone", oracle, single)
		sameCandidates(t, label+" QueryBatch", oracle, batch)
	}
}

// TestStatsPruneBlock checks /v1/stats on a sharded text world counts the
// query it served and carries no prune block: text worlds always scan, so
// no backend reports candidate-pruning counters.
func TestStatsPruneBlock(t *testing.T) {
	pw := servingWorldSharded(t, 20, 971, 2)
	opt := DefaultOptions()
	opt.Landmarks = 5
	srv := NewServer(pw, ServeOptions{K: 5, Attack: opt})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	qresp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewBufferString(`{"user": 0, "k": 5}`))
	if err != nil {
		t.Fatal(err)
	}
	qresp.Body.Close()
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d", qresp.StatusCode)
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
	var queries int64
	if err := json.Unmarshal(raw["queries"], &queries); err != nil || queries != 1 {
		t.Fatalf("stats queries = %s (%v), want 1", raw["queries"], err)
	}
	if _, ok := raw["prune"]; ok {
		t.Fatal("stats must carry no prune block")
	}
}

// TestConcurrentQueryBatchIngest races the batched fan-out directly
// against world growth: goroutines hammer PreparedWorld.QueryBatch (mixed
// batch widths, so the kernel's chunked multi-query scan runs under -race)
// while others ingest new accounts. Every batch must come back full-length
// and sorted — the world lock makes each batch see a consistent snapshot.
func TestConcurrentQueryBatchIngest(t *testing.T) {
	pw := servingWorld(t, 20, 931)
	opt := DefaultOptions()
	opt.Landmarks = 5
	opt.Workers = 3
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
					if len(cands) != 4 {
						errCh <- fmt.Errorf("batch candidate list has %d entries, want 4", len(cands))
						return
					}
					for j := 1; j < len(cands); j++ {
						if cands[j].Score > cands[j-1].Score {
							errCh <- fmt.Errorf("batch candidates not sorted")
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
				name := fmt.Sprintf("racer-%d-%d", g, i)
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
