// Fault-injection tests of the router's robustness layer: a flakyShard
// HTTP proxy sits between the router and real serve.Server shard servers
// (stub backends with a deterministic score function) and injects the
// failure modes a live fleet produces — 5xx replies, dropped connections,
// long stalls, truncated bodies, dead listeners. Each documented
// degradation behavior has a test: failover-with-retry, hedging that
// races a stalled replica (and cancels the loser), deadline-to-partial,
// and all-replicas-down as the one typed outright failure.

package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dehealth/internal/core"
	"dehealth/internal/features"
	"dehealth/internal/serve"
	"dehealth/internal/shard"
)

// stubScore is the deterministic score of query u against GLOBAL
// auxiliary id g, shared by every stub shard so the test can compute the
// exact global answer independently.
func stubScore(u, g int) float64 {
	return float64((u*31+g*17)%101) / 7
}

// stubAnonUsers is the stub world's anonymized population: queries for
// user ids at or past it are rejected, like a real backend's range check.
const stubAnonUsers = 1000

// stubBackend serves one window [slice.Lo, slice.Hi) of the stub world
// under LOCAL ids, exactly like a slice-booted PreparedWorld: the serve
// layer's /internal/query handler owns the rebase to global.
type stubBackend struct {
	slice serve.ShardSlice
}

func (b stubBackend) Ingest([]features.UserPosts) ([]int, error) {
	return nil, errors.New("stub: no ingest")
}

// topK answers one user of a QueryBatch.
func (b stubBackend) topK(u, k int) ([]core.Candidate, error) {
	if u < 0 || u >= stubAnonUsers {
		return nil, fmt.Errorf("stub: user %d out of range [0, %d)", u, stubAnonUsers)
	}
	n := b.slice.Hi - b.slice.Lo
	cands := make([]shard.Candidate, n)
	for j := 0; j < n; j++ {
		cands[j] = shard.Candidate{User: j, Score: stubScore(u, b.slice.Lo+j)}
	}
	return shard.MergeTopK([][]shard.Candidate{cands}, k), nil
}

func (b stubBackend) QueryBatch(users []int, k int) ([][]core.Candidate, error) {
	out := make([][]core.Candidate, len(users))
	for i, u := range users {
		var err error
		if out[i], err = b.topK(u, k); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (b stubBackend) Sizes() (int, int) { return 0, b.slice.Hi - b.slice.Lo }

func (b stubBackend) ShardSizes() []serve.ShardCount {
	return []serve.ShardCount{{Shard: 0, AuxUsers: b.slice.Hi - b.slice.Lo}}
}

func (b stubBackend) ShardSlice() (serve.ShardSlice, bool) { return b.slice, true }

// expectTopK is the test's independent global answer: all of [0, total)
// scored and merged under the selection order.
func expectTopK(u, k, total int) []shard.Candidate {
	cands := make([]shard.Candidate, total)
	for g := 0; g < total; g++ {
		cands[g] = shard.Candidate{User: g, Score: stubScore(u, g)}
	}
	return shard.MergeTopK([][]shard.Candidate{cands}, k)
}

// newShardServer boots a real serve.Server over a stub window and returns
// its base URL.
func newShardServer(t *testing.T, slice serve.ShardSlice) string {
	t.Helper()
	srv := serve.New(stubBackend{slice: slice}, serve.Config{})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		_ = srv.Close()
	})
	return hs.URL
}

// twoShards is the standard topology of these tests: 40 global aux users
// cut into [0, 20) and [20, 40).
func twoShards(t *testing.T) (urls []string, total int) {
	t.Helper()
	total = 40
	urls = []string{
		newShardServer(t, serve.ShardSlice{Shard: 0, Shards: 2, Lo: 0, Hi: 20, AuxTotal: total}),
		newShardServer(t, serve.ShardSlice{Shard: 1, Shards: 2, Lo: 20, Hi: 40, AuxTotal: total}),
	}
	return urls, total
}

// flakyShard is the fault-injection proxy: it forwards to a real shard
// server in "pass" mode and injects one failure mode otherwise. Canceled
// counts stalled requests aborted by the client (the router canceling a
// hedge loser); Forwarded counts requests that reached the target.
type flakyShard struct {
	target    string
	mode      atomic.Value // flakyMode
	delay     time.Duration
	canceled  atomic.Int64
	forwarded atomic.Int64
	srv       *httptest.Server
}

type flakyMode string

const (
	modePass     flakyMode = "pass"     // transparent proxy
	mode5xx      flakyMode = "5xx"      // 502 without touching the target
	modeDrop     flakyMode = "drop"     // accept, then slam the connection
	modeDelay    flakyMode = "delay"    // stall before forwarding
	modeTruncate flakyMode = "truncate" // forward, return half the body
	modeBloat    flakyMode = "bloat"    // forward, pad the (still valid) body past maxReplyBytes
)

func newFlakyShard(t *testing.T, target string, mode flakyMode, delay time.Duration) *flakyShard {
	t.Helper()
	f := &flakyShard{target: target, delay: delay}
	f.mode.Store(mode)
	f.srv = httptest.NewServer(http.HandlerFunc(f.handle))
	t.Cleanup(f.srv.Close)
	return f
}

func (f *flakyShard) URL() string            { return f.srv.URL }
func (f *flakyShard) setMode(mode flakyMode) { f.mode.Store(mode) }
func (f *flakyShard) currentMode() flakyMode { return f.mode.Load().(flakyMode) }

func (f *flakyShard) handle(w http.ResponseWriter, r *http.Request) {
	// Drain the request body up front: the server only detects a client
	// abort (the router canceling a losing attempt) once no unread body
	// bytes remain buffered on the connection.
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	switch f.currentMode() {
	case mode5xx:
		http.Error(w, "injected upstream failure", http.StatusBadGateway)
	case modeDrop:
		hj, ok := w.(http.Hijacker)
		if !ok {
			http.Error(w, "no hijacker", http.StatusInternalServerError)
			return
		}
		conn, _, err := hj.Hijack()
		if err == nil {
			conn.Close()
		}
	case modeDelay:
		select {
		case <-time.After(f.delay):
			f.forward(w, r, body)
		case <-r.Context().Done():
			f.canceled.Add(1)
		}
	default:
		f.forward(w, r, body)
	}
}

func (f *flakyShard) forward(w http.ResponseWriter, r *http.Request, body []byte) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, f.target+r.URL.Path, bytes.NewReader(body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	f.forwarded.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.StatusCode)
	switch f.currentMode() {
	case modeTruncate:
		reply = reply[:len(reply)/2]
	case modeBloat:
		// Whitespace after the opening brace keeps the reply valid JSON,
		// so only its length can make the router refuse it.
		_, _ = w.Write(reply[:1])
		_, _ = w.Write(bytes.Repeat([]byte{' '}, maxReplyBytes))
		reply = reply[1:]
	}
	_, _ = w.Write(reply)
}

// newRouter builds a test router with the prober off (tests flip failure
// modes and want deterministic passive behavior) unless cfg overrides.
func newRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = -1
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = time.Millisecond
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(r.Close)
	return r
}

func sameCandidates(t *testing.T, label string, want, got []shard.Candidate) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d candidates, want %d\n got %v\nwant %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: candidate %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestRouterHappyPath: both shards answer, the merge matches the
// independently computed global top-k, and nothing is partial. Over HTTP,
// every variant in the table — "approx": true (which the router ignores),
// k omitted, 0, -1 or past the auxiliary side — gets the status and the
// candidate bytes of its plain request, and a /v1/query answers user u
// with the bytes of u's row of a /v1/batch.
func TestRouterHappyPath(t *testing.T) {
	urls, total := twoShards(t)
	r := newRouter(t, Config{Shards: [][]string{{urls[0]}, {urls[1]}}})
	for u := 0; u < 5; u++ {
		res, err := r.QueryBatch(context.Background(), []int{u}, 7)
		if err != nil {
			t.Fatalf("QueryBatch([%d]): %v", u, err)
		}
		if res.Partial || len(res.Missing) != 0 {
			t.Fatalf("QueryBatch([%d]): unexpected degradation: %+v", u, res)
		}
		sameCandidates(t, fmt.Sprintf("user %d", u), expectTopK(u, 7, total), res.Results[0])
	}
	br, err := r.QueryBatch(context.Background(), []int{1, 3, 4}, 5)
	if err != nil {
		t.Fatalf("QueryBatch: %v", err)
	}
	for i, u := range []int{1, 3, 4} {
		sameCandidates(t, fmt.Sprintf("batch user %d", u), expectTopK(u, 5, total), br.Results[i])
	}

	front := httptest.NewServer(r.Handler())
	defer front.Close()
	post := func(path, body string) (int, map[string]json.RawMessage) {
		t.Helper()
		resp, err := http.Post(front.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s %s: %v", path, body, err)
		}
		defer resp.Body.Close()
		var reply map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatalf("POST %s %s: reply: %v", path, body, err)
		}
		return resp.StatusCode, reply
	}
	// Users 3 and 1 at the default k (10), at 5, and past the 40 aux users.
	for _, tc := range []struct {
		path, body, plain string
		field             string // the reply's candidate bytes
		k                 int    // the plain request's candidate-set size
	}{
		{"/v1/query", `{"user": 3, "k": 5, "approx": true}`, `{"user": 3, "k": 5}`, "candidates", 5},
		{"/v1/query", `{"user": 3}`, `{"user": 3, "k": 10}`, "candidates", 10},
		{"/v1/query", `{"user": 3, "k": 0}`, `{"user": 3, "k": 10}`, "candidates", 10},
		{"/v1/query", `{"user": 3, "k": -1, "approx": true}`, `{"user": 3, "k": 10}`, "candidates", 10},
		{"/v1/query", `{"user": 3, "k": 100}`, `{"user": 3, "k": 40}`, "candidates", 40},
		{"/v1/batch", `{"users": [3, 1], "k": 5, "approx": true}`, `{"users": [3, 1], "k": 5}`, "results", 5},
		{"/v1/batch", `{"users": [3, 1]}`, `{"users": [3, 1], "k": 10}`, "results", 10},
		{"/v1/batch", `{"users": [3, 1], "k": 0}`, `{"users": [3, 1], "k": 10}`, "results", 10},
		{"/v1/batch", `{"users": [3, 1], "k": -1, "approx": true}`, `{"users": [3, 1], "k": 10}`, "results", 10},
		{"/v1/batch", `{"users": [3, 1], "k": 100}`, `{"users": [3, 1], "k": 40}`, "results", 40},
	} {
		wantStatus, want := post(tc.path, tc.plain)
		status, got := post(tc.path, tc.body)
		if wantStatus != http.StatusOK || status != wantStatus {
			t.Fatalf("%s %s: status %d, plain %s: %d, want both 200", tc.path, tc.body, status, tc.plain, wantStatus)
		}
		if !bytes.Equal(got[tc.field], want[tc.field]) {
			t.Fatalf("%s %s: %s\n%s\nwant (as %s)\n%s", tc.path, tc.body, tc.field, got[tc.field], tc.plain, want[tc.field])
		}
		var rows [][]shard.Candidate
		if tc.field == "candidates" {
			rows = make([][]shard.Candidate, 1)
			err = json.Unmarshal(want[tc.field], &rows[0])
		} else {
			err = json.Unmarshal(want[tc.field], &rows)
		}
		if err != nil {
			t.Fatalf("%s %s: %v", tc.path, tc.plain, err)
		}
		for i, u := range []int{3, 1}[:len(rows)] {
			sameCandidates(t, tc.path+" "+tc.plain, expectTopK(u, tc.k, total), rows[i])
		}
	}
	for _, k := range []int{5, 10, 100} {
		_, batch := post("/v1/batch", fmt.Sprintf(`{"users": [3, 1], "k": %d}`, k))
		var rows []json.RawMessage
		if err := json.Unmarshal(batch["results"], &rows); err != nil || len(rows) != 2 {
			t.Fatalf("batch at k=%d: results %s (%v)", k, batch["results"], err)
		}
		for i, u := range []int{3, 1} {
			_, query := post("/v1/query", fmt.Sprintf(`{"user": %d, "k": %d}`, u, k))
			if !bytes.Equal(query["candidates"], rows[i]) {
				t.Fatalf("k=%d: /v1/query of user %d\n%s\nwant row %d of /v1/batch\n%s", k, u, query["candidates"], i, rows[i])
			}
		}
	}
}

// TestRouterFailoverRetry: the first replica 5xxes, the retry lands on
// the second, the answer is whole, and the failed replica leaves rotation.
func TestRouterFailoverRetry(t *testing.T) {
	urls, total := twoShards(t)
	bad := newFlakyShard(t, urls[0], mode5xx, 0)
	r := newRouter(t, Config{
		Shards:  [][]string{{bad.URL(), urls[0]}, {urls[1]}},
		Retries: 2,
	})
	res, err := r.QueryBatch(context.Background(), []int{3}, 6)
	if err != nil {
		t.Fatalf("QueryBatch: %v", err)
	}
	if res.Partial {
		t.Fatalf("failover produced a partial result: %+v", res)
	}
	sameCandidates(t, "failover", expectTopK(3, 6, total), res.Results[0])
	st := r.Stats()
	if st.Retries < 1 {
		t.Fatalf("retries = %d, want >= 1", st.Retries)
	}
	if rep := st.Shards[0].Replicas[0]; rep.Healthy {
		t.Fatalf("failed replica %s still marked healthy", rep.URL)
	}
}

// TestRouterDropFailover and TestRouterTruncateFailover: a slammed
// connection and a half-written JSON body are both retryable replica
// failures, not client errors.
func TestRouterDropFailover(t *testing.T) {
	urls, total := twoShards(t)
	bad := newFlakyShard(t, urls[0], modeDrop, 0)
	r := newRouter(t, Config{Shards: [][]string{{bad.URL(), urls[0]}, {urls[1]}}, Retries: 2})
	res, err := r.QueryBatch(context.Background(), []int{2}, 4)
	if err != nil {
		t.Fatalf("QueryBatch: %v", err)
	}
	sameCandidates(t, "drop failover", expectTopK(2, 4, total), res.Results[0])
}

func TestRouterTruncateFailover(t *testing.T) {
	urls, total := twoShards(t)
	bad := newFlakyShard(t, urls[0], modeTruncate, 0)
	r := newRouter(t, Config{Shards: [][]string{{bad.URL(), urls[0]}, {urls[1]}}, Retries: 2})
	res, err := r.QueryBatch(context.Background(), []int{9}, 4)
	if err != nil {
		t.Fatalf("QueryBatch: %v", err)
	}
	sameCandidates(t, "truncate failover", expectTopK(9, 4, total), res.Results[0])
	if bad.forwarded.Load() < 1 {
		t.Fatal("truncating proxy never forwarded — mode not exercised")
	}
	if st := r.Stats(); st.Retries < 1 {
		t.Fatalf("retries = %d, want >= 1", st.Retries)
	}
}

// TestRouterBloatedReplyFailover: a reply longer than maxReplyBytes is a
// replica failure like a truncated one, even when it would decode.
func TestRouterBloatedReplyFailover(t *testing.T) {
	urls, total := twoShards(t)
	bad := newFlakyShard(t, urls[0], modeBloat, 0)
	r := newRouter(t, Config{Shards: [][]string{{bad.URL(), urls[0]}, {urls[1]}}, Retries: 2, ShardTimeout: 30 * time.Second})
	res, err := r.QueryBatch(context.Background(), []int{9}, 4)
	if err != nil {
		t.Fatalf("QueryBatch: %v", err)
	}
	sameCandidates(t, "bloat failover", expectTopK(9, 4, total), res.Results[0])
	st := r.Stats()
	if st.Retries < 1 {
		t.Fatalf("retries = %d, want >= 1", st.Retries)
	}
	if rep := st.Shards[0].Replicas[0]; rep.Healthy {
		t.Fatalf("replica %s sent an over-long reply and is still marked healthy", rep.URL)
	}
}

// TestRouterRejectedRequest: a request the shards answer 4xx is the
// client's fault, not the fleet's. The router passes the 400 and the
// shard's message through, launches no retry or hedge, leaves every
// replica in rotation, and answers the next valid query in full.
func TestRouterRejectedRequest(t *testing.T) {
	urls, total := twoShards(t)
	r := newRouter(t, Config{
		Shards:     [][]string{{urls[0]}, {urls[1]}},
		Retries:    2,
		HedgeDelay: 5 * time.Second,
	})
	front := httptest.NewServer(r.Handler())
	defer front.Close()
	for _, tc := range []struct{ path, body string }{
		{"/v1/query", `{"user": 1000000000}`},
		{"/v1/batch", `{"users": [1, 1000000000]}`},
	} {
		before := r.Stats()
		resp, err := http.Post(front.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("POST %s: %v", tc.path, err)
		}
		var e errorWire
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: error body: %v", tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%q), want 400", tc.path, resp.StatusCode, e.Error)
		}
		if !strings.Contains(e.Error, "user 1000000000 out of range") {
			t.Fatalf("%s: error %q does not carry the shard's message", tc.path, e.Error)
		}
		after := r.Stats()
		if after.Retries != before.Retries || after.Hedges != before.Hedges || after.Partials != before.Partials {
			t.Fatalf("%s: a rejected request moved the robustness counters: %+v -> %+v", tc.path, before, after)
		}
		if !r.Healthy() {
			t.Fatalf("%s: a rejected request marked replicas unhealthy: %+v", tc.path, after.Shards)
		}
		res, err := r.QueryBatch(context.Background(), []int{3}, 6)
		if err != nil {
			t.Fatalf("%s: valid query after the rejection: %v", tc.path, err)
		}
		if res.Partial {
			t.Fatalf("%s: valid query after the rejection came back partial: %+v", tc.path, res)
		}
		sameCandidates(t, tc.path+" then valid", expectTopK(3, 6, total), res.Results[0])
	}
}

// TestRouterBodyTooLarge: both public endpoints cap what they read at
// serve.MaxBodyBytes and answer 413 without calling a shard.
func TestRouterBodyTooLarge(t *testing.T) {
	urls, _ := twoShards(t)
	shard0 := newFlakyShard(t, urls[0], modePass, 0)
	r := newRouter(t, Config{Shards: [][]string{{shard0.URL()}, {urls[1]}}})
	front := httptest.NewServer(r.Handler())
	defer front.Close()
	pad := strings.Repeat("a", serve.MaxBodyBytes)
	for _, tc := range []struct{ path, body string }{
		{"/v1/query", `{"user": 1, "pad": "` + pad + `"}`},
		{"/v1/batch", `{"users": [1], "pad": "` + pad + `"}`},
	} {
		resp, err := http.Post(front.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("POST %s: %v", tc.path, err)
		}
		var e errorWire
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413", tc.path, resp.StatusCode)
		}
		if err != nil || e.Error == "" {
			t.Fatalf("%s: 413 without a JSON error message (%v)", tc.path, err)
		}
	}
	if n := shard0.forwarded.Load(); n != 0 {
		t.Fatalf("oversized bodies reached a shard %d times", n)
	}
}

// TestRouterHedgeWinnerCancelsLoser: replica 0 stalls far past the hedge
// delay, the hedge races on replica 1 and wins, and returning cancels the
// stalled attempt (the proxy observes its request context die).
func TestRouterHedgeWinnerCancelsLoser(t *testing.T) {
	urls, total := twoShards(t)
	slow := newFlakyShard(t, urls[0], modeDelay, 5*time.Second)
	r := newRouter(t, Config{
		Shards:       [][]string{{slow.URL(), urls[0]}, {urls[1]}},
		ShardTimeout: 10 * time.Second,
		HedgeDelay:   20 * time.Millisecond,
		Retries:      2,
	})
	start := time.Now()
	res, err := r.QueryBatch(context.Background(), []int{4}, 6)
	if err != nil {
		t.Fatalf("QueryBatch: %v", err)
	}
	if res.Partial {
		t.Fatalf("hedged query degraded to partial: %+v", res)
	}
	sameCandidates(t, "hedged", expectTopK(4, 6, total), res.Results[0])
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("hedged query took %v — the stalled primary was awaited, not raced", took)
	}
	st := r.Stats()
	if st.Hedges < 1 || st.HedgeWins < 1 {
		t.Fatalf("hedges = %d, hedge wins = %d, want both >= 1", st.Hedges, st.HedgeWins)
	}
	// The loser's cancellation propagates asynchronously after QueryBatch
	// returns; give it a moment.
	deadline := time.Now().Add(2 * time.Second)
	for slow.canceled.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if slow.canceled.Load() == 0 {
		t.Fatal("stalled attempt was never canceled after the hedge won")
	}
}

// TestRouterDeadlinePartial: a shard that cannot answer inside its
// deadline is dropped from the merge — the response is the other shard's
// exact answer, flagged partial with the missing shard listed.
func TestRouterDeadlinePartial(t *testing.T) {
	urls, _ := twoShards(t)
	slow := newFlakyShard(t, urls[1], modeDelay, 5*time.Second)
	r := newRouter(t, Config{
		Shards:       [][]string{{urls[0]}, {slow.URL()}},
		ShardTimeout: 100 * time.Millisecond,
		Retries:      -1, // no retries: one doomed attempt, then the deadline
	})
	res, err := r.QueryBatch(context.Background(), []int{6}, 5)
	if err != nil {
		t.Fatalf("QueryBatch: %v", err)
	}
	if !res.Partial {
		t.Fatal("deadline exceeded but result not marked partial")
	}
	if len(res.Missing) != 1 || res.Missing[0] != 1 {
		t.Fatalf("missing shards = %v, want [1]", res.Missing)
	}
	// The partial answer is exact over shard 0's window [0, 20).
	want := make([]shard.Candidate, 20)
	for g := 0; g < 20; g++ {
		want[g] = shard.Candidate{User: g, Score: stubScore(6, g)}
	}
	sameCandidates(t, "partial", shard.MergeTopK([][]shard.Candidate{want}, 5), res.Results[0])
	if st := r.Stats(); st.Partials < 1 {
		t.Fatalf("partials = %d, want >= 1", st.Partials)
	}
}

// TestRouterAllShardsDown: when no shard can answer, the query fails with
// the typed error and the HTTP surface maps it to 503.
func TestRouterAllShardsDown(t *testing.T) {
	urls, _ := twoShards(t)
	dead0 := newFlakyShard(t, urls[0], mode5xx, 0)
	dead1 := newFlakyShard(t, urls[1], modeDrop, 0)
	r := newRouter(t, Config{
		Shards:       [][]string{{dead0.URL()}, {dead1.URL()}},
		ShardTimeout: 500 * time.Millisecond,
		Retries:      1,
	})
	_, err := r.QueryBatch(context.Background(), []int{1}, 5)
	if !errors.Is(err, ErrAllShardsDown) {
		t.Fatalf("err = %v, want ErrAllShardsDown", err)
	}

	front := httptest.NewServer(r.Handler())
	defer front.Close()
	resp, err := http.Post(front.URL+"/v1/query", "application/json", strings.NewReader(`{"user": 1, "k": 5}`))
	if err != nil {
		t.Fatalf("POST /v1/query: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	// The degraded fleet also fails the router's own health check once
	// passive marking has evicted every replica.
	hresp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz status = %d, want 503 after all replicas failed", hresp.StatusCode)
	}
}

// TestRouterProberValidatesIdentity: a replica URL pointing at the wrong
// shard is evicted by the health prober even though it answers queries.
func TestRouterProberValidatesIdentity(t *testing.T) {
	urls, _ := twoShards(t)
	// Shard 1's slot misconfigured to point at shard 0's server.
	r := newRouter(t, Config{
		Shards:         [][]string{{urls[0]}, {urls[0]}},
		HealthInterval: 10 * time.Millisecond,
	})
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		st := r.Stats()
		if !st.Shards[1].Replicas[0].Healthy && st.Shards[0].Replicas[0].Healthy {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("prober kept the misconfigured replica healthy: %+v", r.Stats())
}

// TestRouterEmptyTopology: New rejects unusable configurations.
func TestRouterEmptyTopology(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, ErrNoShards) {
		t.Fatalf("New(empty) err = %v, want ErrNoShards", err)
	}
	if _, err := New(Config{Shards: [][]string{{"http://a"}, {}}}); !errors.Is(err, ErrNoShards) {
		t.Fatalf("New(replica-less shard) err = %v, want ErrNoShards", err)
	}
}
