package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dehealth/internal/core"
	"dehealth/internal/corpus"
	"dehealth/internal/features"
	"dehealth/internal/similarity"
	"dehealth/internal/synth"
)

// testBackend is a minimal prepared world: a store pair, one pipeline, and
// the read/write discipline the public API applies (the server's lock
// already keeps ingests from overlapping queries; this one only guards
// direct test access).
type testBackend struct {
	mu   sync.RWMutex
	anon *features.Store
	p    *core.Pipeline
}

func newTestBackend(t *testing.T, users int, seed int64) *testBackend {
	t.Helper()
	u := synth.NewUniverse(users, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	members := synth.Members(u, users, rng)
	cfg := synth.WebMDLike(users, seed+2)
	cfg.FixedPosts = 6
	d := synth.Generate(cfg, u, members)
	split := corpus.SplitClosedWorld(d, 0.5, rand.New(rand.NewSource(seed+3)))
	anonS, auxS := features.BuildPair(split.Anon, split.Aux, 50, features.Options{})
	return &testBackend{
		anon: anonS,
		p:    core.NewPipelineFromStore(anonS, auxS, similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 5}),
	}
}

func (b *testBackend) Ingest(batch []features.UserPosts) ([]int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ids, err := b.anon.Append(batch)
	if err != nil {
		return nil, err
	}
	b.p.SyncAppended()
	return ids, nil
}

func (b *testBackend) QueryBatch(users []int, k int) ([][]core.Candidate, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	for _, u := range users {
		if u < 0 || u >= b.p.G1.NumNodes() {
			return nil, fmt.Errorf("user %d out of range", u)
		}
	}
	return b.p.QueryBatch(users, k, 0), nil
}

func (b *testBackend) Sizes() (int, int) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.p.G1.NumNodes(), b.p.G2.NumNodes()
}

func (b *testBackend) ShardSizes() []ShardCount {
	anon, aux := b.Sizes()
	return []ShardCount{{Shard: 0, AuxUsers: aux, AnonUsers: anon}}
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestHTTPRoundTrip drives the full wire path: query an existing user,
// ingest a new one (posts with and without thread ids), query the ingested
// user, and read back stats.
func TestHTTPRoundTrip(t *testing.T) {
	b := newTestBackend(t, 16, 61)
	s := New(b, Config{DefaultK: 5})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	anon0, aux := b.Sizes()

	resp := postJSON(t, ts.URL+"/v1/query", map[string]int{"user": 2, "k": 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	q := decode[queryReplyWire](t, resp)
	if q.User != 2 || len(q.Candidates) != 3 {
		t.Fatalf("query reply %+v, want user 2 with 3 candidates", q)
	}
	want, _ := b.QueryBatch([]int{2}, 3)
	for i, c := range q.Candidates {
		if c.User != want[0][i].User || c.Score != want[0][i].Score {
			t.Fatalf("candidate %d = %+v, want %+v", i, c, want[0][i])
		}
	}
	for i := 1; i < len(q.Candidates); i++ {
		if q.Candidates[i].Score > q.Candidates[i-1].Score {
			t.Fatal("candidates not sorted by decreasing score")
		}
	}

	thread := 0
	resp = postJSON(t, ts.URL+"/v1/ingest", ingestWire{
		Name: "newly-observed",
		Posts: []ingestPostWire{
			{Thread: &thread, Text: "my physical therapist recommended daily stretching"},
			{Text: "has anyone else had trouble sleeping after surgery?"},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	in := decode[ingestReplyWire](t, resp)
	if in.User != anon0 {
		t.Fatalf("ingested user id %d, want %d", in.User, anon0)
	}

	resp = postJSON(t, ts.URL+"/v1/query", map[string]int{"user": in.User})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query of ingested user: status %d", resp.StatusCode)
	}
	q = decode[queryReplyWire](t, resp)
	if len(q.Candidates) != 5 { // DefaultK
		t.Fatalf("ingested user got %d candidates, want 5", len(q.Candidates))
	}

	st, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decode[Stats](t, st)
	if stats.AnonUsers != anon0+1 || stats.AuxUsers != aux {
		t.Fatalf("stats sizes %+v, want anon %d aux %d", stats, anon0+1, aux)
	}
	if stats.Queries != 2 || stats.Ingests != 1 || stats.Batches == 0 {
		t.Fatalf("stats counters %+v", stats)
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", hz.StatusCode)
	}
}

// TestHTTPErrors covers the failure surface: malformed bodies, unknown
// users, bad thread references, wrong methods, and a closed server.
func TestHTTPErrors(t *testing.T) {
	b := newTestBackend(t, 10, 71)
	s := New(b, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed query: status %d, want 400", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/v1/query", map[string]int{"user": 10_000})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown user: status %d, want 400", resp.StatusCode)
	}

	bad := 9999
	resp = postJSON(t, ts.URL+"/v1/ingest", ingestWire{Name: "x", Posts: []ingestPostWire{{Thread: &bad, Text: "hi"}}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad thread: status %d, want 400", resp.StatusCode)
	}

	get, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET query: status %d, want 405", get.StatusCode)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	resp = postJSON(t, ts.URL+"/v1/query", map[string]int{"user": 1})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("closed server: status %d, want 503", resp.StatusCode)
	}
}

// TestServeAfterClose pins the Close/Serve ordering contract: Serve on a
// closed server must close the listener and return ErrClosed instead of
// blocking forever.
func TestServeAfterClose(t *testing.T) {
	b := newTestBackend(t, 10, 95)
	s := New(b, Config{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(l); err != ErrClosed {
		t.Fatalf("Serve after Close = %v, want ErrClosed", err)
	}
	if _, err := l.Accept(); err == nil {
		t.Fatal("listener left open after Serve on closed server")
	}
}

// TestBatchedIngest drives the array form of /v1/ingest: several users in
// one body land as one backend batch with dense consecutive ids, the
// single-object form keeps its reply shape, and the empty array is a
// well-formed no-op.
func TestBatchedIngest(t *testing.T) {
	b := newTestBackend(t, 12, 101)
	anon0, _ := b.Sizes()
	s := New(b, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	thread := 0
	resp := postJSON(t, ts.URL+"/v1/ingest", []ingestWire{
		{Name: "batch-a", Posts: []ingestPostWire{{Thread: &thread, Text: "first batched account"}}},
		{Name: "batch-b", Posts: []ingestPostWire{{Text: "second batched account, fresh thread"}}},
		{Name: "batch-c", Posts: []ingestPostWire{{Text: "third batched account"}}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batched ingest status %d", resp.StatusCode)
	}
	reply := decode[ingestBatchReplyWire](t, resp)
	if len(reply.Users) != 3 {
		t.Fatalf("batched ingest returned %d ids, want 3", len(reply.Users))
	}
	for i, id := range reply.Users {
		if id != anon0+i {
			t.Fatalf("batched ids %v, want dense from %d", reply.Users, anon0)
		}
	}
	if anon1, _ := b.Sizes(); anon1 != anon0+3 {
		t.Fatalf("anon users = %d, want %d", anon1, anon0+3)
	}

	// The whole batch is one logical ingest request in the counters.
	if st := s.Stats(); st.Ingests != 1 {
		t.Fatalf("stats ingests = %d, want 1", st.Ingests)
	}

	// Single-object compatibility.
	resp = postJSON(t, ts.URL+"/v1/ingest", ingestWire{Name: "solo", Posts: []ingestPostWire{{Text: "single object body"}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single ingest status %d", resp.StatusCode)
	}
	if one := decode[ingestReplyWire](t, resp); one.User != anon0+3 {
		t.Fatalf("single ingest id %d, want %d", one.User, anon0+3)
	}

	// Empty batch: accepted, nothing applied.
	resp = postJSON(t, ts.URL+"/v1/ingest", []ingestWire{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty batch status %d", resp.StatusCode)
	}
	if empty := decode[ingestBatchReplyWire](t, resp); len(empty.Users) != 0 {
		t.Fatalf("empty batch returned ids %v", empty.Users)
	}
	if anon2, _ := b.Sizes(); anon2 != anon0+4 {
		t.Fatalf("anon users = %d, want %d", anon2, anon0+4)
	}

	// A bad entry fails the whole batched body (it is one atomic request).
	bad := 9999
	resp = postJSON(t, ts.URL+"/v1/ingest", []ingestWire{
		{Name: "ok", Posts: []ingestPostWire{{Text: "fine"}}},
		{Name: "broken", Posts: []ingestPostWire{{Thread: &bad, Text: "nope"}}},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad batch status %d, want 400", resp.StatusCode)
	}
	if anon3, _ := b.Sizes(); anon3 != anon0+4 {
		t.Fatalf("bad batch mutated the world: %d users, want %d", anon3, anon0+4)
	}
}

// TestStatsShards checks /v1/stats carries the per-shard breakdown the
// backend reports.
func TestStatsShards(t *testing.T) {
	b := newTestBackend(t, 14, 111)
	s := New(b, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := decode[Stats](t, resp)
	if len(st.Shards) != 1 {
		t.Fatalf("stats shards = %+v, want one entry", st.Shards)
	}
	if st.Shards[0].AuxUsers != st.AuxUsers || st.Shards[0].AnonUsers != st.AnonUsers {
		t.Fatalf("shard breakdown %+v does not match aggregate (%d, %d)", st.Shards[0], st.AnonUsers, st.AuxUsers)
	}
}

// gateBackend logs every call it receives, and its first call blocks until
// the test opens the gate — so a test can hold one request inside the
// backend, with the server lock held for it, for as long as it likes.
type gateBackend struct {
	*testBackend
	entered chan struct{} // closed when the first call reaches the backend
	open    chan struct{} // closed by the test to let that call go on
	once    sync.Once
	mu      sync.Mutex
	calls   []string // "ingest:<users>", "batch:<width>@<k>", "user:<id>", in call order
}

func newGateBackend(t *testing.T, users int, seed int64) *gateBackend {
	return &gateBackend{
		testBackend: newTestBackend(t, users, seed),
		entered:     make(chan struct{}),
		open:        make(chan struct{}),
	}
}

func (b *gateBackend) call(format string, args ...any) {
	b.mu.Lock()
	b.calls = append(b.calls, fmt.Sprintf(format, args...))
	b.mu.Unlock()
	b.once.Do(func() {
		close(b.entered)
		<-b.open
	})
}

func (b *gateBackend) Ingest(batch []features.UserPosts) ([]int, error) {
	b.call("ingest:%d", len(batch))
	return b.testBackend.Ingest(batch)
}

func (b *gateBackend) QueryBatch(users []int, k int) ([][]core.Candidate, error) {
	b.call("batch:%d@%d", len(users), k)
	return b.testBackend.QueryBatch(users, k)
}

// log returns the calls that have reached the backend so far.
func (b *gateBackend) log() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.calls...)
}

type reply struct {
	status int // -1 on a transport error
	body   string
}

// postEach posts every body to url from its own goroutine and returns a
// function that waits for all the replies, aligned with bodies.
func postEach(url string, bodies ...any) func() []reply {
	replies := make([]reply, len(bodies))
	var wg sync.WaitGroup
	for i, body := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf, _ := json.Marshal(body)
			resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
			if err != nil {
				replies[i] = reply{status: -1, body: err.Error()}
				return
			}
			defer resp.Body.Close()
			text, _ := io.ReadAll(resp.Body)
			replies[i] = reply{status: resp.StatusCode, body: string(text)}
		}()
	}
	return func() []reply {
		wg.Wait()
		return replies
	}
}

// wantStatuses fails unless every reply carries its wanted status code.
func wantStatuses(t *testing.T, got []reply, want ...int) {
	t.Helper()
	for i, r := range got {
		if r.status != want[i%len(want)] {
			t.Fatalf("request %d: status %d (%s), want %d", i, r.status, r.body, want[i%len(want)])
		}
	}
}

// within fails the test unless wait returns before the watchdog fires.
func within[T any](t *testing.T, what string, wait func() T) T {
	t.Helper()
	done := make(chan T, 1)
	go func() { done <- wait() }()
	select {
	case v := <-done:
		return v
	case <-time.After(20 * time.Second):
		t.Fatalf("%s: still waiting after 20s", what)
		panic("unreachable")
	}
}

// waitClosed blocks until a concurrent Close has marked the server closed.
func waitClosed(s *Server) {
	for !s.closed.Load() {
		time.Sleep(time.Millisecond)
	}
}

// TestLoneQueryNoWait pins that nothing stands between a request and the
// backend: a lone query on an idle server is answered at once — the
// ignored MaxBatch and FlushInterval are set as if company were worth
// waiting an hour for — and counted as one backend call for one user.
func TestLoneQueryNoWait(t *testing.T) {
	s := New(newTestBackend(t, 10, 85), Config{MaxBatch: 1024, FlushInterval: time.Hour})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	got := within(t, "lone query", postEach(ts.URL+"/v1/query", queryWire{User: 1, K: 3}))
	wantStatuses(t, got, http.StatusOK)
	if st := s.Stats(); st.Queries != 1 || st.Batches != 1 || st.MeanBatchSize != 1 {
		t.Fatalf("stats %+v, want one backend call for one user", st)
	}
}

// meetBackend makes every query wait inside the backend until `want` of
// them are there together — possible only if the server lets queries
// overlap.
type meetBackend struct {
	*testBackend
	inside sync.WaitGroup
}

func (b *meetBackend) QueryBatch(users []int, k int) ([][]core.Candidate, error) {
	b.inside.Done()
	b.inside.Wait()
	return b.testBackend.QueryBatch(users, k)
}

// TestQueriesOverlap issues two queries that each block in the backend
// until the other has entered it: a server that serialized queries would
// hold the second out for ever.
func TestQueriesOverlap(t *testing.T) {
	b := &meetBackend{testBackend: newTestBackend(t, 10, 81)}
	b.inside.Add(2)
	s := New(b, Config{DefaultK: 3})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	got := within(t, "two queries meeting inside the backend", postEach(ts.URL+"/v1/query", queryWire{User: 0}, queryWire{User: 1}))
	wantStatuses(t, got, http.StatusOK)
}

// bareBackend is deliberately lock-free: a plain slice grown by Ingest and
// read by every other method. It is race-free only under the exclusion
// the Backend contract promises — Ingest never overlapping another call.
type bareBackend struct {
	users []int
}

func (b *bareBackend) Ingest(batch []features.UserPosts) ([]int, error) {
	ids := make([]int, len(batch))
	for i := range batch {
		ids[i] = len(b.users)
		b.users = append(b.users, ids[i])
	}
	return ids, nil
}

func (b *bareBackend) QueryBatch(users []int, k int) ([][]core.Candidate, error) {
	out := make([][]core.Candidate, len(users))
	for i, u := range users {
		if u < 0 || u >= len(b.users) {
			return nil, fmt.Errorf("user %d out of range", u)
		}
		out[i] = []core.Candidate{{User: b.users[u], Score: 1}}
	}
	return out, nil
}

func (b *bareBackend) Sizes() (int, int) { return len(b.users), 1 }

func (b *bareBackend) ShardSizes() []ShardCount {
	return []ShardCount{{AuxUsers: 1, AnonUsers: len(b.users)}}
}

// TestLockFreeBackendExclusion hammers a backend that has no locking of
// its own with every kind of request at once; run under -race, it passes
// only if the server alone keeps Ingest apart from queries, /v1/stats and
// /internal/shard.
func TestLockFreeBackendExclusion(t *testing.T) {
	b := &bareBackend{users: []int{0, 1, 2, 3}}
	s := New(b, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const rounds = 40
	clients := []func(i int) (*http.Response, error){
		func(i int) (*http.Response, error) {
			return http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(fmt.Sprintf(`{"user": %d}`, i%4)))
		},
		func(i int) (*http.Response, error) {
			return http.Post(ts.URL+"/internal/query", "application/json", strings.NewReader(fmt.Sprintf(`{"users": [%d, 3]}`, i%4)))
		},
		func(i int) (*http.Response, error) {
			return http.Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader(`[{"name": "a", "posts": []}, {"name": "b", "posts": []}]`))
		},
		func(int) (*http.Response, error) { return http.Get(ts.URL + "/v1/stats") },
		func(int) (*http.Response, error) { return http.Get(ts.URL + "/internal/shard") },
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 2*len(clients)*rounds)
	for c, do := range clients {
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range rounds {
					resp, err := do(i)
					if err != nil {
						errCh <- err
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errCh <- fmt.Errorf("client %d: status %d", c, resp.StatusCode)
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if anon, _ := b.Sizes(); anon != 4+2*2*rounds {
		t.Fatalf("anon users = %d, want %d", anon, 4+2*2*rounds)
	}
}

// TestIngestBeforeQuery issues an ingest while query loops keep the lock
// shared: the writer must not starve, and once it is answered the same
// client's next query sees the user it minted. The clocks in /v1/stats
// have run by then.
func TestIngestBeforeQuery(t *testing.T) {
	b := newTestBackend(t, 12, 87)
	anon0, _ := b.Sizes()
	s := New(b, Config{DefaultK: 3})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var stop atomic.Bool
	var loops sync.WaitGroup
	for g := range 4 {
		loops.Add(1)
		go func() {
			defer loops.Done()
			for i := g; !stop.Load(); i++ {
				postEach(ts.URL+"/v1/query", queryWire{User: i % anon0})()
			}
		}()
	}
	defer loops.Wait()
	defer stop.Store(true)

	got := within(t, "ingest under query load", postEach(ts.URL+"/v1/ingest", ingestWire{Name: "fresh", Posts: []ingestPostWire{{Text: "a new account appears"}}}))
	wantStatuses(t, got, http.StatusOK)
	var minted ingestReplyWire
	if err := json.Unmarshal([]byte(got[0].body), &minted); err != nil || minted.User != anon0 {
		t.Fatalf("ingest reply %q (%v), want user %d", got[0].body, err, anon0)
	}
	wantStatuses(t, postEach(ts.URL+"/v1/query", queryWire{User: minted.User})(), http.StatusOK)

	stats := decode[map[string]any](t, mustGet(t, ts.URL+"/v1/stats"))
	if us, ok := stats["backend_us"].(float64); !ok || us <= 0 {
		t.Fatalf("stats backend_us = %v, want a positive count of microseconds", stats["backend_us"])
	}
	if _, ok := stats["queue_wait_us"].(float64); !ok {
		t.Fatalf("stats queue_wait_us = %v, want a count of microseconds", stats["queue_wait_us"])
	}
}

// TestIngestBatchFailureIsolation sends a valid and an invalid ingest at
// once: each is its own backend call, so the valid client succeeds and
// only the bad request is rejected.
func TestIngestBatchFailureIsolation(t *testing.T) {
	b := newTestBackend(t, 12, 91)
	anon0, _ := b.Sizes()
	s := New(b, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bad := 9999
	wait := postEach(ts.URL+"/v1/ingest",
		ingestWire{Name: "good", Posts: []ingestPostWire{{Text: "valid post about recovery"}}},
		ingestWire{Name: "bad", Posts: []ingestPostWire{{Thread: &bad, Text: "x"}}})
	wantStatuses(t, wait(), http.StatusOK, http.StatusBadRequest)
	if anon1, _ := b.Sizes(); anon1 != anon0+1 {
		t.Fatalf("anon users = %d, want %d (exactly the valid ingest applied)", anon1, anon0+1)
	}
}

// TestCloseDrainsInFlight pins the graceful-drain contract: Close while a
// backend call is running lets that call answer its client and returns
// nil, while a request arriving meanwhile gets ErrClosed at once — before
// the call has even finished — and never reaches the backend.
func TestCloseDrainsInFlight(t *testing.T) {
	b := newGateBackend(t, 10, 121)
	s := New(b, Config{DrainTimeout: 20 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	inFlight := postEach(ts.URL+"/v1/query", queryWire{User: 0, K: 1})
	<-b.entered
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	waitClosed(s)
	late := postEach(ts.URL+"/v1/query", queryWire{User: 1, K: 3}, queryWire{User: 2, K: 3})
	wantStatuses(t, late(), http.StatusServiceUnavailable) // the gate is still shut
	close(b.open)
	wantStatuses(t, inFlight(), http.StatusOK)
	if err := <-closed; err != nil {
		t.Fatalf("Close = %v, want nil (drained)", err)
	}
	if got := b.log(); len(got) != 1 {
		t.Fatalf("backend calls %v, want only the in-flight query of user 0", got)
	}
}

// TestCloseDrainTimeout checks Close gives up after DrainTimeout with
// ErrDrainTimeout while the stuck call still answers its client once the
// backend recovers — late, but never dropped. An idle server closes clean.
func TestCloseDrainTimeout(t *testing.T) {
	if err := New(newTestBackend(t, 10, 131), Config{}).Close(); err != nil {
		t.Fatalf("Close of an idle server = %v, want nil", err)
	}

	b := newGateBackend(t, 10, 131)
	s := New(b, Config{DrainTimeout: 50 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wait := postEach(ts.URL+"/v1/query", queryWire{User: 0, K: 1})
	<-b.entered // the query is inside the stalled backend

	start := time.Now()
	err := s.Close()
	if !errors.Is(err, ErrDrainTimeout) {
		t.Fatalf("Close = %v, want ErrDrainTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Close blocked %v despite the drain deadline", elapsed)
	}

	close(b.open) // backend recovers; the background call completes
	if got := wait()[0].status; got != http.StatusOK && got != -1 {
		t.Fatalf("stalled query finished with status %d", got)
	}
}

// TestCloseDrainsServePath repeats the drain guarantee over a real
// listener (Serve, not just Handler): Close must let the handler
// goroutine finish writing the drained response before the connection is
// torn down — http.Server.Shutdown semantics, not Close semantics.
func TestCloseDrainsServePath(t *testing.T) {
	b := newGateBackend(t, 10, 141)
	s := New(b, Config{DrainTimeout: 20 * time.Second})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(l) }()

	wait := postEach("http://"+l.Addr().String()+"/v1/query", queryWire{User: 0, K: 1})
	<-b.entered
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	waitClosed(s) // Close has begun; only now does the call get to finish
	close(b.open)
	wantStatuses(t, wait(), http.StatusOK)
	if err := <-closed; err != nil {
		t.Fatalf("Close = %v, want nil", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v after graceful shutdown", err)
	}
}

// TestQueryBatchFailureIsolation sends an /internal/query group holding a
// bad user next to valid traffic: the group fails whole with 400 — the
// router owns recovery — and nobody else's request is affected.
func TestQueryBatchFailureIsolation(t *testing.T) {
	b := newGateBackend(t, 12, 161)
	close(b.open)
	s := New(b, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	groups := postEach(ts.URL+"/internal/query", InternalQuery{Users: []int{0, 9999, 1}, K: 4}, InternalQuery{Users: []int{0, 1}, K: 4})
	singles := postEach(ts.URL+"/v1/query", queryWire{User: 0, K: 4}, queryWire{User: 9999, K: 4})
	wantStatuses(t, groups(), http.StatusBadRequest, http.StatusOK)
	wantStatuses(t, singles(), http.StatusOK, http.StatusBadRequest)
	// One backend call per request: nothing is regrouped or retried; each
	// /v1/query is a one-user batch.
	got := b.log()
	slices.Sort(got)
	if want := []string{"batch:1@4", "batch:1@4", "batch:2@4", "batch:3@4"}; !slices.Equal(got, want) {
		t.Fatalf("backend calls %v, want %v", got, want)
	}
}

// TestCanceledNeverReachesBackend sends a request of each kind whose client
// has already gone: by the time it holds the lock its context is done, so
// it is neither scored, applied nor counted.
func TestCanceledNeverReachesBackend(t *testing.T) {
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct{ name, path, body string }{
		{"query", "/v1/query", `{"user": 1}`},
		{"ingest", "/v1/ingest", `{"name": "ghost", "posts": [{"text": "nobody is listening"}]}`},
		{"internal query", "/internal/query", `{"users": [1, 2]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newGateBackend(t, 10, 171)
			close(b.open)
			anon0, _ := b.Sizes()
			s := New(b, Config{DefaultK: 3})
			defer s.Close()

			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", tc.path, strings.NewReader(tc.body)).WithContext(gone))
			if rec.Code != http.StatusServiceUnavailable {
				t.Fatalf("canceled %s: status %d (%s), want 503", tc.name, rec.Code, rec.Body)
			}
			if got := b.log(); len(got) != 0 {
				t.Fatalf("canceled %s reached the backend: %v", tc.name, got)
			}
			if anon1, _ := b.Sizes(); anon1 != anon0 {
				t.Fatalf("canceled %s grew the world to %d users, want %d", tc.name, anon1, anon0)
			}
			if st := s.Stats(); st.Queries+st.Ingests+st.Batches != 0 {
				t.Fatalf("canceled %s was counted: %+v", tc.name, st)
			}
		})
	}
}

// TestBodyTooLarge checks every body-decoding endpoint caps what it reads:
// a body past MaxBodyBytes is answered 413 with the JSON error shape and
// never reaches the backend.
func TestBodyTooLarge(t *testing.T) {
	b := newGateBackend(t, 10, 181)
	close(b.open)
	s := New(b, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	pad := strings.Repeat("a", MaxBodyBytes)
	for _, tc := range []struct{ path, body string }{
		{"/v1/query", `{"user": 1, "pad": "` + pad + `"}`},
		{"/v1/ingest", `{"name": "` + pad + `", "posts": []}`},
		{"/v1/ingest", `[{"name": "` + pad + `", "posts": []}]`},
		{"/internal/query", `{"users": [1], "pad": "` + pad + `"}`},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413", tc.path, resp.StatusCode)
		}
		if e := decode[errorWire](t, resp); e.Error == "" {
			t.Fatalf("%s: 413 without an error message", tc.path)
		}
	}
	if got := b.log(); len(got) != 0 {
		t.Fatalf("oversized bodies reached the backend: %v", got)
	}
}
