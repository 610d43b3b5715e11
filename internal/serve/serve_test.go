package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dehealth/internal/core"
	"dehealth/internal/corpus"
	"dehealth/internal/features"
	"dehealth/internal/similarity"
	"dehealth/internal/synth"
)

// testBackend is a minimal prepared world: a store pair, one pipeline, and
// the read/write discipline the public API applies (the dispatcher already
// serializes ingests against queries; the lock only guards direct test
// access).
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

func (b *testBackend) QueryUser(u, k int) ([]core.Candidate, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if u < 0 || u >= b.p.G1.NumNodes() {
		return nil, fmt.Errorf("user %d out of range", u)
	}
	return b.p.QueryUser(u, k), nil
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
	s := New(b, Config{MaxBatch: 4, DefaultK: 5})
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
	want, _ := b.QueryUser(2, 3)
	for i, c := range q.Candidates {
		if c.User != want[i].User || c.Score != want[i].Score {
			t.Fatalf("candidate %d = %+v, want %+v", i, c, want[i])
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

// gateBackend is the one backend behind every test that pins what a flush
// contains. Its first call blocks until the test opens the gate, and the
// test opens it only after it has seen the senders it wants parked on the
// request channel behind that held flush — so the flush that follows has
// exactly that content, with no clock involved. Every call is logged, so a
// test can read off how each flush was routed.
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
	b.once.Do(func() {
		close(b.entered)
		<-b.open
	})
	b.mu.Lock()
	b.calls = append(b.calls, fmt.Sprintf(format, args...))
	b.mu.Unlock()
}

func (b *gateBackend) Ingest(batch []features.UserPosts) ([]int, error) {
	b.call("ingest:%d", len(batch))
	return b.testBackend.Ingest(batch)
}

func (b *gateBackend) QueryUser(u, k int) ([]core.Candidate, error) {
	b.call("user:%d", u)
	return b.testBackend.QueryUser(u, k)
}

func (b *gateBackend) QueryBatch(users []int, k int) ([][]core.Candidate, error) {
	b.call("batch:%d@%d", len(users), k)
	return b.testBackend.QueryBatch(users, k)
}

// log returns the calls made after the opener's ("batch:1@1"), sorted when
// their order depends on which sender parked first.
func (b *gateBackend) log(t *testing.T, sorted bool) []string {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.calls) == 0 || b.calls[0] != "batch:1@1" {
		t.Fatalf("backend calls %v do not start with the opener's batch:1@1", b.calls)
	}
	out := slices.Clone(b.calls[1:])
	if sorted {
		slices.Sort(out)
	}
	return out
}

// hold submits the opener — a lone query on the idle server — and returns
// once its flush is inside the backend, blocked on the gate. From then on
// the dispatcher takes nothing off the channel until the gate opens. The
// opener's outcome arrives on the returned channel.
func (b *gateBackend) hold(s *Server) <-chan error {
	opener := make(chan error, 1)
	go func() {
		res, err := s.submit(&request{query: &queryWire{User: 0, K: 1}, done: make(chan result, 1)}, nil)
		if err == nil {
			err = res.err
		}
		opener <- err
	}()
	<-b.entered
	return opener
}

// waitParked blocks until exactly n senders are parked on the request
// channel behind the held flush. It reads goroutine states, not a clock: a
// goroutine blocked in a select inside submit is either a parked sender or
// the held flush's one waiter.
func waitParked(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 4<<20)
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(time.Millisecond) {
		in := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			state, _, _ := strings.Cut(g, "\n")
			if strings.Contains(state, "[select") && strings.Contains(g, "serve.(*Server).submit") {
				in++
			}
		}
		if in == n+1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines blocked in submit, want %d parked senders + the held flush's waiter", in, n)
		}
	}
}

// openWhenParked opens the gate once n senders are parked behind it.
func (b *gateBackend) openWhenParked(t *testing.T, n int) {
	t.Helper()
	waitParked(t, n)
	close(b.open)
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

// TestLoneQueryNoWait pins flush-when-idle: a lone query on an idle server
// is answered without any deadline elapsing. The ignored FlushInterval is
// set to an hour, so a dispatcher that still lingered for company would
// hold the query until the watchdog fires.
func TestLoneQueryNoWait(t *testing.T) {
	s := New(newTestBackend(t, 10, 85), Config{MaxBatch: 1024, FlushInterval: time.Hour})
	defer s.Close()
	done := make(chan error, 1)
	go func() {
		res, err := s.submit(&request{query: &queryWire{User: 1, K: 3}, done: make(chan result, 1)}, nil)
		if err == nil && len(res.candidates) != 3 {
			err = fmt.Errorf("got %d candidates, want 3", len(res.candidates))
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("lone query still unanswered: the dispatcher is waiting for company")
	}
	if st := s.Stats(); st.Batches != 1 || st.MeanBatchSize != 1 {
		t.Fatalf("stats %+v, want one flush of one request", st)
	}
}

// TestMicroBatching pins natural batching: requests that arrive while a
// flush runs come out together as the next flush, and /v1/stats accounts
// for the time they spent parked.
func TestMicroBatching(t *testing.T) {
	b := newGateBackend(t, 12, 81)
	s := New(b, Config{MaxBatch: 1024, DefaultK: 3})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	opener := b.hold(s)
	const burst = 48
	bodies := make([]any, burst)
	for i := range bodies {
		bodies[i] = queryWire{User: i % 12}
	}
	wait := postEach(ts.URL+"/v1/query", bodies...)
	b.openWhenParked(t, burst)
	wantStatuses(t, wait(), http.StatusOK)
	if err := <-opener; err != nil {
		t.Fatal(err)
	}
	if got, want := b.log(t, false), []string{"batch:48@3"}; !slices.Equal(got, want) {
		t.Fatalf("backend calls after the opener %v, want %v", got, want)
	}
	stats := decode[map[string]any](t, mustGet(t, ts.URL+"/v1/stats"))
	for key, want := range map[string]float64{"queries": burst + 1, "batches": 2, "mean_batch_size": (burst + 1) / 2.0} {
		if stats[key] != want {
			t.Fatalf("stats %s = %v, want %v", key, stats[key], want)
		}
	}
	// The burst sat parked behind the held flush, so both clocks have run.
	for _, key := range []string{"queue_wait_us", "flush_us"} {
		if us, ok := stats[key].(float64); !ok || us <= 0 {
			t.Fatalf("stats %s = %v, want a positive count of microseconds", key, stats[key])
		}
	}
}

// TestFlushCapsAtMaxBatch checks the one bound on a flush: with more
// senders parked than MaxBatch, the next flush takes MaxBatch of them and
// the remainder forms the flush after.
func TestFlushCapsAtMaxBatch(t *testing.T) {
	b := newGateBackend(t, 12, 83)
	s := New(b, Config{MaxBatch: 4, DefaultK: 3})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	opener := b.hold(s)
	bodies := make([]any, 6)
	for i := range bodies {
		bodies[i] = queryWire{User: i}
	}
	wait := postEach(ts.URL+"/v1/query", bodies...)
	b.openWhenParked(t, len(bodies))
	wantStatuses(t, wait(), http.StatusOK)
	if err := <-opener; err != nil {
		t.Fatal(err)
	}
	if got, want := b.log(t, false), []string{"batch:4@3", "batch:2@3"}; !slices.Equal(got, want) {
		t.Fatalf("backend calls after the opener %v, want %v", got, want)
	}
	if st := s.Stats(); st.Batches != 3 {
		t.Fatalf("batches = %d, want 3 (opener, MaxBatch, remainder)", st.Batches)
	}
}

// TestIngestBeforeQuery parks an ingest and a query for the id that ingest
// will mint: they share a flush, and the query can only succeed if the
// flush applied the ingest first.
func TestIngestBeforeQuery(t *testing.T) {
	b := newGateBackend(t, 12, 87)
	anon0, _ := b.Sizes()
	s := New(b, Config{DefaultK: 3})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	opener := b.hold(s)
	waitQuery := postEach(ts.URL+"/v1/query", queryWire{User: anon0})
	waitParked(t, 1) // the query parks first, so arrival order cannot explain a pass
	waitIngest := postEach(ts.URL+"/v1/ingest", ingestWire{Name: "fresh", Posts: []ingestPostWire{{Text: "a new account appears"}}})
	b.openWhenParked(t, 2)
	wantStatuses(t, waitIngest(), http.StatusOK)
	wantStatuses(t, waitQuery(), http.StatusOK)
	if err := <-opener; err != nil {
		t.Fatal(err)
	}
	if got, want := b.log(t, false), []string{"ingest:1", "batch:1@3"}; !slices.Equal(got, want) {
		t.Fatalf("backend calls after the opener %v, want %v", got, want)
	}
}

// TestIngestBatchFailureIsolation parks a valid and an invalid ingest into
// one flush and checks the valid client succeeds while only the bad
// request is rejected.
func TestIngestBatchFailureIsolation(t *testing.T) {
	b := newGateBackend(t, 12, 91)
	anon0, _ := b.Sizes()
	s := New(b, Config{MaxBatch: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	opener := b.hold(s)
	bad := 9999
	wait := postEach(ts.URL+"/v1/ingest",
		ingestWire{Name: "good", Posts: []ingestPostWire{{Text: "valid post about recovery"}}},
		ingestWire{Name: "bad", Posts: []ingestPostWire{{Thread: &bad, Text: "x"}}})
	b.openWhenParked(t, 2)
	wantStatuses(t, wait(), http.StatusOK, http.StatusBadRequest)
	if err := <-opener; err != nil {
		t.Fatal(err)
	}
	// One combined call that the store rejects whole, then one call each.
	if got, want := b.log(t, false), []string{"ingest:2", "ingest:1", "ingest:1"}; !slices.Equal(got, want) {
		t.Fatalf("backend calls after the opener %v, want %v", got, want)
	}
	if anon1, _ := b.Sizes(); anon1 != anon0+1 {
		t.Fatalf("anon users = %d, want %d (exactly the valid ingest applied)", anon1, anon0+1)
	}
}

// TestCloseDrainsInFlight pins the graceful-drain contract: Close during a
// running flush lets that flush answer its waiters and returns nil, while
// the senders still parked on the channel get ErrClosed at once — before
// the flush has even finished — and never reach the backend.
func TestCloseDrainsInFlight(t *testing.T) {
	b := newGateBackend(t, 10, 121)
	s := New(b, Config{MaxBatch: 1024, DrainTimeout: 20 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	opener := b.hold(s)
	wait := postEach(ts.URL+"/v1/query", queryWire{User: 1, K: 3}, queryWire{User: 2, K: 3})
	waitParked(t, 2)
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	wantStatuses(t, wait(), http.StatusServiceUnavailable) // the gate is still shut
	close(b.open)
	if err := <-opener; err != nil {
		t.Fatalf("in-flight query failed: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close = %v, want nil (drained)", err)
	}
	if got := b.log(t, false); len(got) != 0 {
		t.Fatalf("parked senders reached the backend after Close: %v", got)
	}
}

// TestCloseDrainTimeout checks Close gives up after DrainTimeout with
// ErrDrainTimeout while the stuck flush still answers its waiter once the
// backend recovers — late, but never dropped.
func TestCloseDrainTimeout(t *testing.T) {
	b := newGateBackend(t, 10, 131)
	s := New(b, Config{DrainTimeout: 50 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wait := postEach(ts.URL+"/v1/query", queryWire{User: 0, K: 1})
	<-b.entered // the flush is inside the stalled backend

	start := time.Now()
	err := s.Close()
	if !errors.Is(err, ErrDrainTimeout) {
		t.Fatalf("Close = %v, want ErrDrainTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Close blocked %v despite the drain deadline", elapsed)
	}

	close(b.open) // backend recovers; the background flush completes
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
	s := New(b, Config{MaxBatch: 1024, DrainTimeout: 20 * time.Second})
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
	<-s.quit // Close has begun; only now does the flush get to finish
	close(b.open)
	wantStatuses(t, wait(), http.StatusOK)
	if err := <-closed; err != nil {
		t.Fatalf("Close = %v, want nil", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v after graceful shutdown", err)
	}
}

// TestQueryFlushGroupsByK parks queries with two distinct k values (and
// some omitting k, which resolves to DefaultK) into one flush and checks
// it answers them as exactly three QueryBatch groups — no per-query
// backend calls — with every client's reply correct for its own k.
func TestQueryFlushGroupsByK(t *testing.T) {
	b := newGateBackend(t, 12, 151)
	s := New(b, Config{MaxBatch: 6, DefaultK: 3})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	reqs := []struct{ user, k, wantLen int }{
		{0, 2, 2}, {1, 0, 3}, {2, 5, 5}, {3, 2, 2}, {4, 3, 3}, {5, 5, 5},
	}
	opener := b.hold(s)
	bodies := make([]any, len(reqs))
	for i, q := range reqs {
		bodies[i] = queryWire{User: q.user, K: q.k}
	}
	wait := postEach(ts.URL+"/v1/query", bodies...)
	b.openWhenParked(t, len(reqs))
	replies := wait()
	wantStatuses(t, replies, http.StatusOK)
	if err := <-opener; err != nil {
		t.Fatal(err)
	}
	for i, q := range reqs {
		var got queryReplyWire
		if err := json.Unmarshal([]byte(replies[i].body), &got); err != nil {
			t.Fatal(err)
		}
		want, _ := b.testBackend.QueryUser(q.user, q.wantLen)
		if len(got.Candidates) != len(want) {
			t.Fatalf("query %d (k=%d): %d candidates, want %d", i, q.k, len(got.Candidates), len(want))
		}
		for j, c := range got.Candidates {
			if c.User != want[j].User || c.Score != want[j].Score {
				t.Fatalf("query %d candidate %d: %+v, want %+v", i, j, c, want[j])
			}
		}
	}
	// One group per distinct k, whichever parked first; no fallback calls.
	if got, want := b.log(t, true), []string{"batch:2@2", "batch:2@3", "batch:2@5"}; !slices.Equal(got, want) {
		t.Fatalf("backend calls after the opener %v, want %v", got, want)
	}
}

// TestQueryBatchFailureIsolation parks a bad user into the same flush as
// two valid queries of the same k: the group's QueryBatch fails whole, the
// per-query fallback must reject only the bad request and still answer its
// peers correctly.
func TestQueryBatchFailureIsolation(t *testing.T) {
	b := newGateBackend(t, 12, 161)
	s := New(b, Config{MaxBatch: 3})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	opener := b.hold(s)
	wait := postEach(ts.URL+"/v1/query", queryWire{User: 0, K: 4}, queryWire{User: 9999, K: 4}, queryWire{User: 1, K: 4})
	b.openWhenParked(t, 3)
	wantStatuses(t, wait(), http.StatusOK, http.StatusBadRequest, http.StatusOK)
	if err := <-opener; err != nil {
		t.Fatal(err)
	}
	// The whole failed group is re-run, one QueryUser each.
	if got, want := b.log(t, true), []string{"batch:3@4", "user:0", "user:1", "user:9999"}; !slices.Equal(got, want) {
		t.Fatalf("backend calls after the opener %v, want %v", got, want)
	}
}

// TestFlushDropsCanceled hands flush a request of each kind whose client
// has already gone, next to a live query: the dead request is neither
// scored, applied nor answered, and the live one is unaffected.
func TestFlushDropsCanceled(t *testing.T) {
	gone := make(chan struct{})
	close(gone)
	for _, tc := range []struct {
		name string
		dead request
	}{
		{"query", request{query: &queryWire{User: 1}}},
		{"ingest", request{ingest: []features.UserPosts{{User: corpusUser("ghost")}}}},
		{"internal query", request{bquery: &InternalQuery{Users: []int{1, 2}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newGateBackend(t, 10, 171)
			close(b.open) // nothing to hold: flush is called directly
			anon0, _ := b.Sizes()
			s := New(b, Config{DefaultK: 3})
			defer s.Close()

			dead := tc.dead
			dead.cancel, dead.done = gone, make(chan result, 1)
			live := &request{query: &queryWire{User: 0, K: 1}, done: make(chan result, 1)}
			s.flush([]*request{&dead, live})
			if res := <-live.done; res.err != nil || len(res.candidates) != 1 {
				t.Fatalf("live query next to a canceled %s: %+v", tc.name, res)
			}
			select {
			case res := <-dead.done:
				t.Fatalf("canceled %s was answered: %+v", tc.name, res)
			default:
			}
			if got := b.log(t, false); len(got) != 0 {
				t.Fatalf("canceled %s reached the backend: %v", tc.name, got)
			}
			if anon1, _ := b.Sizes(); anon1 != anon0 {
				t.Fatalf("canceled %s grew the world to %d users, want %d", tc.name, anon1, anon0)
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
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.calls) != 0 {
		t.Fatalf("oversized bodies reached the backend: %v", b.calls)
	}
}

// TestFlushQueryAllocs pins the batched flush's steady-state allocation
// behavior: repeated same-shape flushes must not grow with the auxiliary
// population — the grouping scratch lives on the Server and the kernel
// scratch is pooled, leaving only per-result slices and bookkeeping.
func TestFlushQueryAllocs(t *testing.T) {
	b := newTestBackend(t, 30, 171)
	s := New(b, Config{MaxBatch: 64, DefaultK: 5})
	defer s.Close()

	const q = 8
	batch := make([]*request, q)
	for i := range batch {
		batch[i] = &request{query: &queryWire{User: i, K: 5}, done: make(chan result, 1)}
	}
	drain := func() {
		for _, r := range batch {
			res := <-r.done
			if res.err != nil {
				t.Fatal(res.err)
			}
		}
	}
	s.flush(batch)
	drain() // warm scorer state, server scratch and the kernel pool
	allocs := testing.AllocsPerRun(50, func() {
		s.flush(batch)
		drain()
	})
	// Per flush: q result sets of k candidates plus heap/sort bookkeeping,
	// independent of |aux|. A regression to per-flush kernel scratch (Q
	// profiles, tables, block buffers) or per-query aux scans would blow
	// far past this.
	if max := float64(8*q + 16); allocs > max {
		t.Fatalf("flush allocates %v times for %d queries, want <= %v", allocs, q, max)
	}
}
