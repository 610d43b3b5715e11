// Package serve is the online query layer of the De-Health reproduction:
// an HTTP service that owns a prepared (anonymized, auxiliary) world,
// answers single-user de-anonymization queries and ingests newly observed
// anonymous accounts as they appear — the continuous-tracking threat model
// behind the paper, rather than the offline batch experiments.
//
// Concurrency is organized around one channel and natural batching: every
// request (query or ingest) is handed to a single dispatcher goroutine
// that blocks for one request, takes whatever other senders are already
// parked on the channel (up to Config.MaxBatch) and flushes at once. An
// idle server therefore answers with no wait, and batches form on their
// own from whatever arrived while the previous flush ran. Within a flush,
// ingests are applied first — serially, in arrival order, as one backend
// call — and then the flush's queries are handed to the backend whole:
// grouped by effective k, each group is one Backend.QueryBatch call, which
// lets the backend drive its multi-query blocked scoring kernel (every aux
// block scored against the whole group while cache-hot) instead of one
// scan per query. Config.MaxBatch therefore bounds the kernel's batch
// width Q. The dispatcher is the only writer the backend ever sees, and
// reads never overlap mutation, so the whole service is race-free without
// locks on the scoring hot path. A sharded backend changes none of this:
// per-shard state is immutable after partitioning and queries fan out
// inside the backend's QueryBatch, so the single-writer flush discipline
// survives sharding; /v1/stats additionally reports the per-shard
// breakdown.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dehealth/internal/core"
	"dehealth/internal/corpus"
	"dehealth/internal/features"
	"dehealth/internal/index"
)

// corpusUser builds the user record of an ingested anonymous account: no
// ground-truth identity, just the observed display name.
func corpusUser(name string) corpus.User {
	return corpus.User{Name: name, TrueIdentity: -1}
}

// ShardCount is one shard's slice of the world in /v1/stats: the
// auxiliary partition it scores and the anonymized accounts whose stable
// name hash routes them to it.
type ShardCount struct {
	Shard     int `json:"shard"`
	AuxUsers  int `json:"aux_users"`
	AnonUsers int `json:"anon_users"`
}

// PruneCounters is the candidate-pruning block of /v1/stats: cumulative
// per-shard-query counters describing how much of the auxiliary
// population the attribute inverted index let queries skip. Pruning never
// changes results — only the amount of scanning.
type PruneCounters = index.Stats

// PruneStatser is the optional Backend extension for candidate-pruning
// counters: backends that prune report (counters, true); /v1/stats then
// carries a "prune" block. Backends without pruning simply do not
// implement it (or return false).
type PruneStatser interface {
	PruneCounters() (PruneCounters, bool)
}

// ApproxCounters is the approximate-tier block of /v1/stats: cumulative
// per-shard-query counters of the max-score/WAND candidate generation.
// Returned scores are always exact; the counters describe how much
// scanning the posting cursors skipped.
type ApproxCounters = index.ApproxStats

// ApproxStatser is the optional Backend extension for approximate-tier
// counters, mirroring PruneStatser: backends with the tier enabled report
// (counters, true) and /v1/stats carries an "approx" block.
type ApproxStatser interface {
	ApproxCounters() (ApproxCounters, bool)
}

// ApproxQueryer is the optional Backend extension behind the per-request
// "approx" query knob: requests flagged approximate are answered through
// these methods (grouped per flush exactly like the exact path). A
// backend without the extension answers such requests exactly — the knob
// is an opt-in accelerator, never a correctness switch.
type ApproxQueryer interface {
	QueryUserApprox(u, k int) ([]core.Candidate, error)
	QueryBatchApprox(users []int, k int) ([][]core.Candidate, error)
}

// Backend is the prepared world a Server queries and grows. Implementations
// need no internal locking against the Server: all calls arrive from the
// dispatcher's flush, ingestion strictly before queries. When the backend
// shards its auxiliary side, queries fan out inside QueryUser; the
// dispatcher stays the world's only writer either way, so the lock-free
// flush discipline survives sharding unchanged.
type Backend interface {
	// Ingest appends newly observed anonymous users and returns their new
	// user indices, aligned with the batch.
	Ingest(batch []features.UserPosts) ([]int, error)
	// QueryUser returns the top-k auxiliary candidates of anonymized user u.
	QueryUser(u, k int) ([]core.Candidate, error)
	// QueryBatch answers one QueryUser per entry of users, bit-identically,
	// with results aligned by index. The flush hands it a whole same-k group
	// of its requests at once so the backend can score all of them per
	// pass over its auxiliary data (the multi-query blocked kernel). An
	// error fails the whole group; the flush then re-runs the group's
	// queries individually through QueryUser so each waiter gets an answer
	// (or an error) about its own request.
	QueryBatch(users []int, k int) ([][]core.Candidate, error)
	// Sizes reports the current aggregate world sizes (for /v1/stats).
	Sizes() (anonUsers, auxUsers int)
	// ShardSizes reports the per-shard breakdown (a single element for
	// unsharded worlds); the aggregate of the entries matches Sizes.
	ShardSizes() []ShardCount
}

// Config tunes the service.
type Config struct {
	// Workers bounds the worker pool of the per-query fallback path taken
	// when a batched query group fails (<= 0 uses GOMAXPROCS). The batched
	// path itself delegates fan-out to Backend.QueryBatch.
	Workers int
	// MaxBatch caps how many parked requests one flush takes (default 32);
	// the remainder forms the next flush.
	MaxBatch int
	// Deprecated: FlushInterval is ignored. The dispatcher flushes as soon
	// as it is idle and never waits for company.
	FlushInterval time.Duration
	// DefaultK is the candidate-set size of queries that omit k (default 10).
	DefaultK int
	// DrainTimeout bounds how long Close waits for the dispatcher to
	// finish the running flush (default 5s). Within the deadline every
	// waiter of that flush gets its response; past it Close returns
	// ErrDrainTimeout while the flush finishes in the background. Requests
	// still parked on the channel, and late arrivals, get ErrClosed.
	DrainTimeout time.Duration
	// Snapshot, when set, enables the POST /v1/snapshot admin endpoint:
	// the callback persists the backend's world and reports where and how
	// big. The callback must be safe against concurrent queries and
	// ingestion (the dehealth backend takes the world's read lock, so a
	// snapshot waits out any in-flight ingest batch and vice versa). When
	// nil, the endpoint answers 501 Not Implemented.
	Snapshot func() (SnapshotInfo, error)
}

// SnapshotInfo is the POST /v1/snapshot reply: where the snapshot was
// written, its size, and how long the write took.
type SnapshotInfo struct {
	Path   string `json:"path"`
	Bytes  int64  `json:"bytes"`
	Millis int64  `json:"millis"`
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.DefaultK <= 0 {
		c.DefaultK = 10
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	return c
}

// ErrClosed is returned to requests that arrive after Close.
var ErrClosed = errors.New("serve: server closed")

// ErrDrainTimeout is returned by Close when the running flush did not
// finish within Config.DrainTimeout. The flush keeps running in
// the background so its waiters still get answers; the error only tells
// the closer that shutdown did not observe a quiesced dispatcher.
var ErrDrainTimeout = errors.New("serve: drain deadline exceeded")

// Stats is the /v1/stats payload: aggregate sizes and counters plus the
// per-shard breakdown of the world.
type Stats struct {
	AnonUsers int          `json:"anon_users"`
	AuxUsers  int          `json:"aux_users"`
	Shards    []ShardCount `json:"shards"`
	// Prune carries the candidate-pruning counters when the backend
	// prunes (see PruneStatser); omitted otherwise.
	Prune *PruneCounters `json:"prune,omitempty"`
	// Approx carries the approximate-tier counters when the backend has
	// the tier enabled (see ApproxStatser); omitted otherwise.
	Approx        *ApproxCounters `json:"approx,omitempty"`
	Queries       int64           `json:"queries"`
	Ingests       int64           `json:"ingests"`
	Batches       int64           `json:"batches"`
	MeanBatchSize float64         `json:"mean_batch_size"`
	// QueueWaitUS sums, over every request flushed, the time from submit to
	// the start of its flush; FlushUS sums the flushes' own durations. Both
	// are cumulative microseconds on the dispatcher's clock: divide the
	// first by queries+ingests and the second by batches for means.
	QueueWaitUS   int64   `json:"queue_wait_us"`
	FlushUS       int64   `json:"flush_us"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// Server is the running query service. Create with New, expose with
// Handler / Serve / ListenAndServe, stop with Close.
type Server struct {
	backend Backend
	cfg     Config
	// The backend's optional extensions, resolved once by New; each is nil
	// when the backend does not implement it.
	approx      ApproxQueryer
	pruneStats  PruneStatser
	approxStats ApproxStatser
	slicer      SliceInfoer

	reqs chan *request
	quit chan struct{}
	wg   sync.WaitGroup

	closeOnce sync.Once
	start     time.Time

	queries int64
	ingests int64
	batches int64
	batched int64
	waitNS  int64
	flushNS int64

	// Flush-local grouping scratch, touched only by the dispatcher
	// goroutine: the same-k request groups and their user-id vectors are
	// rebuilt into these slices every flush, so steady-state flushes reuse
	// one allocation's capacity instead of growing fresh slices per batch
	// (the backend's kernel scratch is pooled the same way one layer down).
	grpReqs  []*request
	grpUsers []int

	mu     sync.Mutex
	closed bool
	http   *http.Server
}

type request struct {
	// Exactly one of query / ingest / bquery is set.
	query  *queryWire
	ingest []features.UserPosts // one client's ingest batch from /v1/ingest
	bquery *InternalQuery       // one router-side shard batch from /internal/query
	done   chan result          // buffered(1): flush never blocks on it
	cancel <-chan struct{}      // closed once the client has gone; nil never cancels
	enq    time.Time            // when submit offered it to the dispatcher
}

type result struct {
	candidates []core.Candidate
	user       int
	users      []int              // new ids of an ingest request, aligned with its batch
	batch      [][]core.Candidate // per-user answers of a bquery, aligned with it
	err        error
}

// New builds a Server over the backend and starts its dispatcher.
func New(b Backend, cfg Config) *Server {
	s := &Server{
		backend: b,
		cfg:     cfg.withDefaults(),
		reqs:    make(chan *request),
		quit:    make(chan struct{}),
		start:   time.Now(),
	}
	s.approx, _ = b.(ApproxQueryer)
	s.pruneStats, _ = b.(PruneStatser)
	s.approxStats, _ = b.(ApproxStatser)
	s.slicer, _ = b.(SliceInfoer)
	s.wg.Add(1)
	go s.dispatch()
	return s
}

// dispatch is the single consumer of the request channel: it blocks for
// one request, takes the senders already parked on the channel (up to
// MaxBatch) and flushes at once. Whatever arrives while the flush runs
// parks on the channel and forms the next batch.
func (s *Server) dispatch() {
	defer s.wg.Done()
	batch := make([]*request, 0, s.cfg.MaxBatch)
	for {
		select {
		case r := <-s.reqs:
			batch = append(batch[:0], r)
		case <-s.quit:
			return
		}
	parked:
		for len(batch) < s.cfg.MaxBatch {
			select {
			case r := <-s.reqs:
				batch = append(batch, r)
			default:
				break parked
			}
		}
		start := time.Now()
		var waited time.Duration
		for _, r := range batch {
			waited += start.Sub(r.enq)
		}
		atomic.AddInt64(&s.waitNS, int64(waited))
		s.flush(batch)
		atomic.AddInt64(&s.flushNS, int64(time.Since(start)))
	}
}

// flush applies one batch: all ingests first (one backend call, in arrival
// order), then the queries. Requests whose client has already gone are
// dropped unscored and unapplied — nobody reads their answer.
func (s *Server) flush(batch []*request) {
	atomic.AddInt64(&s.batches, 1)
	atomic.AddInt64(&s.batched, int64(len(batch)))

	var ingests, queries, bqueries []*request
	var users []features.UserPosts
	for _, r := range batch {
		select {
		case <-r.cancel:
			continue
		default:
		}
		switch {
		case r.ingest != nil:
			ingests = append(ingests, r)
			users = append(users, r.ingest...)
		case r.bquery != nil:
			bqueries = append(bqueries, r)
		default:
			queries = append(queries, r)
		}
	}
	// Each counter is bumped before the replies it describes, so a client
	// holding an answer always finds it counted in /v1/stats.
	if len(ingests) > 0 {
		atomic.AddInt64(&s.ingests, int64(len(ingests)))
		ids, err := s.backend.Ingest(users)
		if err == nil {
			at := 0
			for _, r := range ingests {
				mine := ids[at : at+len(r.ingest)]
				r.done <- result{user: firstID(mine), users: mine}
				at += len(r.ingest)
			}
		} else {
			// The combined batch was rejected (stores validate before any
			// mutation). Re-apply each request on its own so one client's
			// bad payload cannot fail its batch peers, and each waiter gets
			// an error about its own request.
			for _, r := range ingests {
				ids, err := s.backend.Ingest(r.ingest)
				if err != nil {
					r.done <- result{err: err}
				} else {
					r.done <- result{user: firstID(ids), users: ids}
				}
			}
		}
	}
	// Internal shard batches: each already arrives grouped (the router
	// builds one per shard call), so each is one ready-made kernel group —
	// a single queryGroup call, no regrouping. An error fails the whole
	// call; the router's retry/hedge layer owns recovery.
	for _, r := range bqueries {
		q := r.bquery
		cands, err := s.queryGroup(q.Users, s.effectiveK(q.K), q.Approx)
		if err == nil {
			atomic.AddInt64(&s.queries, int64(len(q.Users)))
		}
		r.done <- result{batch: cands, err: err}
	}
	atomic.AddInt64(&s.queries, int64(len(queries)))
	// Batched query path: peel the flush's queries into same-(k, approx)
	// groups (in first-arrival order) and answer each group with one
	// Backend.QueryBatch (or QueryBatchApprox) call, so the backend's
	// multi-query kernel scores the whole group per pass over the
	// auxiliary data. MaxBatch is thus the kernel's batch width. The
	// group/user scratch lives on the Server and is reused across flushes.
	for qs := queries; len(qs) > 0; {
		k := s.effectiveK(qs[0].query.K)
		approx := qs[0].query.Approx
		grp, users := s.grpReqs[:0], s.grpUsers[:0]
		rest := qs[:0]
		for _, r := range qs {
			if s.effectiveK(r.query.K) == k && r.query.Approx == approx {
				grp = append(grp, r)
				users = append(users, r.query.User)
			} else {
				rest = append(rest, r)
			}
		}
		cands, err := s.queryGroup(users, k, approx)
		if err == nil && len(cands) == len(grp) {
			for i, r := range grp {
				r.done <- result{candidates: cands[i], user: users[i]}
			}
		} else {
			// The combined group was rejected (backends validate the whole
			// batch before scoring). Re-run each query on its own so one
			// client's bad request cannot fail its batch peers, and each
			// waiter gets an error about its own query.
			s.queryFallback(grp)
		}
		s.grpReqs, s.grpUsers = grp[:0], users[:0]
		qs = rest
	}
}

// effectiveK resolves a request's candidate-set size against DefaultK.
func (s *Server) effectiveK(k int) int {
	if k > 0 {
		return k
	}
	return s.cfg.DefaultK
}

// queryGroup answers one same-(k, approx) group: approximate groups go
// through the backend's ApproxQueryer when it has one, and degrade to the
// exact batch path otherwise — the knob accelerates, never errors.
func (s *Server) queryGroup(users []int, k int, approx bool) ([][]core.Candidate, error) {
	if approx && s.approx != nil {
		return s.approx.QueryBatchApprox(users, k)
	}
	return s.backend.QueryBatch(users, k)
}

// queryOne answers a single query on the fallback path, honoring its
// approx flag the same way queryGroup does.
func (s *Server) queryOne(r *request) ([]core.Candidate, error) {
	if r.query.Approx && s.approx != nil {
		return s.approx.QueryUserApprox(r.query.User, s.effectiveK(r.query.K))
	}
	return s.backend.QueryUser(r.query.User, s.effectiveK(r.query.K))
}

// queryFallback answers a failed batch group one query at a time over the
// Config.Workers pool, giving every waiter its own per-request verdict.
func (s *Server) queryFallback(queries []*request) {
	workers := min(s.cfg.Workers, len(queries))
	var wg sync.WaitGroup
	jobs := make(chan *request)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range jobs {
				cands, err := s.queryOne(r)
				r.done <- result{candidates: cands, user: r.query.User, err: err}
			}
		}()
	}
	for _, r := range queries {
		jobs <- r
	}
	close(jobs)
	wg.Wait()
}

// firstID returns the first id of an ingest reply, or -1 for an empty
// batch (a degenerate but accepted request).
func firstID(ids []int) int {
	if len(ids) == 0 {
		return -1
	}
	return ids[0]
}

// submit enqueues a request and waits for its result or cancellation.
func (s *Server) submit(r *request, cancel <-chan struct{}) (result, error) {
	r.cancel, r.enq = cancel, time.Now()
	select {
	case s.reqs <- r:
	case <-s.quit:
		return result{}, ErrClosed
	case <-cancel:
		return result{}, errors.New("serve: request canceled")
	}
	select {
	case res := <-r.done:
		return res, nil
	case <-cancel:
		return result{}, errors.New("serve: request canceled")
	}
}

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	anon, aux := s.backend.Sizes()
	batches := atomic.LoadInt64(&s.batches)
	mean := 0.0
	if batches > 0 {
		mean = float64(atomic.LoadInt64(&s.batched)) / float64(batches)
	}
	var prune *PruneCounters
	if s.pruneStats != nil {
		if c, enabled := s.pruneStats.PruneCounters(); enabled {
			prune = &c
		}
	}
	var approx *ApproxCounters
	if s.approxStats != nil {
		if c, enabled := s.approxStats.ApproxCounters(); enabled {
			approx = &c
		}
	}
	return Stats{
		AnonUsers:     anon,
		AuxUsers:      aux,
		Shards:        s.backend.ShardSizes(),
		Prune:         prune,
		Approx:        approx,
		Queries:       atomic.LoadInt64(&s.queries),
		Ingests:       atomic.LoadInt64(&s.ingests),
		Batches:       batches,
		MeanBatchSize: mean,
		QueueWaitUS:   atomic.LoadInt64(&s.waitNS) / 1e3,
		FlushUS:       atomic.LoadInt64(&s.flushNS) / 1e3,
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
}

// Close stops the dispatcher once the running flush (if any) has answered
// its waiters, then shuts the HTTP side down gracefully if a listener was
// started — http.Server.Shutdown, so handler goroutines finish writing the
// responses that flush just produced before connections close. The whole
// shutdown is bounded by Config.DrainTimeout: past the deadline Close
// returns ErrDrainTimeout and force-closes whatever is left (a stuck flush
// keeps running in the background and still answers its waiters). Requests
// still parked on the channel, or arriving after Close, get ErrClosed.
// Safe to call more than once.
func (s *Server) Close() error {
	deadline := time.Now().Add(s.cfg.DrainTimeout)
	s.closeOnce.Do(func() {
		close(s.quit)
	})
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	var drainErr error
	select {
	case <-drained:
	case <-timer.C:
		drainErr = ErrDrainTimeout
	}
	s.mu.Lock()
	s.closed = true
	srv := s.http
	s.http = nil
	s.mu.Unlock()
	if srv != nil {
		// Graceful within what remains of the drain budget; force-close
		// past it so a hung client cannot pin shutdown open.
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			_ = srv.Close()
			if drainErr == nil {
				drainErr = ErrDrainTimeout
			}
		}
	}
	return drainErr
}

// wire formats

type queryWire struct {
	User int `json:"user"`
	K    int `json:"k,omitempty"`
	// Approx opts this query into the approximate retrieval tier (see
	// ApproxQueryer); ignored — answered exactly — when the backend does
	// not implement the tier.
	Approx bool `json:"approx,omitempty"`
}

type candidateWire struct {
	User  int     `json:"user"`
	Score float64 `json:"score"`
}

type queryReplyWire struct {
	User       int             `json:"user"`
	Candidates []candidateWire `json:"candidates"`
}

type ingestPostWire struct {
	// Thread is the existing thread replied to; omitted or null means the
	// post starts a new thread.
	Thread *int   `json:"thread"`
	Text   string `json:"text"`
}

type ingestWire struct {
	Name  string           `json:"name"`
	Posts []ingestPostWire `json:"posts"`
}

type ingestReplyWire struct {
	User int `json:"user"`
}

type ingestBatchReplyWire struct {
	Users []int `json:"users"`
}

type errorWire struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP API:
//
//	POST /v1/query   {"user": 17, "k": 10}              -> {"user": 17, "candidates": [{"user": 3, "score": 1.87}, ...]}
//	POST /v1/ingest  {"name": "...", "posts": [...]}    -> {"user": 42}
//	POST /v1/ingest  [{"name": ..., "posts": ...}, ...] -> {"users": [42, 43, ...]}
//	POST /v1/snapshot                                   -> SnapshotInfo (501 when Config.Snapshot is nil)
//	GET  /v1/stats                                      -> Stats (aggregate + per-shard counts)
//	GET  /healthz                                       -> ok
//	GET  /internal/shard                                -> ShardInfo (shard identity; see internal.go)
//	POST /internal/query                                -> InternalQueryReply (router scatter-gather RPC)
//
// A batched ingest body applies atomically as one backend call — one
// dataset append, one graph splice, one similarity sync — instead of N
// single-user calls, and its users get dense consecutive ids.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	mux.HandleFunc("POST /v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /internal/shard", s.handleInternalShard)
	mux.HandleFunc("POST /internal/query", s.handleInternalQuery)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// MaxBodyBytes caps every request body the service — and the router in
// front of it — decodes; larger bodies are answered 413 before anything is
// buffered past the cap.
const MaxBodyBytes = 8 << 20

// DecodeBody decodes r's size-capped JSON body into v. On failure it
// answers the client itself (413 past MaxBodyBytes, 400 otherwise, naming
// what the body was) and returns false. Exported for the router, whose
// public endpoints take the same bodies under the same cap.
func DecodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, code, errorWire{Error: "invalid " + what + " body: " + err.Error()})
	return false
}

// do runs one request through the dispatcher on behalf of an HTTP client.
// On failure it answers the client itself (503 when the server is closed
// or the client gone, 400 when the backend rejected the request) and
// returns false.
func (s *Server) do(w http.ResponseWriter, r *http.Request, req *request) (result, bool) {
	req.done = make(chan result, 1)
	res, err := s.submit(req, r.Context().Done())
	code := http.StatusServiceUnavailable
	if err == nil {
		code, err = http.StatusBadRequest, res.err
	}
	if err != nil {
		writeJSON(w, code, errorWire{Error: err.Error()})
	}
	return res, err == nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var q queryWire
	if !DecodeBody(w, r, "query", &q) {
		return
	}
	res, ok := s.do(w, r, &request{query: &q})
	if !ok {
		return
	}
	reply := queryReplyWire{User: res.user, Candidates: make([]candidateWire, len(res.candidates))}
	for i, c := range res.candidates {
		reply.Candidates[i] = candidateWire{User: c.User, Score: c.Score}
	}
	writeJSON(w, http.StatusOK, reply)
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var raw json.RawMessage
	if !DecodeBody(w, r, "ingest", &raw) {
		return
	}
	// A JSON array is a batched ingest; a single object remains accepted
	// for compatibility and keeps the single-user reply shape.
	trimmed := bytes.TrimLeft(raw, " \t\r\n")
	batched := len(trimmed) > 0 && trimmed[0] == '['

	var ins []ingestWire
	if batched {
		if err := json.Unmarshal(raw, &ins); err != nil {
			writeJSON(w, http.StatusBadRequest, errorWire{Error: "invalid ingest batch: " + err.Error()})
			return
		}
	} else {
		var in ingestWire
		if err := json.Unmarshal(raw, &in); err != nil {
			writeJSON(w, http.StatusBadRequest, errorWire{Error: "invalid ingest body: " + err.Error()})
			return
		}
		ins = []ingestWire{in}
	}
	if len(ins) == 0 {
		writeJSON(w, http.StatusOK, ingestBatchReplyWire{Users: []int{}})
		return
	}

	batch := make([]features.UserPosts, len(ins))
	for bi, in := range ins {
		up := features.UserPosts{User: corpusUser(in.Name), Posts: make([]features.IncomingPost, len(in.Posts))}
		for i, p := range in.Posts {
			t := features.NewThread
			if p.Thread != nil {
				t = *p.Thread
			}
			up.Posts[i] = features.IncomingPost{Thread: t, Text: p.Text}
		}
		batch[bi] = up
	}
	res, ok := s.do(w, r, &request{ingest: batch})
	if !ok {
		return
	}
	if batched {
		writeJSON(w, http.StatusOK, ingestBatchReplyWire{Users: res.users})
		return
	}
	writeJSON(w, http.StatusOK, ingestReplyWire{User: res.user})
}

// handleSnapshot runs the configured snapshot callback. The callback is
// invoked on the request goroutine, not through the dispatcher: world
// locking inside the callback already serializes it against ingestion,
// and routing a potentially long write through the request channel
// would stall every query behind it.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Snapshot == nil {
		writeJSON(w, http.StatusNotImplemented, errorWire{Error: "snapshotting not configured (start the server with a snapshot path)"})
		return
	}
	info, err := s.cfg.Snapshot()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorWire{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// Serve accepts connections on l until Close. Calling Serve on an
// already-closed server closes l and returns ErrClosed, so a Close racing
// ahead of a `go srv.Serve(l)` cannot leak the listener.
func (s *Server) Serve(l net.Listener) error {
	srv := &http.Server{Handler: s.Handler()}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return ErrClosed
	}
	s.http = srv
	s.mu.Unlock()
	err := srv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// ListenAndServe binds addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}
