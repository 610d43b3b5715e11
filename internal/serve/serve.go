// Package serve is the online query layer of the De-Health reproduction:
// an HTTP service that owns a prepared (anonymized, auxiliary) world,
// answers de-anonymization queries and ingests newly observed
// anonymous accounts as they appear — the continuous-tracking threat model
// behind the paper, rather than the offline batch experiments.
//
// Concurrency is one reader/writer lock owned by the Server, taken on the
// request goroutine: a query handler decodes its body, takes the lock
// shared, calls the backend and writes the reply; an ingest handler does
// the same with the lock held exclusively. Concurrent queries therefore
// overlap on every core, ingestion never overlaps a query (or a size
// read), and there is no queue, dispatcher goroutine or cross-request
// batching between a connection and the backend: a lone query is answered
// with no wait, and what a loaded server's requests wait for is the lock —
// that is, for an ingest to finish. Every query is one call of the
// backend's one query method, Backend.QueryBatch: /v1/query a one-user
// batch, /internal/query the group the router already built, which drives
// the backend's multi-query blocked scoring kernel. A sharded backend
// changes none of this: per-shard state is immutable after partitioning,
// and every batch, one user or a group, spreads its shard scans inside the
// backend over the scan tokens of idle cores, scanning inline when none
// is idle; /v1/stats adds the per-shard breakdown.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dehealth/internal/core"
	"dehealth/internal/corpus"
	"dehealth/internal/features"
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

// Backend is the prepared world a Server queries and grows. Implementations
// need no locking against the Server, which holds its reader/writer lock
// around every call: Ingest is exclusive with every other call; the query
// and size methods (and the optional extensions') may run concurrently with
// each other and must be safe for that. When the backend shards its
// auxiliary side, queries fan out inside it.
type Backend interface {
	// Ingest appends newly observed anonymous users and returns their new
	// user indices, aligned with the batch.
	Ingest(batch []features.UserPosts) ([]int, error)
	// QueryBatch returns the top-k auxiliary candidates of each anonymized
	// user, with results aligned by index and each one bit-identical
	// whatever the batch around it. /v1/query hands it a one-user batch;
	// /internal/query hands it the router's whole group at once so the
	// backend can score all of it per pass over its auxiliary data (the
	// multi-query blocked kernel). An error fails the whole batch.
	QueryBatch(users []int, k int) ([][]core.Candidate, error)
	// Sizes reports the current aggregate world sizes (for /v1/stats).
	Sizes() (anonUsers, auxUsers int)
	// ShardSizes reports the per-shard breakdown (a single element for
	// unsharded worlds); the aggregate of the entries matches Sizes.
	ShardSizes() []ShardCount
}

// Config tunes the service.
type Config struct {
	// Deprecated: MaxBatch is ignored. Every request is its own backend
	// call on its own goroutine; nothing batches across requests.
	MaxBatch int
	// Deprecated: FlushInterval is ignored, as MaxBatch is.
	FlushInterval time.Duration
	// DefaultK is the candidate-set size of queries that omit k (default 10).
	DefaultK int
	// DrainTimeout bounds how long Close waits for the backend calls in
	// flight to finish (default 5s). Within the deadline each of them
	// answers its client; past it Close returns ErrDrainTimeout while they
	// finish in the background. Requests still waiting for the lock, and
	// late arrivals, get ErrClosed.
	DrainTimeout time.Duration
	// Snapshot, when set, enables the POST /v1/snapshot admin endpoint:
	// the callback persists the backend's world and reports where and how
	// big. It runs outside the server lock, so it must be safe against
	// concurrent queries and ingestion (the dehealth backend takes the
	// world's read lock, so a snapshot waits out any in-flight ingest batch
	// and vice versa). When nil, the endpoint answers 501 Not Implemented.
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

// ErrDrainTimeout is returned by Close when a backend call in flight did
// not finish within Config.DrainTimeout. The call keeps running in the
// background so its client still gets an answer; the error only tells the
// closer that shutdown did not observe a quiesced backend.
var ErrDrainTimeout = errors.New("serve: drain deadline exceeded")

// Stats is the /v1/stats payload: aggregate sizes and counters plus the
// per-shard breakdown of the world.
type Stats struct {
	AnonUsers int          `json:"anon_users"`
	AuxUsers  int          `json:"aux_users"`
	Shards    []ShardCount `json:"shards"`
	// Queries counts the users queried and Ingests the ingest requests
	// applied; Batches counts the backend calls made for them and
	// MeanBatchSize the users answered or ingested per call (1 on
	// /v1/query, the router's group width on /internal/query).
	Queries       int64   `json:"queries"`
	Ingests       int64   `json:"ingests"`
	Batches       int64   `json:"batches"`
	MeanBatchSize float64 `json:"mean_batch_size"`
	// QueueWaitUS sums the time requests waited for the server lock and
	// BackendUS the time they then spent inside the backend, concurrent
	// calls each counted in full. Both are cumulative microseconds: divide
	// either by batches for the mean per call.
	QueueWaitUS   int64   `json:"queue_wait_us"`
	BackendUS     int64   `json:"backend_us"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// Server is the running query service. Create with New, expose with
// Handler / Serve / ListenAndServe, stop with Close.
type Server struct {
	backend Backend
	cfg     Config
	// slicer is the backend's optional slice identity, resolved once by
	// New; nil when the backend does not implement it.
	slicer SliceInfoer

	// backendMu is the one exclusion between the server and its backend:
	// queries and size reads hold it shared, Ingest exclusively, each on
	// its request's own goroutine; Close takes it to wait out the calls in
	// flight.
	backendMu sync.RWMutex
	closed    atomic.Bool
	start     time.Time

	queries   atomic.Int64
	ingests   atomic.Int64
	batches   atomic.Int64
	batched   atomic.Int64
	waitNS    atomic.Int64
	backendNS atomic.Int64

	mu   sync.Mutex // guards http
	http *http.Server
}

// New builds a Server over the backend.
func New(b Backend, cfg Config) *Server {
	s := &Server{backend: b, cfg: cfg.withDefaults(), start: time.Now()}
	s.slicer, _ = b.(SliceInfoer)
	return s
}

// effectiveK resolves a request's candidate-set size against DefaultK.
func (s *Server) effectiveK(k int) int {
	if k > 0 {
		return k
	}
	return s.cfg.DefaultK
}

// locked makes one backend call, answering or ingesting `users` users, on
// the calling goroutine under the server lock — exclusive for an ingest,
// shared for a query — and returns its error with the status that reports
// it: 400, the backend rejected the request. A request that finds the
// server closed, or whose client has gone by the time it holds the lock,
// never reaches the backend and is refused 503. The counters are bumped
// before the call, so a client holding an answer always finds it counted
// in /v1/stats.
func (s *Server) locked(ctx context.Context, ingest bool, users int, call func() error) (int, error) {
	if s.closed.Load() {
		// Without queueing behind Close's pending write lock.
		return http.StatusServiceUnavailable, ErrClosed
	}
	arrived := time.Now()
	if ingest {
		s.backendMu.Lock()
		defer s.backendMu.Unlock()
	} else {
		s.backendMu.RLock()
		defer s.backendMu.RUnlock()
	}
	start := time.Now()
	s.waitNS.Add(int64(start.Sub(arrived)))
	if s.closed.Load() {
		return http.StatusServiceUnavailable, ErrClosed
	}
	if ctx.Err() != nil {
		return http.StatusServiceUnavailable, errors.New("serve: request canceled")
	}
	if ingest {
		s.ingests.Add(1)
	} else {
		s.queries.Add(int64(users))
	}
	s.batches.Add(1)
	s.batched.Add(int64(users))
	err := call()
	s.backendNS.Add(int64(time.Since(start)))
	return http.StatusBadRequest, err
}

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	s.backendMu.RLock()
	anon, aux := s.backend.Sizes()
	shards := s.backend.ShardSizes()
	s.backendMu.RUnlock()
	batches := s.batches.Load()
	mean := 0.0
	if batches > 0 {
		mean = float64(s.batched.Load()) / float64(batches)
	}
	return Stats{
		AnonUsers:     anon,
		AuxUsers:      aux,
		Shards:        shards,
		Queries:       s.queries.Load(),
		Ingests:       s.ingests.Load(),
		Batches:       batches,
		MeanBatchSize: mean,
		QueueWaitUS:   s.waitNS.Load() / 1e3,
		BackendUS:     s.backendNS.Load() / 1e3,
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
}

// Close marks the server closed, waits for the backend calls in flight —
// each still answers its client — and then shuts the HTTP side down
// gracefully if a listener was started — http.Server.Shutdown, so handler
// goroutines finish writing those answers before connections close. The
// whole shutdown is bounded by Config.DrainTimeout: past the deadline Close
// returns ErrDrainTimeout and force-closes whatever is left (a stuck
// backend call keeps running in the background and still answers its
// client). After a nil return no query or ingest is inside the backend and
// none will enter it: requests still waiting for the lock, or arriving
// after Close, get ErrClosed. Safe to call more than once.
func (s *Server) Close() error {
	deadline := time.Now().Add(s.cfg.DrainTimeout)
	s.closed.Store(true)
	drained := make(chan struct{})
	go func() {
		s.backendMu.Lock() // granted once every call in flight has returned
		defer s.backendMu.Unlock()
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
	// Approx is accepted for compatibility; the answer is exact either way
	// (see compat.go).
	Approx bool `json:"approx,omitempty"`
}

type queryReplyWire struct {
	User       int             `json:"user"`
	Candidates []WireCandidate `json:"candidates"`
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

// do makes one backend call on behalf of an HTTP client (see locked). On
// failure it answers the client itself and returns false.
func (s *Server) do(w http.ResponseWriter, r *http.Request, ingest bool, users int, call func() error) bool {
	code, err := s.locked(r.Context(), ingest, users, call)
	if err != nil {
		writeJSON(w, code, errorWire{Error: err.Error()})
	}
	return err == nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var q queryWire
	if !DecodeBody(w, r, "query", &q) {
		return
	}
	var cands [][]core.Candidate
	if !s.do(w, r, false, 1, func() (err error) {
		cands, err = s.query([]int{q.User}, s.effectiveK(q.K), q.Approx)
		return err
	}) {
		return
	}
	writeJSON(w, http.StatusOK, queryReplyWire{User: q.User, Candidates: wireCandidates(cands[0], 0)})
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
	var ids []int
	if !s.do(w, r, true, len(batch), func() (err error) {
		ids, err = s.backend.Ingest(batch)
		return err
	}) {
		return
	}
	if batched {
		writeJSON(w, http.StatusOK, ingestBatchReplyWire{Users: ids})
		return
	}
	writeJSON(w, http.StatusOK, ingestReplyWire{User: ids[0]})
}

// handleSnapshot runs the configured snapshot callback outside the server
// lock: world locking inside the callback already serializes it against
// ingestion, and a potentially long write holding the server lock shared
// would stall every query behind the first ingest that queued for it.
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
	if s.closed.Load() {
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
