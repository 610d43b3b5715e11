// Package router is the distributed scatter-gather tier of the De-Health
// serving system: a thin HTTP router that fans every query batch out to
// N shard servers — dehealthd processes each booted from a per-shard
// snapshot slice (dehealth.SnapshotSlices) — and merges their replies
// under the global selection order (score descending, global id
// ascending). The merge goes through shard.MergeTopK, the same function
// the in-process fan-out uses, and every candidate id on the wire is
// global (shard servers rebase before replying), so the routed answer is
// bit-identical to the single-process sharded world at every shard count.
//
// On top of the scatter-gather the router owns the robustness layer the
// single process never needed:
//
//   - R replicas per shard behind health-checked round-robin: a
//     background prober admits replicas that answer GET /internal/shard
//     with the expected identity, and failures observed on the query path
//     mark replicas unhealthy passively.
//   - Bounded retry with doubling backoff: a failed shard call moves to
//     the next replica, up to Config.Retries extra attempts.
//   - Hedged requests: when a shard call is still unanswered after
//     Config.HedgeDelay, a second attempt races it on another replica and
//     the first reply wins — returning cancels the shared per-shard
//     context, which aborts the loser in flight.
//   - Per-shard deadlines with partial-result degradation: a shard that
//     cannot answer within Config.ShardTimeout is dropped from the merge
//     and reported in the response (partial: true plus the missing shard
//     list) instead of failing the query; only when every shard fails
//     does the query error with ErrAllShardsDown.
//
// The router holds no world state. It is safe for concurrent use and
// scales horizontally: any number of router processes can front the same
// shard fleet.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dehealth/internal/serve"
	"dehealth/internal/shard"
)

// ErrNoShards marks a Config with an empty or invalid topology.
var ErrNoShards = errors.New("router: no shards configured")

// ErrAllShardsDown is the one way a routed query fails outright: not a
// single shard produced an answer within its attempt budget and deadline.
// Anything short of that degrades to a partial result instead.
var ErrAllShardsDown = errors.New("router: no shard answered")

// rejection is a shard's 4xx verdict on the request itself — an
// out-of-range user id, a malformed batch. Every replica would answer the
// same, so it is not a replica failure: callShard returns it at once,
// without marking, retrying or hedging, and the handler passes it to the
// client as a 400 carrying the shard's message.
type rejection struct {
	status int
	msg    string
}

func (e *rejection) Error() string {
	return fmt.Sprintf("shard rejected the request (%d): %s", e.status, e.msg)
}

// rejected reports whether err is, or wraps, a shard's rejection.
func rejected(err error) bool {
	var rej *rejection
	return errors.As(err, &rej)
}

// maxReplyBytes caps how much of one shard reply the router reads: room
// for the candidate lists of the largest batch a MaxBodyBytes request body
// can name at everyday k, and a bound on what a misbehaving replica can
// make the router buffer. A longer reply is cut off here, fails to decode
// and counts as a replica failure, like a truncated one.
const maxReplyBytes = 8 * serve.MaxBodyBytes

// Config tunes the router.
type Config struct {
	// Shards is the topology: Shards[i] lists the base URLs (scheme://host:port)
	// of shard i's replicas. Every shard needs at least one replica.
	Shards [][]string
	// K is the candidate-set size of queries that omit k (default 10).
	K int
	// ShardTimeout bounds one shard's whole scatter call — all retries and
	// hedges included (default 2s). A shard missing the deadline degrades
	// the response to partial instead of failing it.
	ShardTimeout time.Duration
	// HedgeDelay launches a second racing attempt on another replica when
	// a shard call is still unanswered after this long. Zero disables
	// hedging.
	HedgeDelay time.Duration
	// Retries is the number of extra attempts a failed shard call may
	// launch beyond the first (default 2). Hedges draw from the same
	// attempt budget.
	Retries int
	// RetryBackoff is the delay before the first retry, doubling per retry
	// (default 10ms).
	RetryBackoff time.Duration
	// HealthInterval is the background health-probe period (default 1s);
	// negative disables the prober, leaving only passive query-path
	// marking.
	HealthInterval time.Duration
	// Client is the HTTP client of all shard traffic (default
	// http.DefaultClient).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = 10
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 2 * time.Second
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 10 * time.Millisecond
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = time.Second
	}
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	return c
}

// replica is one shard server behind the router, with its health bit. The
// bit starts true (optimistic: a replica proves itself by failing, so a
// cold router serves immediately) and is flipped by query-path failures
// and the prober.
type replica struct {
	base    string
	healthy atomic.Bool
}

// shardClient fans one shard's calls across its replicas round-robin.
type shardClient struct {
	id       int
	replicas []*replica
	next     atomic.Uint64
}

// pick returns the next replica in rotation, skipping unhealthy ones; when
// every replica is marked unhealthy it returns the rotation's candidate
// anyway — a last resort beats refusing to try, and a success on the query
// path is how a wrongly-marked replica re-proves itself fastest.
func (sc *shardClient) pick() *replica {
	n := uint64(len(sc.replicas))
	start := sc.next.Add(1) - 1
	for i := uint64(0); i < n; i++ {
		if rep := sc.replicas[(start+i)%n]; rep.healthy.Load() {
			return rep
		}
	}
	return sc.replicas[start%n]
}

// Router is the scatter-gather front of a shard fleet. Create with New,
// expose with Handler, stop with Close.
type Router struct {
	cfg    Config
	shards []*shardClient
	client *http.Client

	quit chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	queries   atomic.Int64
	retries   atomic.Int64
	hedges    atomic.Int64
	hedgeWins atomic.Int64
	partials  atomic.Int64
}

// New validates the topology and starts the router (and its health
// prober, unless disabled).
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, ErrNoShards
	}
	r := &Router{cfg: cfg, client: cfg.Client, quit: make(chan struct{})}
	for i, urls := range cfg.Shards {
		if len(urls) == 0 {
			return nil, fmt.Errorf("%w: shard %d has no replicas", ErrNoShards, i)
		}
		sc := &shardClient{id: i}
		for _, u := range urls {
			rep := &replica{base: strings.TrimRight(u, "/")}
			rep.healthy.Store(true)
			sc.replicas = append(sc.replicas, rep)
		}
		r.shards = append(r.shards, sc)
	}
	if cfg.HealthInterval > 0 {
		r.wg.Add(1)
		go r.probeLoop()
	}
	return r, nil
}

// Close stops the health prober. In-flight queries finish on their own
// deadlines.
func (r *Router) Close() {
	r.once.Do(func() { close(r.quit) })
	r.wg.Wait()
}

// BatchResult is one routed batch's answer: the merged global top-k of
// each user, aligned with the request, plus one shared degradation report
// (the scatter is per shard, not per user, so a missing shard is missing
// for the whole batch). Partial is true when at least one shard missed its
// deadline or exhausted its attempts; Missing lists those shards in
// ascending order. A partial answer is exact over the shards that
// answered — candidates from missing shards are absent, never replaced.
type BatchResult struct {
	Results [][]shard.Candidate
	Partial bool
	Missing []int
}

// QueryBatch scatter-gathers a whole query batch — a lone query is a
// batch of one: one /internal/query call per shard carrying every user
// (each shard server answers it as one pre-grouped batch), merged per user
// under the global selection order. k <= 0 uses Config.K.
func (r *Router) QueryBatch(ctx context.Context, users []int, k int) (BatchResult, error) {
	if k <= 0 {
		k = r.cfg.K
	}
	r.queries.Add(int64(len(users)))
	q := &serve.InternalQuery{Users: users, K: k}

	type shardOut struct {
		id  int
		res [][]shard.Candidate
		err error
	}
	ch := make(chan shardOut, len(r.shards))
	for _, sc := range r.shards {
		go func(sc *shardClient) {
			res, err := r.callShard(ctx, sc, q)
			ch <- shardOut{id: sc.id, res: res, err: err}
		}(sc)
	}

	parts := make([][][]shard.Candidate, 0, len(r.shards)) // per answering shard, per user
	var missing []int
	var lastErr error
	for range r.shards {
		out := <-ch
		if rejected(out.err) {
			// The request is bad, not the shard: no partial answer, no
			// point waiting for the other shards to say the same.
			return BatchResult{}, out.err
		}
		if out.err != nil {
			missing = append(missing, out.id)
			lastErr = out.err
			continue
		}
		parts = append(parts, out.res)
	}
	if len(parts) == 0 {
		return BatchResult{}, fmt.Errorf("%w: %v", ErrAllShardsDown, lastErr)
	}

	br := BatchResult{Results: make([][]shard.Candidate, len(users))}
	perUser := make([][]shard.Candidate, len(parts))
	for i := range users {
		for j, p := range parts {
			perUser[j] = p[i]
		}
		br.Results[i] = shard.MergeTopK(perUser, k)
	}
	if len(missing) > 0 {
		sort.Ints(missing)
		br.Partial, br.Missing = true, missing
		r.partials.Add(1)
	}
	return br, nil
}

// callShard answers one shard's slice of the scatter under the shard
// deadline: a first attempt on the rotation's replica, retries with
// doubling backoff on failure, and (when configured) one or more hedged
// attempts racing slow replicas — all sharing one attempt budget of
// 1+Retries launches and one per-shard context, so the first reply to
// land cancels every other attempt still in flight when callShard
// returns. A shard's rejection of the request is such a reply: it is
// returned at once, and the replica that sent it stays in rotation.
func (r *Router) callShard(ctx context.Context, sc *shardClient, q *serve.InternalQuery) ([][]shard.Candidate, error) {
	sctx, cancel := context.WithTimeout(ctx, r.cfg.ShardTimeout)
	defer cancel() // the winner (or the error return) cancels the losers

	type attemptOut struct {
		res    [][]shard.Candidate
		err    error
		rep    *replica
		hedged bool
	}
	budget := 1 + r.cfg.Retries
	resCh := make(chan attemptOut, budget) // buffered: late losers never block
	launched, inflight := 0, 0
	launch := func(hedged bool) {
		rep := sc.pick()
		launched++
		inflight++
		go func() {
			res, err := r.post(sctx, sc, rep, q)
			resCh <- attemptOut{res: res, err: err, rep: rep, hedged: hedged}
		}()
	}
	launch(false)

	var hedgeC <-chan time.Time
	if r.cfg.HedgeDelay > 0 {
		ht := time.NewTimer(r.cfg.HedgeDelay)
		defer ht.Stop()
		hedgeC = ht.C
	}
	var backoffC <-chan time.Time
	backoff := r.cfg.RetryBackoff
	var lastErr error
	for {
		select {
		case out := <-resCh:
			inflight--
			if out.err == nil {
				if out.hedged {
					r.hedgeWins.Add(1)
				}
				return out.res, nil
			}
			if rejected(out.err) {
				return nil, fmt.Errorf("router: shard %d: %w", sc.id, out.err)
			}
			lastErr = out.err
			if sctx.Err() == nil {
				// A real replica failure, not fallout of our own deadline
				// or a won race: take the replica out of rotation until
				// the prober (or a last-resort success) restores it.
				out.rep.healthy.Store(false)
			}
			if launched < budget && backoffC == nil && sctx.Err() == nil {
				backoffC = time.After(backoff)
				backoff *= 2
			} else if inflight == 0 && backoffC == nil {
				return nil, fmt.Errorf("router: shard %d: %w", sc.id, lastErr)
			}
		case <-backoffC:
			backoffC = nil
			r.retries.Add(1)
			launch(false)
		case <-hedgeC:
			hedgeC = nil
			if launched < budget {
				r.hedges.Add(1)
				launch(true)
			}
		case <-sctx.Done():
			if lastErr == nil {
				lastErr = sctx.Err()
			}
			return nil, fmt.Errorf("router: shard %d: %w", sc.id, lastErr)
		}
	}
}

// post runs one attempt: POST the batch to a replica's /internal/query
// and decode the reply. A 4xx status comes back as a *rejection. Transport
// errors, other non-200 statuses, truncated, over-long or malformed bodies,
// and identity mismatches all come back as plain errors — the caller
// treats every one of those as a retryable replica failure.
func (r *Router) post(ctx context.Context, sc *shardClient, rep *replica, q *serve.InternalQuery) ([][]shard.Candidate, error) {
	body, err := json.Marshal(q)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.base+"/internal/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		msg := strings.TrimSpace(string(raw))
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			var body errorWire
			if json.Unmarshal(raw, &body) == nil && body.Error != "" {
				msg = body.Error
			}
			return nil, &rejection{status: resp.StatusCode, msg: msg}
		}
		return nil, fmt.Errorf("router: replica %s replied %d: %s", rep.base, resp.StatusCode, msg)
	}
	var reply serve.InternalQueryReply
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxReplyBytes)).Decode(&reply); err != nil {
		return nil, fmt.Errorf("router: replica %s reply: %w", rep.base, err)
	}
	if reply.Shard != sc.id {
		return nil, fmt.Errorf("router: replica %s identifies as shard %d, want %d", rep.base, reply.Shard, sc.id)
	}
	if len(reply.Results) != len(q.Users) {
		return nil, fmt.Errorf("router: replica %s answered %d of %d users", rep.base, len(reply.Results), len(q.Users))
	}
	out := make([][]shard.Candidate, len(reply.Results))
	for i, cs := range reply.Results {
		row := make([]shard.Candidate, len(cs))
		for j, c := range cs {
			row[j] = shard.Candidate{User: c.User, Score: c.Score}
		}
		out[i] = row
	}
	return out, nil
}

// probeLoop is the background health prober: every HealthInterval it asks
// each replica GET /internal/shard and admits into (or evicts from)
// rotation based on the answer. The probe validates the advertised
// identity against the configured topology, so a replica URL pointing at
// the wrong shard — or at a fleet of a different shard count — never
// serves traffic.
func (r *Router) probeLoop() {
	defer r.wg.Done()
	ticker := time.NewTicker(r.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		r.probeAll()
		select {
		case <-ticker.C:
		case <-r.quit:
			return
		}
	}
}

func (r *Router) probeAll() {
	var wg sync.WaitGroup
	for _, sc := range r.shards {
		for _, rep := range sc.replicas {
			wg.Add(1)
			go func(sc *shardClient, rep *replica) {
				defer wg.Done()
				rep.healthy.Store(r.probe(sc, rep))
			}(sc, rep)
		}
	}
	wg.Wait()
}

func (r *Router) probe(sc *shardClient, rep *replica) bool {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ShardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.base+"/internal/shard", nil)
	if err != nil {
		return false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	var info serve.ShardInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return false
	}
	return info.Shard == sc.id && info.Shards == len(r.shards)
}

// ReplicaStatus is one replica's row in Stats.
type ReplicaStatus struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
}

// ShardStatus is one shard's row in Stats.
type ShardStatus struct {
	Shard    int             `json:"shard"`
	Replicas []ReplicaStatus `json:"replicas"`
}

// Stats is the router's /v1/stats payload: the live health of the
// topology plus cumulative counters of the robustness layer. HedgeWins
// counts hedged attempts that beat the primary; Partials counts responses
// degraded by at least one missing shard.
type Stats struct {
	Shards    []ShardStatus `json:"shards"`
	Queries   int64         `json:"queries"`
	Retries   int64         `json:"retries"`
	Hedges    int64         `json:"hedges"`
	HedgeWins int64         `json:"hedge_wins"`
	Partials  int64         `json:"partials"`
}

// Stats snapshots the router counters and replica health.
func (r *Router) Stats() Stats {
	st := Stats{
		Queries:   r.queries.Load(),
		Retries:   r.retries.Load(),
		Hedges:    r.hedges.Load(),
		HedgeWins: r.hedgeWins.Load(),
		Partials:  r.partials.Load(),
	}
	for _, sc := range r.shards {
		ss := ShardStatus{Shard: sc.id}
		for _, rep := range sc.replicas {
			ss.Replicas = append(ss.Replicas, ReplicaStatus{URL: rep.base, Healthy: rep.healthy.Load()})
		}
		st.Shards = append(st.Shards, ss)
	}
	return st
}

// Healthy reports whether every shard currently has at least one healthy
// replica — the condition under which the router can promise non-partial
// answers.
func (r *Router) Healthy() bool {
	for _, sc := range r.shards {
		ok := false
		for _, rep := range sc.replicas {
			if rep.healthy.Load() {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}
