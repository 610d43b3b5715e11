// Package features is the shared feature-store layer of the De-Health
// pipeline: stylometric feature matrices extracted once per dataset and
// reused by every downstream consumer (UDA graph construction, Top-K
// structural similarity, threshold filtering and refined-DA classification).
//
// The De-Health attack spends almost all of its time extracting the Table I
// stylometric vector of every post, yet the same (dataset, extractor) pair
// is consumed by many experiment configurations — similarity weights,
// candidate-set sizes K, classifiers, open-world schemes. A Store
// materializes the whole |posts| × M feature matrix once, with a bounded
// worker pool over posts, into a single flat backing array; everything
// above it (the UDA graph, per-user post slices, attribute sets) is a view
// or a cached derivation. Building a Store and fanning an experiment grid
// out over it replaces per-configuration re-extraction with O(1) reuse.
package features

import (
	"fmt"
	"runtime"
	"sync"

	"dehealth/internal/corpus"
	"dehealth/internal/graph"
	"dehealth/internal/stylometry"
)

// Options configures store construction.
type Options struct {
	// Workers bounds the feature-extraction worker pool. <= 0 uses
	// GOMAXPROCS (all CPUs).
	Workers int
}

// workerCount resolves Options.Workers against the job count n: never more
// workers than jobs, never fewer than one. n <= 0 (an empty batch) resolves
// to a single worker explicitly, so degenerate calls cannot spin up a pool
// of idle goroutines.
func (o Options) workerCount(n int) int {
	if n <= 0 {
		return 1
	}
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Store is a fitted extractor plus the dataset's fully materialized feature
// artifacts: the flat post-feature matrix, per-user post-vector slices, the
// derived attribute sets, and (lazily) the UDA graph. Concurrent reads are
// safe. The store can grow — Append / AppendUser vectorize newly observed
// users incrementally, extending the matrix, the per-user views and the UDA
// graph without rebuilding anything — but growth must be serialized against
// reads by the caller (the serving layer ingests under its exclusive
// lock).
type Store struct {
	// Dataset is the forum the features were extracted from. Append extends
	// it in place (users, threads and posts keep dense ids).
	Dataset *corpus.Dataset
	// Extractor is the fitted feature space shared with the sibling store
	// (fit the POS-bigram block on the auxiliary texts, as the adversary
	// would).
	Extractor *stylometry.Extractor

	opt     Options
	dim     int
	rows    [][]float64   // rows[i] = post i's vector (views into the Build-time matrix or append blocks)
	perUser [][][]float64 // perUser[u] = u's post vectors in post order
	attrs   []stylometry.AttrSet

	udaOnce sync.Once
	uda     *graph.UDA

	// threadUsers[t] lists the distinct users who posted under thread t, in
	// first-post order — the incremental counterpart of BuildCorrelation's
	// per-thread participant scan. Built lazily on first Append.
	threadUsers map[int][]int
}

// NewExtractor fits a fresh extractor's POS-bigram block on refTexts
// (conventionally the auxiliary texts — the adversary's data). maxBigrams
// <= 0 uses the stylometry default.
func NewExtractor(refTexts []string, maxBigrams int) *stylometry.Extractor {
	ex := stylometry.New()
	ex.FitBigrams(refTexts, maxBigrams)
	return ex
}

// Build extracts every post of d with ex into a new Store, running the
// extraction over a bounded worker pool. The resulting per-user vectors are
// bit-identical to ex.ExtractAll over d.UserTexts(): extraction is
// deterministic per post, and parallelism only reorders which worker fills
// which row of the flat matrix.
func Build(d *corpus.Dataset, ex *stylometry.Extractor, opt Options) *Store {
	n := len(d.Posts)
	dim := ex.NumFeatures()
	s := &Store{
		Dataset:   d,
		Extractor: ex,
		opt:       opt,
		dim:       dim,
		rows:      make([][]float64, n),
	}
	flat := make([]float64, n*dim) // |posts| × dim, post-major
	parallelFor(n, opt.workerCount(n), func(i int) {
		row := flat[i*dim : (i+1)*dim : (i+1)*dim]
		ex.ExtractInto(row, d.Posts[i].Text)
		s.rows[i] = row
	})

	byUser := d.PostsByUser()
	s.perUser = make([][][]float64, len(d.Users))
	s.attrs = make([]stylometry.AttrSet, len(d.Users))
	parallelFor(len(d.Users), opt.workerCount(len(d.Users)), func(u int) {
		idxs := byUser[u]
		vs := make([][]float64, len(idxs))
		for k, i := range idxs {
			vs[k] = s.rows[i]
		}
		s.perUser[u] = vs
		s.attrs[u] = stylometry.UserAttributes(vs)
	})
	return s
}

// BuildPair fits an extractor on the auxiliary texts and builds the stores
// of both sides of an attack — the standard preparation step of the
// two-phase De-Health pipeline.
func BuildPair(anon, aux *corpus.Dataset, maxBigrams int, opt Options) (anonStore, auxStore *Store) {
	ex := NewExtractor(aux.Texts(), maxBigrams)
	return Build(anon, ex, opt), Build(aux, ex, opt)
}

// parallelFor runs f(i) for i in [0, n) over workers goroutines, in chunks
// to keep scheduling overhead off the hot path. With workers <= 1 it
// degenerates to a plain loop. Degenerate inputs are explicitly safe:
// n <= 0 runs nothing, and workers > n is clamped to n so no goroutine is
// ever spawned without work to claim.
func parallelFor(n, workers int, f func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	const chunk = 32
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				start := next
				next += chunk
				mu.Unlock()
				if start >= n {
					return
				}
				end := start + chunk
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					f(i)
				}
			}
		}()
	}
	wg.Wait()
}

// NumPosts returns the number of rows in the feature matrix.
func (s *Store) NumPosts() int { return len(s.rows) }

// NumUsers returns the number of users the store has vectors for.
func (s *Store) NumUsers() int { return len(s.perUser) }

// Dim returns M, the width of the feature matrix.
func (s *Store) Dim() int { return s.dim }

// PostVectors returns the per-user post vectors in post order (shared
// views; do not modify). The shape matches graph.UDA.PostVectors.
func (s *Store) PostVectors() [][][]float64 { return s.perUser }

// Attrs returns the per-user attribute sets A(u)/WA(u) (shared; do not
// modify).
func (s *Store) Attrs() []stylometry.AttrSet { return s.attrs }

// UDA returns the dataset's User-Data-Attribute graph over the store's
// vectors, building the correlation-graph topology on first call and
// caching it. Safe for concurrent use.
func (s *Store) UDA() *graph.UDA {
	s.udaOnce.Do(func() {
		s.uda = graph.BuildUDAFromVectors(s.Dataset, s.perUser, s.attrs)
	})
	return s.uda
}

// NewThread marks an IncomingPost as starting a fresh thread rather than
// replying to an existing one.
const NewThread = -1

// IncomingPost is one post of a newly observed user: the thread it was
// posted under (an existing thread id, or NewThread to start a new thread)
// and its text.
type IncomingPost struct {
	Thread int
	Text   string
}

// UserPosts is one newly observed user and their posts, the unit of
// incremental ingestion. User.ID is assigned by Append; set
// User.TrueIdentity to -1 unless evaluation ground truth exists.
type UserPosts struct {
	User  corpus.User
	Posts []IncomingPost
}

// AppendUser appends one newly observed user; see Append.
func (s *Store) AppendUser(u corpus.User, posts []IncomingPost) (int, error) {
	ids, err := s.Append([]UserPosts{{User: u, Posts: posts}})
	if err != nil {
		return -1, err
	}
	return ids[0], nil
}

// Append ingests a batch of newly observed users incrementally: their posts
// are appended to the dataset (dense ids preserved), vectorized with the
// store's fitted extractor over the Build-time worker pool, and folded into
// the per-user views and attribute sets. If the UDA graph is already
// materialized it is extended in place — one node per user plus the
// co-discussion edges implied by the new posts — never rebuilt. The result
// is exactly the store Build would produce over the grown dataset (the
// equivalence is covered by the append parity test).
//
// Posts may reference existing threads by id or open new ones with
// NewThread; an out-of-range thread id fails the whole batch before any
// mutation. Appending an empty batch is a no-op.
//
// Append must be serialized against all other store access by the caller;
// see the Store doc.
func (s *Store) Append(batch []UserPosts) ([]int, error) {
	if len(batch) == 0 {
		return nil, nil
	}
	d := s.Dataset
	for bi, up := range batch {
		for pi, p := range up.Posts {
			if p.Thread != NewThread && (p.Thread < 0 || p.Thread >= len(d.Threads)) {
				return nil, fmt.Errorf("features: batch user %d post %d references thread %d of %d", bi, pi, p.Thread, len(d.Threads))
			}
		}
	}
	s.ensureThreadUsers()

	// Extend the dataset: users, threads and posts keep dense ids.
	firstPost := len(d.Posts)
	ids := make([]int, len(batch))
	for bi, up := range batch {
		u := len(d.Users)
		ids[bi] = u
		nu := up.User
		nu.ID = u
		d.Users = append(d.Users, nu)
		for _, p := range up.Posts {
			t := p.Thread
			if t == NewThread {
				t = len(d.Threads)
				d.Threads = append(d.Threads, corpus.Thread{ID: t, Board: "ingest", Starter: u})
			}
			d.Posts = append(d.Posts, corpus.Post{ID: len(d.Posts), User: u, Thread: t, Text: p.Text})
		}
	}

	// Vectorize the new posts into a fresh backing block (the Build-time
	// matrix is never reallocated, so existing row views stay valid).
	nNew := len(d.Posts) - firstPost
	block := make([]float64, nNew*s.dim)
	rows := make([][]float64, nNew)
	parallelFor(nNew, s.opt.workerCount(nNew), func(i int) {
		row := block[i*s.dim : (i+1)*s.dim : (i+1)*s.dim]
		s.Extractor.ExtractInto(row, d.Posts[firstPost+i].Text)
		rows[i] = row
	})
	s.rows = append(s.rows, rows...)

	// Per-user views and attribute sets.
	firstUser := ids[0]
	byUser := make([][][]float64, len(batch))
	for i := firstPost; i < len(d.Posts); i++ {
		u := d.Posts[i].User - firstUser
		byUser[u] = append(byUser[u], s.rows[i])
	}
	for bi := range batch {
		s.perUser = append(s.perUser, byUser[bi])
		s.attrs = append(s.attrs, stylometry.UserAttributes(byUser[bi]))
	}

	// Extend the UDA graph in place when it exists (a lazily built one will
	// see the grown dataset anyway), and keep the thread index current.
	for bi := range batch {
		u := ids[bi]
		if s.uda != nil {
			s.uda.AppendNode(s.attrs[u], s.perUser[u])
		}
	}
	for i := firstPost; i < len(d.Posts); i++ {
		s.observePost(d.Posts[i].User, d.Posts[i].Thread)
	}
	return ids, nil
}

// ensureThreadUsers builds the per-thread distinct-participant index from
// the current dataset on first use.
func (s *Store) ensureThreadUsers() {
	if s.threadUsers != nil {
		return
	}
	s.threadUsers = make(map[int][]int, len(s.Dataset.Threads))
	seen := make(map[[2]int]bool, len(s.Dataset.Posts))
	for _, p := range s.Dataset.Posts {
		key := [2]int{p.Thread, p.User}
		if !seen[key] {
			seen[key] = true
			s.threadUsers[p.Thread] = append(s.threadUsers[p.Thread], p.User)
		}
	}
}

// observePost records user u posting under thread t: on u's first post in
// t, a co-discussion edge to every prior participant is added (weight 1 per
// shared thread, matching BuildCorrelation) and u joins the participant
// list.
func (s *Store) observePost(u, t int) {
	for _, v := range s.threadUsers[t] {
		if v == u {
			return // already a participant; no new edges
		}
	}
	if s.uda != nil {
		for _, v := range s.threadUsers[t] {
			s.uda.AddEdge(u, v, 1)
		}
	}
	s.threadUsers[t] = append(s.threadUsers[t], u)
}
