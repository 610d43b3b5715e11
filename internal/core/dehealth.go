// Package core implements the De-Health framework itself (§III, Algorithm 1
// and Algorithm 2): the two-phase de-anonymization attack consisting of
// structural Top-K candidate selection over UDA graphs, the optional
// threshold-vector filtering, and the refined (classifier-based) DA phase
// with the false-addition and mean-verification open-world schemes.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"

	"dehealth/internal/bipartite"
	"dehealth/internal/corpus"
	"dehealth/internal/features"
	"dehealth/internal/graph"
	"dehealth/internal/index"
	"dehealth/internal/ml"
	"dehealth/internal/shard"
	"dehealth/internal/similarity"
	"dehealth/internal/stylometry"
)

// SelectionMethod chooses how Top-K candidate sets are built (§III-B).
type SelectionMethod int

const (
	// DirectSelection takes the K auxiliary users with the highest
	// structural similarity scores.
	DirectSelection SelectionMethod = iota
	// GraphMatchingSelection repeatedly extracts a maximum-weight bipartite
	// matching and appends each user's match to its candidate set.
	GraphMatchingSelection
)

// Candidate pairs an auxiliary user with its structural similarity score.
// It is the shard engine's candidate type: the Top-K serving path is
// partition-parallel (see internal/shard), and core re-exports the type so
// both layers speak the same currency.
type Candidate = shard.Candidate

// TopKResult is the outcome of the Top-K DA phase.
type TopKResult struct {
	// K is the requested candidate set size.
	K int
	// Candidates[u] lists the candidates of anonymized user u in decreasing
	// score order. A nil entry means u was rejected (u -> ⊥) by filtering.
	Candidates [][]Candidate
	// TrueRank[u] is the 1-based rank of u's true mapping among all
	// auxiliary users by similarity score (0 when u has no true mapping or
	// no ground truth was supplied). Direct-selection ranking; used for the
	// Fig.3/Fig.5 success CDFs.
	TrueRank []int
	// MeanScore[u] is the mean similarity of u to its candidate set at
	// selection time (λ_u in the mean-verification scheme). Filtering does
	// not update it: verification compares against the unfiltered Top-K
	// population so the margin test stays meaningful.
	MeanScore []float64
	// RowMin[u] is the minimum similarity of u to any auxiliary user. The
	// mean-verification margin is computed on row-min-shifted scores
	// (s - RowMin[u]), which makes the margin scale-free: raw similarity
	// scores concentrate when most attributes are population-wide, and an
	// affine shift restores the relative spread the r threshold needs.
	RowMin []float64
	// MaxScore and MinScore are the extreme similarity scores observed
	// across all (u, v) pairs; Algorithm 2 derives its thresholds from them.
	MaxScore, MinScore float64
}

// Contains reports whether v is in u's candidate set.
func (t *TopKResult) Contains(u, v int) bool {
	for _, c := range t.Candidates[u] {
		if c.User == v {
			return true
		}
	}
	return false
}

// Pipeline owns the artifacts shared by both DA phases: the fitted feature
// extractor, the two UDA graphs and the structural similarity scorer. The
// serving-path queries (QueryUser / QueryBatch) are coordinated through a
// shard.World — the auxiliary side partitioned into one or more
// partition-parallel scoring shards — for which Pipeline is a thin router:
// it validates, fans out, and returns the merged global top-K.
type Pipeline struct {
	Anon, Aux *corpus.Dataset
	Extractor *stylometry.Extractor
	G1, G2    *graph.UDA
	Scorer    *similarity.Scorer

	// world is the sharded query engine (single-shard for unsharded
	// pipelines; nil only on legacy literal-constructed pipelines, which
	// fall back to an on-the-fly single-shard world).
	world *shard.World
}

// NewPipelineFromStore assembles a pipeline from prebuilt feature stores,
// reusing their cached UDA graphs, post vectors and attribute sets. Both
// stores must have been built with the same fitted extractor (as
// features.BuildPair does) so the feature spaces line up; it panics
// otherwise — two separately fitted extractors can agree on dimensionality
// while indexing different POS bigrams, which would silently corrupt every
// similarity score. The stores are not modified and can back any number of
// concurrent pipelines.
func NewPipelineFromStore(anon, aux *features.Store, simCfg similarity.Config) *Pipeline {
	return NewShardedPipelineFromStore(anon, aux, simCfg, 1)
}

// NewShardedPipelineFromStore is NewPipelineFromStore with the auxiliary
// side partitioned into shards partition-parallel scoring shards: each
// shard is a scorer window over globally computed caches, and
// QueryUser/QueryBatch fan out across them and merge the per-shard bounded
// heaps. shards <= 1 (or beyond the aux population, which clamps) yields
// the single-shard engine wrapping the base scorer directly; every shard
// count returns bit-identical query results — sharding only changes who
// computes what where.
func NewShardedPipelineFromStore(anon, aux *features.Store, simCfg similarity.Config, shards int) *Pipeline {
	checkExtractors(anon, aux) // before the cache precomputation, not after
	return NewRestoredPipeline(anon, aux, similarity.NewScorer(anon.UDA(), aux.UDA(), simCfg), shards)
}

// WithSimilarity returns a pipeline sharing this pipeline's datasets,
// graphs and feature artifacts but scoring under cfg. When cfg keeps the
// landmark count the scorer's precomputed landmark-distance caches are
// shared too, making a similarity-weight sweep nearly free. The shard
// world is re-derived from the re-weighted scorer, reusing every shard's
// bounds and index.
func (p *Pipeline) WithSimilarity(cfg similarity.Config) *Pipeline {
	q := *p
	q.Scorer = p.Scorer.Reweighted(cfg)
	if p.world != nil {
		q.world = p.world.WithScorer(q.Scorer)
	}
	return &q
}

// Pruned returns a pipeline over the same artifacts whose QueryUser /
// QueryBatch path gathers candidates from per-shard attribute inverted
// indexes and exact-rescores only them, falling back to the full scan
// whenever the structural score bounds cannot certify top-K correctness
// — results stay bit-identical to the unpruned path at every
// configuration (see internal/index). st, when non-nil, is the shared
// counter block the pruned queries accumulate into; nil allocates a
// fresh one. The offline TopK phase always runs the full scan.
func (p *Pipeline) Pruned(cfg index.Config, st *index.Stats) *Pipeline {
	q := *p
	q.world = p.shardWorld().WithPruning(cfg, st)
	return &q
}

// PruneStats snapshots the query path's cumulative pruning counters
// (zero for an unpruned pipeline).
func (p *Pipeline) PruneStats() index.Stats {
	if p.world == nil {
		return index.Stats{}
	}
	return p.world.PruneStats()
}

// Shards returns the query path's auxiliary partition count (1 for
// unsharded pipelines).
func (p *Pipeline) Shards() int { return p.shardWorld().N() }

// shardWorld returns the pipeline's shard world, deriving a single-shard
// one on the fly for legacy literal-constructed pipelines.
func (p *Pipeline) shardWorld() *shard.World {
	if p.world != nil {
		return p.world
	}
	return shard.New(p.Scorer, p.G2, nil, 1)
}

// ErrMatchingTooLarge is wrapped by CheckTopK when GraphMatchingSelection
// is asked of a world whose score matrix exceeds maxMatchingCells.
var ErrMatchingTooLarge = errors.New("core: world too large for graph-matching selection")

// maxMatchingCells caps |V1|·|V2| under GraphMatchingSelection, which
// holds two dense float64 matrices of that many cells (the scores and the
// working copy matched edges are struck from): 2^28 cells keep the pair at
// 4 GiB. At the paper's WebMD population (89,393 × 89,393) each matrix
// alone would be 64 GB, so the selection refuses instead of thrashing.
const maxMatchingCells = 1 << 28

// scanStrip is how many anonymized users one offline scan pass scores
// together: each strip is one shard.World.ScanBatch call, so the Top-K
// phase holds workers × scanStrip block buffers instead of full rows.
const scanStrip = 8

// TopK runs the Top-K DA phase (Algorithm 1, lines 2–5). trueMapping is
// optional evaluation ground truth (anon user -> aux user) used only to
// compute TrueRank; pass nil in attack settings. It panics on arguments
// CheckTopK rejects.
//
// The phase runs on the served engine: strips of anonymized users stream
// through the blocked batched shard scan, which keeps the candidates while
// an observer folds each scored block into the row statistics, so memory
// stays O(|V1|·K) for direct selection. GraphMatchingSelection
// materializes the full matrix and is intended for the small refined-DA
// datasets.
func (p *Pipeline) TopK(k int, method SelectionMethod, trueMapping map[int]int) *TopKResult {
	if err := p.CheckTopK(k, method, trueMapping); err != nil {
		panic(err.Error())
	}
	if method == GraphMatchingSelection {
		return p.topKMatching(k, trueMapping)
	}
	return p.topKDirect(k, trueMapping, nil)
}

// CheckTopK reports why TopK(k, method, trueMapping) cannot run: a
// candidate-set size below one, an unknown selection method, a
// ground-truth pair naming an auxiliary user that does not exist, or a
// graph-matching score matrix beyond maxMatchingCells (wrapping
// ErrMatchingTooLarge). Layers fed from outside the program call it first
// and return the error; TopK itself treats a violation as a caller bug.
func (p *Pipeline) CheckTopK(k int, method SelectionMethod, trueMapping map[int]int) error {
	if k < 1 {
		return fmt.Errorf("core: K must be >= 1, got %d", k)
	}
	n1, n2 := p.G1.NumNodes(), p.G2.NumNodes()
	for u, v := range trueMapping {
		if u >= 0 && u < n1 && (v < 0 || v >= n2) {
			return fmt.Errorf("core: true mapping %d -> %d names no auxiliary user in [0, %d)", u, v, n2)
		}
	}
	switch method {
	case DirectSelection:
		return nil
	case GraphMatchingSelection:
		return checkMatchingSize(n1, n2)
	}
	return fmt.Errorf("core: unknown selection method %d", method)
}

func checkMatchingSize(n1, n2 int) error {
	if n1 > 0 && n2 > maxMatchingCells/n1 {
		return fmt.Errorf("%w: %d x %d users exceed %d score-matrix cells", ErrMatchingTooLarge, n1, n2, maxMatchingCells)
	}
	return nil
}

// rowStats folds one anonymized user's similarity row, block by block in
// ascending auxiliary order, into what the attack keeps of it: the row
// extremes, the row sum, and the true mapping's rank.
type rowStats struct {
	min, max, sum float64
	// truth is the true mapping's auxiliary id and truthScore its score;
	// above counts the rows ranking before it under the selection order
	// (higher score, ties to the smaller id). A row without ground truth
	// sets truthScore to +Inf, which nothing ranks before.
	truth      int
	truthScore float64
	above      int
}

// observe is the row's shard.World.ScanBatch observer.
func (r *rowStats) observe(lo int, scores []float64) {
	if lo == 0 {
		r.min, r.max = scores[0], scores[0]
	}
	for j, s := range scores {
		if s > r.max {
			r.max = s
		}
		if s < r.min {
			r.min = s
		}
		r.sum += s
		if s > r.truthScore || (s == r.truthScore && lo+j < r.truth) {
			r.above++
		}
	}
}

// topKDirect is the whole-matrix pass behind both selection methods:
// strips of scanStrip anonymized users run through the shard world's
// batched scan in parallel, the scan's heaps yield each user's K best
// candidates, and a rowStats observer per user yields the row minimum, the
// score extremes and the true mapping's rank. rows, when non-nil, also
// receives every score (rows[u][v] = s_uv) for the graph-matching rounds.
func (p *Pipeline) topKDirect(k int, trueMapping map[int]int, rows [][]float64) *TopKResult {
	n1 := p.G1.NumNodes()
	res := &TopKResult{
		K:          k,
		Candidates: make([][]Candidate, n1),
		TrueRank:   make([]int, n1),
		MeanScore:  make([]float64, n1),
		RowMin:     make([]float64, n1),
	}
	maxs := make([]float64, n1)
	world := p.shardWorld()
	shard.ParallelFor((n1+scanStrip-1)/scanStrip, runtime.GOMAXPROCS(0), func(strip int) {
		var users [scanStrip]int
		var stats [scanStrip]rowStats
		first := strip * scanStrip
		n := min(scanStrip, n1-first)
		for i := 0; i < n; i++ {
			u := first + i
			users[i], stats[i] = u, rowStats{truthScore: math.Inf(1)}
			if tv, ok := trueMapping[u]; ok {
				// Read up front: the parity contract makes Score bit-identical
				// to the score the scan will produce for the same pair.
				stats[i].truth, stats[i].truthScore = tv, p.Scorer.Score(u, tv)
			}
		}
		cands := world.ScanBatch(users[:n], k, func(q, lo int, scores []float64) {
			stats[q].observe(lo, scores)
			if rows != nil {
				copy(rows[users[q]][lo:], scores)
			}
		})
		for i, u := range users[:n] {
			res.Candidates[u] = cands[i]
			res.MeanScore[u] = meanScore(cands[i])
			res.RowMin[u], maxs[u] = stats[i].min, stats[i].max
			if _, ok := trueMapping[u]; ok {
				res.TrueRank[u] = stats[i].above + 1
			}
		}
	})
	res.MaxScore, res.MinScore = extremes(maxs, res.RowMin)
	return res
}

// meanScore averages candidate scores (λ_u).
func meanScore(cs []Candidate) float64 {
	if len(cs) == 0 {
		return 0
	}
	var s float64
	for _, c := range cs {
		s += c.Score
	}
	return s / float64(len(cs))
}

func extremes(maxs, mins []float64) (mx, mn float64) {
	if len(maxs) == 0 {
		return 0, 0
	}
	mx, mn = maxs[0], mins[0]
	for i := 1; i < len(maxs); i++ {
		if maxs[i] > mx {
			mx = maxs[i]
		}
		if mins[i] < mn {
			mn = mins[i]
		}
	}
	return mx, mn
}

func (p *Pipeline) topKMatching(k int, trueMapping map[int]int) *TopKResult {
	n1, n2 := p.G1.NumNodes(), p.G2.NumNodes()
	scores := make([][]float64, n1)
	for u := range scores {
		scores[u] = make([]float64, n2)
	}
	// The direct pass fills the matrix and supplies the ranks, row minima
	// and score extremes; the matching rounds replace its candidate sets.
	res := p.topKDirect(k, trueMapping, scores)
	clear(res.Candidates)

	// Working copy: matched edges are struck out with -inf sentinels.
	work := make([][]float64, n1)
	for u := range scores {
		work[u] = append([]float64(nil), scores[u]...)
	}
	const struck = -1e18
	// The exact algorithm while the matrix is small enough; the greedy
	// 1/2-approximation otherwise.
	match := bipartite.GreedyMatching
	if n1*n2 <= 250_000 {
		match = bipartite.MaxWeightMatching
	}
	for r := 0; r < k; r++ {
		progress := false
		for u, v := range match(work) {
			if v < 0 || work[u][v] == struck {
				continue
			}
			res.Candidates[u] = append(res.Candidates[u], Candidate{User: v, Score: scores[u][v]})
			work[u][v] = struck
			progress = true
		}
		if !progress {
			break
		}
	}
	// Keep candidate lists sorted by decreasing score for downstream code.
	for u := range res.Candidates {
		cs := res.Candidates[u]
		sort.Slice(cs, func(a, b int) bool {
			if cs[a].Score != cs[b].Score {
				return cs[a].Score > cs[b].Score
			}
			return cs[a].User < cs[b].User
		})
		res.MeanScore[u] = meanScore(cs)
	}
	return res
}

// FilterConfig parametrizes Algorithm 2.
type FilterConfig struct {
	// Epsilon is the ε offset above the global minimum score (default 0.01).
	Epsilon float64
	// L is the threshold vector length l (default 10).
	L int
}

// Filter applies the Algorithm 2 threshold-vector filtering to tk in place:
// each candidate set is cut at the highest threshold level that leaves it
// non-empty; users whose candidates all fall below the smallest threshold
// are rejected (candidate set becomes nil, meaning u -> ⊥).
func (p *Pipeline) Filter(tk *TopKResult, cfg FilterConfig) {
	if cfg.L <= 1 {
		cfg.L = 10
	}
	if cfg.Epsilon < 0 {
		cfg.Epsilon = 0.01
	}
	su := tk.MaxScore
	sl := tk.MinScore + cfg.Epsilon
	if sl > su {
		sl = su
	}
	for u, cs := range tk.Candidates {
		if cs == nil {
			continue
		}
		var kept []Candidate
		for i := 0; i < cfg.L; i++ {
			ti := su - float64(i)/float64(cfg.L-1)*(su-sl)
			kept = kept[:0]
			for _, c := range cs {
				if c.Score >= ti {
					kept = append(kept, c)
				}
			}
			if len(kept) > 0 {
				tk.Candidates[u] = append([]Candidate(nil), kept...)
				break
			}
		}
		if len(kept) == 0 {
			tk.Candidates[u] = nil // u -> ⊥
		}
	}
}

// OpenWorldScheme selects the open-world handling of the refined DA phase.
type OpenWorldScheme int

const (
	// ClosedWorld accepts the classifier output unconditionally.
	ClosedWorld OpenWorldScheme = iota
	// FalseAddition adds K' random non-candidate users as decoy classes; a
	// decoy prediction means u -> ⊥.
	FalseAddition
	// MeanVerification accepts u -> v only when s_uv >= (1+r)·mean
	// similarity of u to its candidates (row-min shifted; see TopKResult).
	MeanVerification
	// SigmaVerification accepts u -> v only when the classifier's score for
	// v stands Sigma standard deviations above the other candidates'
	// scores (Stolerman et al.'s Classify-Verify).
	SigmaVerification
	// DistractorlessVerification accepts u -> v only when the cosine
	// between u's and v's aggregate stylometric profiles reaches
	// CosineThreshold (Noecker & Ryan).
	DistractorlessVerification
)

// RefineOptions parametrizes the refined DA phase.
type RefineOptions struct {
	// NewClassifier constructs a fresh classifier per anonymized user.
	NewClassifier func() ml.Classifier
	// Scheme is the open-world scheme (default ClosedWorld).
	Scheme OpenWorldScheme
	// R is the mean-verification margin r >= 0 (paper uses 0.25).
	R float64
	// Sigma is the SigmaVerification threshold in standard deviations
	// (typical operating points: 0.5–2).
	Sigma float64
	// CosineThreshold is the DistractorlessVerification acceptance level
	// (typical operating points: 0.95–0.999, profiles are highly aligned).
	CosineThreshold float64
	// KPrime is the number of decoy users for FalseAddition; <= 0 means
	// |Cu| decoys, as suggested in §III-B.
	KPrime int
	// Seed drives decoy sampling.
	Seed int64
}

// DAResult is the final outcome of De-Health for each anonymized user.
type DAResult struct {
	// Mapping[u] is the de-anonymized auxiliary user, or -1 for u -> ⊥.
	Mapping []int
}

// RefinedDA runs the second phase (Algorithm 1, lines 7–9): per anonymized
// user, train a classifier on the candidate users' auxiliary posts
// (stylometric vector ⊕ owner structural vector) and classify the
// anonymized user's posts, aggregating per-post scores.
func (p *Pipeline) RefinedDA(tk *TopKResult, opt RefineOptions) (*DAResult, error) {
	if opt.NewClassifier == nil {
		return nil, fmt.Errorf("core: RefineOptions.NewClassifier is required")
	}
	n1 := p.G1.NumNodes()
	res := &DAResult{Mapping: make([]int, n1)}
	rng := rand.New(rand.NewSource(opt.Seed + 7))

	errs := make([]error, n1)
	seeds := make([]int64, n1)
	for u := 0; u < n1; u++ {
		seeds[u] = rng.Int63()
	}
	shard.ParallelFor(n1, runtime.GOMAXPROCS(0), func(u int) {
		res.Mapping[u], errs[u] = p.refineUser(u, tk, opt, seeds[u])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// refineUser de-anonymizes a single user; returns the aux user or -1 (⊥).
func (p *Pipeline) refineUser(u int, tk *TopKResult, opt RefineOptions, seed int64) (int, error) {
	cands := tk.Candidates[u]
	if cands == nil {
		return -1, nil // rejected by filtering
	}
	if len(p.G1.PostVectors[u]) == 0 {
		return -1, nil // nothing to classify
	}

	classes := make([]int, 0, len(cands)*2) // aux user per class
	for _, c := range cands {
		classes = append(classes, c.User)
	}
	numReal := len(classes)

	if opt.Scheme == FalseAddition {
		kp := opt.KPrime
		if kp <= 0 {
			kp = len(cands)
		}
		inCu := map[int]bool{}
		for _, c := range cands {
			inCu[c.User] = true
		}
		n2 := p.G2.NumNodes()
		pool := make([]int, 0, n2-len(inCu))
		for v := 0; v < n2; v++ {
			if !inCu[v] {
				pool = append(pool, v)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		if kp > len(pool) {
			kp = len(pool)
		}
		classes = append(classes, pool[:kp]...)
	}

	// Assemble the training set.
	var X [][]float64
	var y []int
	for ci, v := range classes {
		sv := p.Scorer.StructuralVector(2, v)
		for _, pv := range p.G2.PostVectors[v] {
			X = append(X, concat(pv, sv))
			y = append(y, ci)
		}
	}
	if len(X) == 0 {
		return -1, nil
	}
	clf := opt.NewClassifier()
	if err := clf.Fit(X, y); err != nil {
		return 0, fmt.Errorf("core: training classifier for anon user %d: %w", u, err)
	}

	// Classify u's posts and aggregate scores.
	total := p.classScores(u, clf, len(classes))
	best := ml.ArgMax(total)
	if best < 0 {
		return -1, nil
	}
	if opt.Scheme == FalseAddition && best >= numReal {
		return -1, nil // classified to a decoy: u -> ⊥
	}
	v := classes[best]

	switch opt.Scheme {
	case MeanVerification:
		mean := tk.MeanScore[u]
		if mean == 0 {
			mean = meanScore(cands)
		}
		if !verifyMean(p.Scorer.Score(u, v), mean, tk.RowMin[u], opt.R) {
			return -1, nil // verification rejected: u -> ⊥
		}
	case SigmaVerification:
		if !sigmaVerify(total[:numReal], best, opt.Sigma) {
			return -1, nil
		}
	case DistractorlessVerification:
		if !distractorlessVerify(p.G1.PostVectors[u], p.G2.PostVectors[v], opt.CosineThreshold) {
			return -1, nil
		}
	}
	return v, nil
}

// classScores classifies each of anonymized user u's posts (stylometric
// vector ⊕ u's structural vector) and sums the per-class scores over the
// posts, for the first n classes.
func (p *Pipeline) classScores(u int, clf ml.Classifier, n int) []float64 {
	su := p.Scorer.StructuralVector(1, u)
	total := make([]float64, n)
	for _, pv := range p.G1.PostVectors[u] {
		for i, s := range clf.Scores(concat(pv, su)) {
			if i < len(total) {
				total[i] += s
			}
		}
	}
	return total
}

// verifyMean implements the mean-verification acceptance test on row-min
// shifted scores: accept u -> v iff (s_uv − m) >= (1+r)·(λ_u − m), where m
// is the row minimum. The shift makes r a relative margin over the spread
// of u's similarity row rather than its absolute location.
func verifyMean(suv, mean, rowMin, r float64) bool {
	shiftedTop := suv - rowMin
	shiftedMean := mean - rowMin
	if shiftedMean <= 0 {
		return shiftedTop > 0
	}
	return shiftedTop >= (1+r)*shiftedMean
}

func concat(a, b []float64) []float64 {
	out := make([]float64, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// StylometryBaseline runs the comparison method of §V ("Stylometry"): the
// refined-DA classifier over the whole auxiliary user set, without the
// Top-K phase — equivalent to RefinedDA with Cu = V2 for every user. Since
// the candidate set is the same for everyone, a single classifier is
// trained and shared across all anonymized users.
func (p *Pipeline) StylometryBaseline(opt RefineOptions) (*DAResult, error) {
	if opt.NewClassifier == nil {
		return nil, fmt.Errorf("core: RefineOptions.NewClassifier is required")
	}
	n1, n2 := p.G1.NumNodes(), p.G2.NumNodes()

	var X [][]float64
	var y []int
	for v := 0; v < n2; v++ {
		sv := p.Scorer.StructuralVector(2, v)
		for _, pv := range p.G2.PostVectors[v] {
			X = append(X, concat(pv, sv))
			y = append(y, v)
		}
	}
	clf := opt.NewClassifier()
	if err := clf.Fit(X, y); err != nil {
		return nil, fmt.Errorf("core: training stylometry baseline: %w", err)
	}

	res := &DAResult{Mapping: make([]int, n1)}
	shard.ParallelFor(n1, runtime.GOMAXPROCS(0), func(u int) {
		res.Mapping[u] = p.baselineUser(u, clf, n2, opt)
	})
	return res, nil
}

// baselineUser classifies one anonymized user with the shared baseline
// classifier, applying mean-verification over the whole auxiliary set when
// requested.
func (p *Pipeline) baselineUser(u int, clf ml.Classifier, n2 int, opt RefineOptions) int {
	if len(p.G1.PostVectors[u]) == 0 {
		return -1
	}
	best := ml.ArgMax(p.classScores(u, clf, n2))
	if best < 0 {
		return -1
	}
	if opt.Scheme == MeanVerification {
		row := rowStats{truthScore: math.Inf(1)}
		p.shardWorld().ScanBatch([]int{u}, 1, func(_, lo int, scores []float64) { row.observe(lo, scores) })
		if !verifyMean(p.Scorer.Score(u, best), row.sum/float64(n2), row.min, opt.R) {
			return -1
		}
	}
	return best
}
