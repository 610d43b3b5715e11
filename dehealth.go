// Package dehealth is the public API of the De-Health reproduction — the
// online-health-data de-anonymization framework of Ji et al., "De-Health:
// All Your Online Health Information Are Belong to Us" (ICDE 2020).
//
// The package exposes the full pipeline:
//
//   - dataset handling (the corpus model, JSON I/O, closed/open-world
//     splits) and a calibrated synthetic health-forum generator standing in
//     for the paper's WebMD/HealthBoards crawls;
//   - the two-phase De-Health attack: structural Top-K candidate selection
//     over User-Data-Attribute graphs, then classifier-based refined DA with
//     open-world handling (false addition, mean verification);
//   - the §VI linkage attack (NameLink and AvatarLink) connecting forum
//     accounts to external-service profiles;
//   - the §IV theoretical bounds on re-identifiability.
//
// Quick start:
//
//	world := dehealth.GenerateWorld(dehealth.WorldConfig{WebMDUsers: 500, HBUsers: 800, Seed: 1})
//	split := dehealth.SplitClosedWorld(world.WebMD, 0.5, 7)
//	res, err := dehealth.Attack(split.Anon, split.Aux, dehealth.DefaultOptions())
//	// res.Mapping[u] is the de-anonymized auxiliary user of anonymized user u (or -1).
//
// # Extract once, attack many
//
// Almost all of an attack's cost is stylometric feature extraction — every
// post of both datasets maps to a 400+-dimensional Table I vector — and
// that work depends only on the (anonymized, auxiliary) dataset pair, not
// on the attack configuration. PrepareWorld materializes those features
// once, in parallel (see Options.Workers), into a shared feature store and
// returns a PreparedWorld whose Attack method runs any number of
// configurations (candidate-set sizes, classifiers, open-world schemes,
// similarity weights) against the cached artifacts:
//
//	pw := dehealth.PrepareWorld(split.Anon, split.Aux, dehealth.DefaultOptions())
//	for _, k := range []int{5, 10, 20} {
//		opt := dehealth.DefaultOptions()
//		opt.K = k
//		res, err := pw.Attack(opt)
//		// ...
//	}
//
// Attack(anon, aux, opt) is equivalent to PrepareWorld(anon, aux,
// opt).Attack(opt) and produces identical results; the one-shot form simply
// discards the store afterwards.
package dehealth

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"dehealth/internal/anonymize"
	"dehealth/internal/core"
	"dehealth/internal/corpus"
	"dehealth/internal/features"
	"dehealth/internal/index"
	"dehealth/internal/linkage"
	"dehealth/internal/ml"
	"dehealth/internal/serve"
	"dehealth/internal/shard"
	"dehealth/internal/similarity"
	"dehealth/internal/synth"
)

// Dataset is a health forum's data: users, threads and posts.
type Dataset = corpus.Dataset

// Split is an anonymized/auxiliary partition with evaluation ground truth.
type Split = corpus.Split

// LoadDataset reads a JSON dataset written by (*Dataset).Save.
func LoadDataset(path string) (*Dataset, error) { return corpus.Load(path) }

// SplitClosedWorld partitions each user's posts, sending auxFrac of them to
// the auxiliary side (§V-A methodology).
func SplitClosedWorld(d *Dataset, auxFrac float64, seed int64) *Split {
	return corpus.SplitClosedWorld(d, auxFrac, rand.New(rand.NewSource(seed)))
}

// SplitOpenWorld builds an open-world partition with the given overlapping
// user ratio (§V-B methodology, footnote 10).
func SplitOpenWorld(d *Dataset, overlapRatio float64, seed int64) *Split {
	return corpus.OpenWorldOverlap(d, overlapRatio, rand.New(rand.NewSource(seed)))
}

// WorldConfig sizes a synthetic evaluation world.
type WorldConfig struct {
	// WebMDUsers and HBUsers are account counts for the two forums.
	WebMDUsers, HBUsers int
	// OverlapFrac is the fraction of WebMD users who also hold an HB
	// account (default 0.2).
	OverlapFrac float64
	// Seed makes the world reproducible.
	Seed int64
}

// World is a generated evaluation world: two forums over a shared person
// universe plus the external-service directory for linkage attacks.
type World struct {
	WebMD, HB *Dataset
	Directory *linkage.Directory
	Universe  *synth.Universe
}

// GenerateWorld builds a synthetic world calibrated to the paper's corpus
// statistics (Fig.1, Fig.2, Fig.7).
func GenerateWorld(cfg WorldConfig) *World {
	if cfg.OverlapFrac == 0 {
		cfg.OverlapFrac = 0.2
	}
	overlap := int(cfg.OverlapFrac * float64(cfg.WebMDUsers))
	uSize := cfg.WebMDUsers + cfg.HBUsers - overlap + cfg.WebMDUsers/2
	u := synth.NewUniverse(uSize, cfg.Seed)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	wm, hm := synth.OverlappingMembers(u, cfg.WebMDUsers, cfg.HBUsers, overlap, rng)
	return &World{
		WebMD:     synth.Generate(synth.WebMDLike(cfg.WebMDUsers, cfg.Seed+2), u, wm),
		HB:        synth.Generate(synth.HBLike(cfg.HBUsers, cfg.Seed+3), u, hm),
		Directory: synth.SocialDirectory(u, synth.DefaultServices(), cfg.Seed+4),
		Universe:  u,
	}
}

// Classifier selects the refined-DA learning algorithm.
type Classifier string

// Supported classifiers.
const (
	KNN  Classifier = "knn"  // k-nearest neighbors (k = 3)
	NN   Classifier = "nn"   // nearest neighbor
	SMO  Classifier = "smo"  // SVM via sequential minimal optimization
	RLSC Classifier = "rlsc" // regularized least squares classification
	NB   Classifier = "nb"   // Gaussian naive Bayes
)

// Scheme selects the open-world handling of refined DA.
type Scheme string

// Supported open-world schemes.
const (
	Closed           Scheme = "closed"
	FalseAddition    Scheme = "false-addition"
	MeanVerification Scheme = "mean-verification"
	SigmaVerify      Scheme = "sigma-verification"
	Distractorless   Scheme = "distractorless"
)

// Options parametrizes an Attack run. Zero values take the paper defaults.
type Options struct {
	// C1, C2, C3 weight the degree, distance and attribute similarities
	// (paper default 0.05 / 0.05 / 0.9).
	C1, C2, C3 float64
	// Landmarks is ħ, the top-degree landmark count (default 50).
	Landmarks int
	// K is the Top-K candidate set size (default 10).
	K int
	// GraphMatching switches candidate selection from direct selection to
	// repeated maximum-weight bipartite matching.
	GraphMatching bool
	// Filter enables the Algorithm 2 threshold-vector filtering.
	Filter bool
	// Epsilon and L parametrize the filter (defaults 0.01, 10).
	Epsilon float64
	L       int
	// Classifier picks the refined-DA learner (default SMO).
	Classifier Classifier
	// Scheme picks the open-world handling (default Closed).
	Scheme Scheme
	// R is the mean-verification margin (default 0.25).
	R float64
	// Sigma is the sigma-verification threshold (default 1.0).
	Sigma float64
	// CosineThreshold is the distractorless acceptance level (default 0.98).
	CosineThreshold float64
	// MaxBigrams caps the POS-bigram feature block (default 300).
	MaxBigrams int
	// Workers bounds the worker pool used for feature extraction when
	// preparing the attack's feature store (<= 0 uses all CPUs).
	Workers int
	// Shards partitions the auxiliary side of a prepared world into this
	// many partition-parallel scoring shards: QueryUser/QueryBatch fan each
	// query's O(|aux|) row out across the shards and merge the per-shard
	// bounded heaps, with results bit-identical to the unsharded path.
	// Consulted by PrepareWorld (like MaxBigrams and Workers), not per
	// Attack/Query call. <= 1 disables sharding; counts beyond the
	// auxiliary population are clamped.
	Shards int
	// Prune enables candidate-pruned queries: each shard builds an
	// attribute inverted index (plus degree bands) over its auxiliary
	// window, QueryUser gathers only the query user's attribute-overlap
	// candidates and exact-rescores them, and zero-overlap users are
	// skipped whenever a structural score bound proves they cannot enter
	// the top-K. A query whose candidates cover most of a shard is handed
	// to that shard's full scan instead, so results are always
	// bit-identical to Prune=false. Consulted by PrepareWorld, not per
	// call; see PreparedWorld.PruneStats for the observed effect.
	Prune bool
	// Deprecated: Approx.Enabled prepares the world exactly as Prune does,
	// and every query is answered exactly.
	Approx ApproxConfig
	// Seed drives all randomized components.
	Seed int64
}

// DefaultOptions returns the paper's default attack configuration.
func DefaultOptions() Options {
	return Options{
		C1: 0.05, C2: 0.05, C3: 0.9,
		Landmarks:  50,
		K:          10,
		Classifier: SMO,
		Scheme:     Closed,
		R:          0.25,
		Epsilon:    0.01,
		L:          10,
	}
}

// normalized resolves zero-valued fields to the paper defaults.
func (o Options) normalized() Options {
	if o.K <= 0 {
		o.K = 10
	}
	if o.C1 == 0 && o.C2 == 0 && o.C3 == 0 {
		o.C1, o.C2, o.C3 = 0.05, 0.05, 0.9
	}
	if o.Landmarks <= 0 {
		o.Landmarks = 50
	}
	if o.Sigma == 0 {
		o.Sigma = 1.0
	}
	if o.CosineThreshold == 0 {
		o.CosineThreshold = 0.98
	}
	return o
}

// simConfig is the similarity configuration the options induce.
func (o Options) simConfig() similarity.Config {
	return similarity.Config{C1: o.C1, C2: o.C2, C3: o.C3, Landmarks: o.Landmarks}
}

// Result is the outcome of a full two-phase attack.
type Result struct {
	// Mapping[u] is the auxiliary user that anonymized user u was
	// de-anonymized to, or -1 for u -> ⊥.
	Mapping []int
	// TopK is the first-phase outcome (candidate sets and true-mapping
	// ranks when ground truth was supplied).
	TopK *core.TopKResult
	// Pipeline exposes the underlying artifacts (UDA graphs, scorer) for
	// inspection.
	Pipeline *core.Pipeline
}

func (o Options) classifierFactory() (func() ml.Classifier, error) {
	switch o.Classifier {
	case KNN, "":
		return func() ml.Classifier { return ml.NewKNN(3) }, nil
	case NN:
		return func() ml.Classifier { return ml.NN() }, nil
	case SMO:
		return func() ml.Classifier { return ml.NewSMO(ml.SMOConfig{C: 1, Seed: o.Seed}) }, nil
	case RLSC:
		return func() ml.Classifier { return ml.NewRLSC(1) }, nil
	case NB:
		return func() ml.Classifier { return ml.NewNaiveBayes() }, nil
	default:
		return nil, fmt.Errorf("dehealth: unknown classifier %q", o.Classifier)
	}
}

func (o Options) scheme() (core.OpenWorldScheme, error) {
	switch o.Scheme {
	case Closed, "":
		return core.ClosedWorld, nil
	case FalseAddition:
		return core.FalseAddition, nil
	case MeanVerification:
		return core.MeanVerification, nil
	case SigmaVerify:
		return core.SigmaVerification, nil
	case Distractorless:
		return core.DistractorlessVerification, nil
	default:
		return 0, fmt.Errorf("dehealth: unknown scheme %q", o.Scheme)
	}
}

// PreparedWorld is an (anonymized, auxiliary) dataset pair with its feature
// store already materialized: the fitted extractor, every post's stylometric
// vector, the per-user attribute sets and the UDA graphs. Build one with
// PrepareWorld, then run any number of attack configurations against it —
// only the phase that actually depends on the configuration (similarity
// weighting, Top-K selection, filtering, refined DA) is recomputed per
// Attack call. A PreparedWorld is safe for concurrent Attack calls.
type PreparedWorld struct {
	// Anon and Aux are the datasets the world was prepared from. Anon grows
	// as users are ingested.
	Anon, Aux *Dataset

	anonStore, auxStore *features.Store
	shards              int
	// prepOpt preserves the preparation-time options (MaxBigrams, Workers,
	// Shards, Prune plus the attack defaults in force), pinning the
	// configuration Snapshot captures and LoadWorld restores.
	prepOpt Options
	// pruneStats, when non-nil, enables candidate pruning on every derived
	// pipeline; all of them accumulate into this one shared counter block.
	pruneStats *index.Stats
	// slice, when non-nil, marks a world loaded from a per-shard snapshot
	// slice (see SnapshotSlices): it serves the global auxiliary id window
	// [slice.Lo, slice.Hi) under local ids starting at 0.
	slice *SliceInfo

	// world serializes growth of the anonymized side (Ingest) against
	// everything that reads the stores (queries, attacks).
	world sync.RWMutex

	mu        sync.Mutex
	pipelines map[similarity.Config]*core.Pipeline
}

// PrepareWorld extracts the feature store of the dataset pair once, using
// opt.MaxBigrams for the POS-bigram block (fitted on aux, the adversary's
// data), opt.Workers extraction workers, opt.Shards auxiliary scoring
// shards and opt.Prune (or the deprecated opt.Approx.Enabled) candidate
// pruning. The remaining Options fields are ignored here; pass them to
// (*PreparedWorld).Attack.
func PrepareWorld(anon, aux *Dataset, opt Options) *PreparedWorld {
	anonS, auxS := features.BuildPair(anon, aux, opt.MaxBigrams, features.Options{Workers: opt.Workers})
	shards := opt.Shards
	if shards < 1 {
		shards = 1
	}
	w := &PreparedWorld{
		Anon: anon, Aux: aux,
		anonStore: anonS, auxStore: auxS,
		shards:    shards,
		prepOpt:   opt,
		pipelines: map[similarity.Config]*core.Pipeline{},
	}
	if opt.Prune || opt.Approx.Enabled {
		w.pruneStats = &index.Stats{}
	}
	return w
}

// pipeline returns the cached pipeline for cfg, deriving it from an
// existing pipeline with the same landmark count when possible (sharing the
// landmark-distance caches) and building it from the stores otherwise.
func (w *PreparedWorld) pipeline(cfg similarity.Config) *core.Pipeline {
	w.mu.Lock()
	defer w.mu.Unlock()
	if p, ok := w.pipelines[cfg]; ok {
		return p
	}
	for c, p := range w.pipelines {
		if c.Landmarks == cfg.Landmarks {
			q := p.WithSimilarity(cfg)
			w.pipelines[cfg] = q
			return q
		}
	}
	p := core.NewShardedPipelineFromStore(w.anonStore, w.auxStore, cfg, w.shards)
	if w.pruneStats != nil {
		// Every pruned pipeline of this world shares one counter block;
		// WithSimilarity-derived pipelines inherit pruning (and the block)
		// from their parent above.
		p = p.Pruned(index.Config{}, w.pruneStats)
	}
	w.pipelines[cfg] = p
	return p
}

// Attack runs one attack configuration against the prepared world. Only
// opt's attack parameters are consulted; the feature-store parameters
// (MaxBigrams, Workers) were fixed at PrepareWorld time.
func (w *PreparedWorld) Attack(opt Options) (*Result, error) {
	return w.AttackWithTruth(opt, nil)
}

// AttackWithTruth is Attack plus ground truth for rank bookkeeping; the
// truth never influences the attack itself. A pair mapping to an auxiliary
// user that does not exist is an error, as is Options.GraphMatching on a
// world too large for its score matrices (core.ErrMatchingTooLarge).
func (w *PreparedWorld) AttackWithTruth(opt Options, trueMapping map[int]int) (*Result, error) {
	opt = opt.normalized()
	mkClf, err := opt.classifierFactory()
	if err != nil {
		return nil, err
	}
	scheme, err := opt.scheme()
	if err != nil {
		return nil, err
	}

	w.world.RLock()
	defer w.world.RUnlock()
	p := w.pipeline(opt.simConfig())

	sel := core.DirectSelection
	if opt.GraphMatching {
		sel = core.GraphMatchingSelection
	}
	if err := p.CheckTopK(opt.K, sel, trueMapping); err != nil {
		return nil, err
	}
	tk := p.TopK(opt.K, sel, trueMapping)
	if opt.Filter {
		p.Filter(tk, core.FilterConfig{Epsilon: opt.Epsilon, L: opt.L})
	}
	res, err := p.RefinedDA(tk, core.RefineOptions{
		NewClassifier:   mkClf,
		Scheme:          scheme,
		R:               opt.R,
		Sigma:           opt.Sigma,
		CosineThreshold: opt.CosineThreshold,
		Seed:            opt.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Result{Mapping: res.Mapping, TopK: tk, Pipeline: p}, nil
}

// Candidate pairs an auxiliary user with its structural similarity score.
type Candidate = core.Candidate

// IngestPost is one post of a newly observed anonymous user: an existing
// thread id (or NewThread) and the post text.
type IngestPost = features.IncomingPost

// NewThread marks an IngestPost as starting a fresh thread.
const NewThread = features.NewThread

// UserPosts is one newly observed user and their posts, the unit of
// ingestion.
type UserPosts = features.UserPosts

// Sizes reports the current aggregate world sizes: ingested-side
// (anonymized) and auxiliary user counts. ShardSizes breaks the same
// totals down per shard.
func (w *PreparedWorld) Sizes() (anonUsers, auxUsers int) {
	w.world.RLock()
	defer w.world.RUnlock()
	return w.anonStore.NumUsers(), w.auxStore.NumUsers()
}

// ShardSize is one shard's slice of a prepared world: the contiguous
// auxiliary partition it scores, and the anonymized accounts homed to it.
type ShardSize struct {
	// Shard is the shard index.
	Shard int
	// AuxUsers is the size of the shard's auxiliary partition.
	AuxUsers int
	// AnonUsers counts the anonymized accounts whose home shard this is.
	// Homes are assigned by a stable hash of the account name — identical
	// across restarts of the same prepared world — so ingest accounting is
	// deterministic; the data itself lives in the single anonymized store
	// regardless of home.
	AnonUsers int
}

// ShardSizes reports the per-shard breakdown of the world (a single entry
// when sharding is off). Summing the entries reproduces Sizes: auxiliary
// partitions tile [0, auxUsers) and every anonymized account has exactly
// one home shard.
func (w *PreparedWorld) ShardSizes() []ShardSize {
	w.world.RLock()
	defer w.world.RUnlock()
	bounds := shard.Bounds(w.auxStore.NumUsers(), w.shards)
	n := len(bounds) - 1
	out := make([]ShardSize, n)
	for i := 0; i < n; i++ {
		out[i] = ShardSize{Shard: i, AuxUsers: bounds[i+1] - bounds[i]}
	}
	for _, u := range w.Anon.Users {
		out[shard.RouteName(u.Name, n)].AnonUsers++
	}
	return out
}

// PruneStats reports the cumulative effect of candidate pruning
// (Options.Prune) across every query served by this world. Counters are
// per shard-query: a QueryUser over an N-shard world contributes N to
// Queries. Pruned results are always bit-identical to unpruned ones — the
// counters only describe how much scanning the index saved.
type PruneStats struct {
	// Enabled reports whether the world was prepared with Options.Prune
	// (or the deprecated Options.Approx.Enabled).
	Enabled bool
	// Stats holds the counters, each documented on the embedded type:
	// Queries, Fallbacks, DenseQueries, Candidates, Scanned, Skipped,
	// BandsChecked and BandsSkipped.
	index.Stats
}

// PruneStats snapshots the world's pruning counters; the zero value (with
// Enabled false) when the world was prepared without Options.Prune.
func (w *PreparedWorld) PruneStats() PruneStats {
	if w.pruneStats == nil {
		return PruneStats{}
	}
	return PruneStats{Enabled: true, Stats: w.pruneStats.Snapshot()}
}

// QueryUser returns anonymized user u's top-k auxiliary candidates in
// decreasing similarity order under opt's similarity configuration —
// the single-row serving path: O(|aux|·dim) time, O(k) memory, no
// similarity-matrix allocation, and results identical to the Top-K phase of
// a full Attack. k <= 0 uses opt.K (default 10). Safe for concurrent use.
func (w *PreparedWorld) QueryUser(u, k int, opt Options) ([]Candidate, error) {
	opt = opt.normalized()
	if k <= 0 {
		k = opt.K
	}
	w.world.RLock()
	defer w.world.RUnlock()
	p := w.pipeline(opt.simConfig())
	if u < 0 || u >= p.G1.NumNodes() {
		return nil, fmt.Errorf("dehealth: user %d out of range [0, %d)", u, p.G1.NumNodes())
	}
	return p.QueryUser(u, k), nil
}

// QueryBatch answers one QueryUser per entry of users, amortizing the
// batch over opt.Workers-bounded parallelism. Results align with users.
func (w *PreparedWorld) QueryBatch(users []int, k int, opt Options) ([][]Candidate, error) {
	opt = opt.normalized()
	if k <= 0 {
		k = opt.K
	}
	w.world.RLock()
	defer w.world.RUnlock()
	p := w.pipeline(opt.simConfig())
	for _, u := range users {
		if u < 0 || u >= p.G1.NumNodes() {
			return nil, fmt.Errorf("dehealth: user %d out of range [0, %d)", u, p.G1.NumNodes())
		}
	}
	return p.QueryBatch(users, k, opt.Workers), nil
}

// Ingest appends newly observed anonymous users to the anonymized side of
// the world, incrementally: their posts are vectorized with the fitted
// extractor, the UDA graph gains one node per user plus the co-discussion
// edges their posts imply, and every cached pipeline's similarity caches
// are extended in place — nothing is re-extracted or rebuilt. Returns the
// new user indices, usable with QueryUser immediately. Safe for concurrent
// use with queries and attacks (ingestion takes the write lock).
func (w *PreparedWorld) Ingest(batch []UserPosts) ([]int, error) {
	w.world.Lock()
	defer w.world.Unlock()
	ids, err := w.anonStore.Append(batch)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	for _, p := range w.pipelines {
		p.SyncAppended()
	}
	w.mu.Unlock()
	return ids, nil
}

// IngestUser ingests a single anonymous account by display name; see
// Ingest.
func (w *PreparedWorld) IngestUser(name string, posts []IngestPost) (int, error) {
	ids, err := w.Ingest([]UserPosts{{User: corpus.User{Name: name, TrueIdentity: -1}, Posts: posts}})
	if err != nil {
		return -1, err
	}
	return ids[0], nil
}

// Attack runs the full two-phase De-Health attack: build UDA graphs, select
// Top-K candidate sets, optionally filter, and run refined DA. trueMapping
// (optional, evaluation only) can be supplied via AttackWithTruth. Callers
// running several configurations over the same dataset pair should use
// PrepareWorld to pay the feature-extraction cost once.
func Attack(anon, aux *Dataset, opt Options) (*Result, error) {
	return AttackWithTruth(anon, aux, opt, nil)
}

// AttackWithTruth is Attack plus ground truth for rank bookkeeping; the
// truth never influences the attack itself. It fails as
// PreparedWorld.AttackWithTruth does.
func AttackWithTruth(anon, aux *Dataset, opt Options, trueMapping map[int]int) (*Result, error) {
	// Reject invalid options before paying for feature extraction.
	if _, err := opt.classifierFactory(); err != nil {
		return nil, err
	}
	if _, err := opt.scheme(); err != nil {
		return nil, err
	}
	return PrepareWorld(anon, aux, opt).AttackWithTruth(opt, trueMapping)
}

// ScrubLevel selects how aggressively the style-scrubbing defense rewrites
// posts before release (see internal/anonymize).
type ScrubLevel = anonymize.Level

// Scrub levels, from no-op to aggressive character-class stripping.
const (
	ScrubOff        = anonymize.LevelOff
	ScrubLight      = anonymize.LevelLight
	ScrubStandard   = anonymize.LevelStandard
	ScrubAggressive = anonymize.LevelAggressive
)

// Defend applies the style-scrubbing anonymizer to a dataset before
// release — the defensive counterpart of the attack, addressing the open
// problem the paper's §VII describes.
func Defend(d *Dataset, level ScrubLevel) *Dataset {
	return anonymize.ScrubDataset(d, level)
}

// LinkageResult is the outcome of the §VI linkage attack.
type LinkageResult struct {
	// AvatarLinks and NameLinks are the raw per-technique links.
	AvatarLinks, NameLinks []linkage.Link
	// Dossiers are the aggregated, cross-validated per-victim profiles.
	Dossiers []linkage.Dossier
}

// ServeOptions configures the dehealthd online query service.
type ServeOptions struct {
	// Addr is the listen address (default ":8700"); used by Serve, ignored
	// by NewServer.
	Addr string
	// Workers bounds the fan-out of one /internal/query batch — how many
	// goroutines share the router's group (<= 0 uses all CPUs). A /v1/query
	// is one backend call on its own request goroutine and ignores it.
	Workers int
	// Deprecated: Batch is ignored. Every request is answered on its own
	// goroutine; nothing batches across requests.
	Batch int
	// Deprecated: FlushInterval is ignored, as Batch is.
	FlushInterval time.Duration
	// DrainTimeout bounds how long Close waits for the backend calls in
	// flight before returning serve.ErrDrainTimeout (default 5s); their
	// clients are answered either way.
	DrainTimeout time.Duration
	// K is the candidate-set size of queries that omit k (default 10).
	K int
	// Attack supplies the similarity configuration queries score under;
	// zero values take the paper defaults.
	Attack Options
	// SnapshotPath, when non-empty, enables the POST /v1/snapshot admin
	// endpoint: each request writes the prepared world to this path
	// (atomically, via PreparedWorld.Snapshot) and reports the file size.
	// cmd/dehealthd additionally writes the same path on graceful shutdown.
	SnapshotPath string
}

// Server is the running dehealthd query service (see internal/serve): an
// HTTP API over a prepared world that answers every request on its own
// goroutine under one reader/writer lock — queries shared, so they overlap
// on every core; ingests exclusive, so a query never sees a half-applied
// one — with no queue or batching between a connection and the world.
type Server = serve.Server

// serveBackend adapts a PreparedWorld to the serving layer.
type serveBackend struct {
	w       *PreparedWorld
	opt     Options
	workers int // ServeOptions.Workers: bounds an /internal/query batch's fan-out
}

func (b serveBackend) Ingest(batch []UserPosts) ([]int, error) { return b.w.Ingest(batch) }
func (b serveBackend) QueryUser(u, k int) ([]Candidate, error) {
	return b.w.QueryUser(u, k, b.opt)
}

// QueryBatch routes an /internal/query group through the world's
// batched query path — the multi-query blocked scoring kernel — under the
// serve-level worker bound rather than the attack options' extraction
// worker count.
func (b serveBackend) QueryBatch(users []int, k int) ([][]Candidate, error) {
	opt := b.opt
	opt.Workers = b.workers
	return b.w.QueryBatch(users, k, opt)
}
func (b serveBackend) Sizes() (int, int) { return b.w.Sizes() }
func (b serveBackend) PruneCounters() (serve.PruneCounters, bool) {
	s := b.w.PruneStats()
	return s.Stats, s.Enabled
}

// ShardSlice reports the world's slice identity to the serving layer (see
// serve.SliceInfoer): a world loaded from a per-shard snapshot slice
// advertises its global auxiliary window so the /internal/query reply
// rebases local candidate ids to global ones.
func (b serveBackend) ShardSlice() (serve.ShardSlice, bool) {
	s, ok := b.w.SliceInfo()
	if !ok {
		return serve.ShardSlice{}, false
	}
	return serve.ShardSlice{Shard: s.Shard, Shards: s.Shards, Lo: s.Lo, Hi: s.Hi, AuxTotal: s.AuxTotal}, true
}

func (b serveBackend) ShardSizes() []serve.ShardCount {
	sizes := b.w.ShardSizes()
	out := make([]serve.ShardCount, len(sizes))
	for i, s := range sizes {
		out[i] = serve.ShardCount{Shard: s.Shard, AuxUsers: s.AuxUsers, AnonUsers: s.AnonUsers}
	}
	return out
}

// NewServer builds the query service over a prepared world without binding
// a listener — drive it with (*Server).Serve, ListenAndServe or Handler,
// and stop it with Close.
func NewServer(pw *PreparedWorld, opt ServeOptions) *Server {
	cfg := serve.Config{
		DrainTimeout: opt.DrainTimeout,
		DefaultK:     opt.K,
	}
	if path := opt.SnapshotPath; path != "" {
		cfg.Snapshot = func() (serve.SnapshotInfo, error) {
			start := time.Now()
			if err := pw.Snapshot(path); err != nil {
				return serve.SnapshotInfo{}, err
			}
			info := serve.SnapshotInfo{Path: path, Millis: time.Since(start).Milliseconds()}
			if fi, err := os.Stat(path); err == nil {
				info.Bytes = fi.Size()
			}
			return info, nil
		}
	}
	return serve.New(serveBackend{w: pw, opt: opt.Attack, workers: opt.Workers}, cfg)
}

// Serve runs the dehealthd query service over a prepared world on
// opt.Addr, blocking until the server is closed:
//
//	POST /v1/query   {"user": 17, "k": 10}
//	POST /v1/ingest  {"name": "jdoe", "posts": [{"text": "..."}, {"thread": 3, "text": "..."}]}
//	GET  /v1/stats
//	GET  /healthz
//
// cmd/dehealthd wraps this entry point with flags.
func Serve(pw *PreparedWorld, opt ServeOptions) error {
	addr := opt.Addr
	if addr == "" {
		addr = ":8700"
	}
	return NewServer(pw, opt).ListenAndServe(addr)
}

// Linkage runs NameLink + AvatarLink against an external directory,
// aggregates dossiers and enriches them from the people-search service
// (the full §VI pipeline).
func Linkage(forum *Dataset, dir *linkage.Directory) *LinkageResult {
	model := linkage.NewEntropyModel(2)
	model.Train(dir.Usernames())
	av := linkage.AvatarLink(forum, dir, linkage.DefaultAvatarLinkConfig())
	nm := linkage.NameLink(forum, dir, model, linkage.DefaultNameLinkConfig())
	dossiers := linkage.Aggregate(forum, dir, av, nm)
	linkage.EnrichFromPeopleSearch(dossiers, dir, "whitepages")
	return &LinkageResult{
		AvatarLinks: av,
		NameLinks:   nm,
		Dossiers:    dossiers,
	}
}
