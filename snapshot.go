// Snapshot and warm restart: the conversions between a PreparedWorld and
// the internal/snapshot on-disk format (docs/SNAPSHOT.md). Snapshot
// freezes everything the offline prepare pipeline computed — feature
// matrices, UDA adjacency, scorer caches, per-shard pruning indexes,
// datasets — and LoadWorld rebuilds a PreparedWorld from the file without
// re-running extraction or precomputation. The contract is bit-identity:
// the loaded world answers QueryUser/QueryBatch/Attack byte-for-byte like
// the world that saved it, because every float the scoring kernel reads is
// carried through the file verbatim and only exactly-reproducible integer
// state is re-derived on load.

package dehealth

import (
	"encoding/json"
	"fmt"

	"dehealth/internal/core"
	"dehealth/internal/corpus"
	"dehealth/internal/features"
	"dehealth/internal/graph"
	"dehealth/internal/index"
	"dehealth/internal/shard"
	"dehealth/internal/similarity"
	"dehealth/internal/snapshot"
	"dehealth/internal/stylometry"
)

// Typed snapshot errors, re-exported for errors.Is without importing the
// internal format package.
var (
	// ErrNotSnapshot marks a file that is not a dehealth snapshot at all.
	ErrNotSnapshot = snapshot.ErrNotSnapshot
	// ErrSnapshotVersion marks a snapshot written by an unsupported
	// (typically newer) format version.
	ErrSnapshotVersion = snapshot.ErrVersion
	// ErrSnapshotTruncated marks a snapshot file shorter than its header
	// claims.
	ErrSnapshotTruncated = snapshot.ErrTruncated
	// ErrSnapshotCorrupt marks a structurally invalid snapshot: checksum
	// mismatch, malformed sections, or content that fails validation.
	ErrSnapshotCorrupt = snapshot.ErrCorrupt
	// ErrAlreadySlice marks an attempt to cut per-shard slices from a world
	// that was itself loaded from a slice.
	ErrAlreadySlice = snapshot.ErrAlreadySlice
)

// Snapshot writes the prepared world to path in the versioned snapshot
// format (atomically: temp file + rename), capturing the world under its
// preparation-time configuration — feature matrices, frozen UDA
// adjacency, the scorer's precomputed caches, the per-shard pruning
// indexes when the world was prepared with Options.Prune, and both
// datasets. The write takes the world's read lock, so it excludes
// concurrent ingestion but not queries; a world snapshotted after an
// ingest batch includes the ingested users. LoadWorld restores the file
// to a world answering queries bit-identically.
func (w *PreparedWorld) Snapshot(path string) error {
	w.world.RLock()
	defer w.world.RUnlock()
	sw, err := w.snapshotWorld()
	if err != nil {
		return err
	}
	return snapshot.Save(path, sw)
}

// snapshotWorld builds the typed snapshot content of the world; the caller
// holds the world read lock.
func (w *PreparedWorld) snapshotWorld() (*snapshot.World, error) {
	cfg := w.prepOpt.normalized().simConfig()
	p := w.pipeline(cfg) // materializes scorer caches (and indexes when pruned)

	sw := &snapshot.World{
		Meta: snapshot.Meta{
			Shards:    w.shards,
			Prune:     w.prepOpt.Prune,
			Approx:    w.prepOpt.Approx.Enabled,
			C1:        cfg.C1,
			C2:        cfg.C2,
			C3:        cfg.C3,
			Landmarks: cfg.Landmarks,
			Dim:       w.anonStore.Dim(),
			Bigrams:   w.anonStore.Extractor.Bigrams(),
		},
	}
	if s := w.slice; s != nil {
		// A slice-loaded world stays a slice across snapshot cycles (a
		// shard server's shutdown snapshot must not forget its window).
		sw.Meta.Slice = &snapshot.SliceMeta{Shard: s.Shard, Shards: s.Shards, Lo: s.Lo, Hi: s.Hi, AuxTotal: s.AuxTotal}
	}
	var err error
	if sw.Anon, err = sideParts(w.Anon, w.anonStore, p.G1); err != nil {
		return nil, err
	}
	if sw.Aux, err = sideParts(w.Aux, w.auxStore, p.G2); err != nil {
		return nil, err
	}
	sw.Scorer = p.Scorer.Parts()
	if w.pruneStats != nil {
		var bands int
		var frac float64
		for _, sh := range p.ShardWindows() {
			if sh.Index == nil {
				return nil, fmt.Errorf("dehealth: indexed world shard [%d, %d) has no index to snapshot", sh.Lo, sh.Hi)
			}
			bc := sh.Index.BuildConfig()
			bands, frac = bc.Bands, bc.MaxCandidateFrac
			sw.Indexes = append(sw.Indexes, sh.Index.Parts())
		}
		sw.Meta.PruneBands = bands
		sw.Meta.PruneMaxCandidateFrac = frac
	}
	return sw, nil
}

// SliceInfo identifies the partition a slice-loaded world serves: shard
// Shard of Shards, covering the global auxiliary id range [Lo, Hi) out of
// AuxTotal users. The serving layer uses it to advertise the shard's
// identity and to rebase local candidate ids (+Lo) to global ones.
type SliceInfo struct {
	Shard    int `json:"shard"`
	Shards   int `json:"shards"`
	Lo       int `json:"lo"`
	Hi       int `json:"hi"`
	AuxTotal int `json:"aux_total"`
}

// SliceInfo reports the shard identity of a world loaded from a per-shard
// snapshot slice, and ok=false for an ordinary full world.
func (w *PreparedWorld) SliceInfo() (SliceInfo, bool) {
	if w.slice == nil {
		return SliceInfo{}, false
	}
	return *w.slice, true
}

// SnapshotSlices writes the world as n per-shard snapshot slices, one file
// per prepare-time shard (n = Options.Shards), named
// "<prefix>.slice-<i>-of-<n>.snap". Each slice is a self-contained
// snapshot a shard server boots from with LoadWorld, mapping only its own
// auxiliary partition (plus the shared anonymized side); the loaded
// world's SliceInfo reports the window, and a distributed router
// scatter-gathering over all n slice servers merges their answers
// bit-identically to this world's own fan-out. Slicing a slice-loaded
// world fails with ErrAlreadySlice. Returns the written paths in shard
// order.
func (w *PreparedWorld) SnapshotSlices(prefix string) ([]string, error) {
	w.world.RLock()
	defer w.world.RUnlock()
	if w.slice != nil {
		return nil, fmt.Errorf("dehealth: %w", ErrAlreadySlice)
	}
	sw, err := w.snapshotWorld()
	if err != nil {
		return nil, err
	}
	bounds := shard.Bounds(len(w.Aux.Users), w.shards)
	n := len(bounds) - 1 // Bounds clamps n to the population
	paths := make([]string, 0, n)
	for i := 0; i < n; i++ {
		sl, err := snapshot.SliceForShard(sw, i, bounds)
		if err != nil {
			return nil, err
		}
		path := fmt.Sprintf("%s.slice-%d-of-%d.snap", prefix, i, n)
		if err := snapshot.Save(path, sl); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// sideParts gathers one dataset side's snapshot sections: the dataset
// JSON, the flat feature matrix, the flattened attribute sets, and the
// frozen adjacency in CSR form.
func sideParts(d *Dataset, st *features.Store, g *graph.UDA) (snapshot.Side, error) {
	var s snapshot.Side
	blob, err := json.Marshal(d)
	if err != nil {
		return s, fmt.Errorf("dehealth: encoding dataset %q: %v", d.Name, err)
	}
	s.Dataset = blob
	s.Feat = st.Matrix()
	if s.AttrIdx, s.AttrWeight, s.AttrOff, err = flattenAttrs(st.Attrs()); err != nil {
		return s, err
	}
	s.AdjOff, s.AdjTo, s.AdjWeight = g.AdjacencyParts()
	return s, nil
}

// flattenAttrs packs per-user attribute sets into parallel int32 arrays
// behind a users+1 offset table. Attribute ids are feature indices and
// weights are post counts, so int32 overflow indicates a broken world and
// fails the save.
func flattenAttrs(attrs []stylometry.AttrSet) (idx, weight []int32, off []int, err error) {
	total := 0
	for _, a := range attrs {
		total += len(a.Idx)
	}
	idx = make([]int32, 0, total)
	weight = make([]int32, 0, total)
	off = make([]int, len(attrs)+1)
	for u, a := range attrs {
		for k, i := range a.Idx {
			v := a.Weight[k]
			if int(int32(i)) != i || int(int32(v)) != v {
				return nil, nil, nil, fmt.Errorf("dehealth: attribute (%d, weight %d) of user %d overflows int32", i, v, u)
			}
			idx = append(idx, int32(i))
			weight = append(weight, int32(v))
		}
		off[u+1] = len(idx)
	}
	return idx, weight, off, nil
}

// unflattenAttrs is flattenAttrs' inverse: two backing []int arrays with
// per-user capacity-clamped views. Each set's indices must be strictly
// ascending (the sparse-merge kernels and the max-id derivations rely on
// it) with positive weights.
func unflattenAttrs(idx, weight []int32, off []int) ([]stylometry.AttrSet, error) {
	bi := make([]int, len(idx))
	bw := make([]int, len(weight))
	for k := range idx {
		bi[k] = int(idx[k])
		bw[k] = int(weight[k])
	}
	out := make([]stylometry.AttrSet, len(off)-1)
	for u := range out {
		lo, hi := off[u], off[u+1]
		for k := lo; k < hi; k++ {
			if bi[k] < 0 || (k > lo && bi[k-1] >= bi[k]) {
				return nil, fmt.Errorf("%w: attribute set of user %d not strictly ascending", snapshot.ErrCorrupt, u)
			}
			if bw[k] < 1 {
				return nil, fmt.Errorf("%w: attribute weight %d of user %d", snapshot.ErrCorrupt, bw[k], u)
			}
		}
		out[u] = stylometry.AttrSet{Idx: bi[lo:hi:hi], Weight: bw[lo:hi:hi]}
	}
	return out, nil
}

// LoadOptions configures LoadWorld.
type LoadOptions struct {
	// NoMmap forces the copying load path: every array is decoded into
	// fresh heap memory and nothing in the world aliases the file. The
	// default memory-maps the snapshot and reconstructs the hot arrays as
	// zero-copy views of the mapping where the platform allows.
	NoMmap bool
}

// LoadWorld restores a PreparedWorld from a snapshot written by
// (*PreparedWorld).Snapshot. The restored world answers QueryUser,
// QueryBatch and Attack bit-identically to the world that saved it, at
// the same shard count and pruning configuration; it can keep ingesting
// (growth reallocates — the mapped file is never written). Failures
// return typed errors: ErrNotSnapshot, ErrSnapshotVersion,
// ErrSnapshotTruncated or ErrSnapshotCorrupt, and never a partially
// loaded world.
func LoadWorld(path string, opt LoadOptions) (*PreparedWorld, error) {
	sw, err := snapshot.Load(path, snapshot.Options{NoMmap: opt.NoMmap})
	if err != nil {
		return nil, err
	}
	meta := sw.Meta
	if meta.Shards < 1 {
		return nil, fmt.Errorf("%w: shard count %d", snapshot.ErrCorrupt, meta.Shards)
	}

	ex := stylometry.New()
	if err := ex.SetBigrams(meta.Bigrams); err != nil {
		return nil, fmt.Errorf("%w: %v", snapshot.ErrCorrupt, err)
	}
	if ex.NumFeatures() != meta.Dim {
		return nil, fmt.Errorf("%w: restored extractor has %d features, snapshot matrices use %d", snapshot.ErrCorrupt, ex.NumFeatures(), meta.Dim)
	}

	anonData, anonStore, err := restoreSide(sw.Anon, ex)
	if err != nil {
		return nil, err
	}
	auxData, auxStore, err := restoreSide(sw.Aux, ex)
	if err != nil {
		return nil, err
	}
	g1, g2 := anonStore.UDA(), auxStore.UDA()

	cfg := similarity.Config{C1: meta.C1, C2: meta.C2, C3: meta.C3, Landmarks: meta.Landmarks}
	sc, err := similarity.NewScorerFromParts(g1, g2, cfg, sw.Scorer)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", snapshot.ErrCorrupt, err)
	}

	p := core.NewRestoredPipeline(anonStore, auxStore, sc, meta.Shards)
	var stats *index.Stats
	if meta.Prune || meta.Approx {
		wins := p.ShardWindows()
		if len(sw.Indexes) != len(wins) {
			return nil, fmt.Errorf("%w: %d shard index sections for %d shards", snapshot.ErrCorrupt, len(sw.Indexes), len(wins))
		}
		for i, sh := range wins {
			x, err := index.FromParts(sw.Indexes[i])
			if err != nil {
				return nil, fmt.Errorf("%w: %v", snapshot.ErrCorrupt, err)
			}
			if x.NumUsers() != sh.NumUsers() {
				return nil, fmt.Errorf("%w: shard %d index covers %d users, window has %d", snapshot.ErrCorrupt, i, x.NumUsers(), sh.NumUsers())
			}
			sh.Index = x
			// Format-v1 blobs carry no block metadata (BlockSize 0):
			// rebuild it from the restored scorer window at the default
			// block size, so the next save writes a complete v2 blob.
			sh.EnsureBlocks(0)
		}
		// WithPruning reuses the installed indexes: the configuration's
		// build-relevant part (Bands) matches by construction. A world
		// saved with the retired approximate tier boots pruned.
		icfg := index.Config{Bands: meta.PruneBands, MaxCandidateFrac: meta.PruneMaxCandidateFrac}
		stats = &index.Stats{}
		p = p.Pruned(icfg, stats)
	}

	prepOpt := Options{
		C1: meta.C1, C2: meta.C2, C3: meta.C3,
		Landmarks: meta.Landmarks,
		Shards:    meta.Shards,
		Prune:     meta.Prune,
		Approx:    ApproxConfig{Enabled: meta.Approx},
	}
	var slice *SliceInfo
	if s := meta.Slice; s != nil {
		if meta.Shards != 1 {
			return nil, fmt.Errorf("%w: slice snapshot with shard count %d", snapshot.ErrCorrupt, meta.Shards)
		}
		if s.Lo < 0 || s.Hi < s.Lo || s.Hi > s.AuxTotal || s.Hi-s.Lo != len(auxData.Users) ||
			s.Shard < 0 || s.Shard >= s.Shards {
			return nil, fmt.Errorf("%w: slice window [%d, %d) of %d (shard %d of %d) over %d users",
				snapshot.ErrCorrupt, s.Lo, s.Hi, s.AuxTotal, s.Shard, s.Shards, len(auxData.Users))
		}
		slice = &SliceInfo{Shard: s.Shard, Shards: s.Shards, Lo: s.Lo, Hi: s.Hi, AuxTotal: s.AuxTotal}
	}
	return &PreparedWorld{
		Anon: anonData, Aux: auxData,
		anonStore: anonStore, auxStore: auxStore,
		shards:     meta.Shards,
		prepOpt:    prepOpt,
		pruneStats: stats,
		slice:      slice,
		pipelines:  map[similarity.Config]*core.Pipeline{cfg: p},
	}, nil
}

// restoreSide rebuilds one dataset side: the dataset from its JSON blob,
// the correlation topology from CSR adjacency, the attribute sets, and
// the feature store adopting the snapshot's flat matrix.
func restoreSide(s snapshot.Side, ex *stylometry.Extractor) (*Dataset, *features.Store, error) {
	d := &corpus.Dataset{}
	if err := json.Unmarshal(s.Dataset, d); err != nil {
		return nil, nil, fmt.Errorf("%w: dataset blob: %v", snapshot.ErrCorrupt, err)
	}
	attrs, err := unflattenAttrs(s.AttrIdx, s.AttrWeight, s.AttrOff)
	if err != nil {
		return nil, nil, err
	}
	if len(attrs) != len(d.Users) {
		return nil, nil, fmt.Errorf("%w: %d attribute sets for %d users", snapshot.ErrCorrupt, len(attrs), len(d.Users))
	}
	topo, err := graph.NewFromAdjacency(len(d.Users), s.AdjOff, s.AdjTo, s.AdjWeight)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", snapshot.ErrCorrupt, err)
	}
	st, err := features.FromParts(d, ex, s.Feat, attrs, topo, features.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", snapshot.ErrCorrupt, err)
	}
	return d, st, nil
}

// PreparedOptions returns the preparation-time options in force for this
// world: the ones PrepareWorld received, or the configuration restored
// from the snapshot for a loaded world (attack-phase fields like
// Classifier are zero there and resolve to defaults). Useful as the base
// options when serving a warm-restarted world.
func (w *PreparedWorld) PreparedOptions() Options { return w.prepOpt }
