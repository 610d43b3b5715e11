// Snapshot and warm restart: the conversions between a PreparedWorld and
// the internal/snapshot on-disk format (docs/SNAPSHOT.md). Snapshot
// freezes everything the offline prepare pipeline computed — feature
// matrices, UDA adjacency, scorer caches, datasets — and LoadWorld
// rebuilds a PreparedWorld from the file without re-running extraction or
// precomputation. The contract is bit-identity:
// the loaded world answers QueryBatch/Attack byte-for-byte like
// the world that saved it, because every float the scoring kernel reads is
// carried through the file verbatim and only exactly-reproducible integer
// state is re-derived on load.

package dehealth

import (
	"fmt"

	"dehealth/internal/core"
	"dehealth/internal/features"
	"dehealth/internal/graph"
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
// adjacency, the scorer's precomputed caches and both datasets. The write
// takes the world's read lock, so it excludes concurrent ingestion but not
// queries; a world snapshotted after an
// ingest batch includes the ingested users. LoadWorld restores the file
// to a world answering queries bit-identically.
func (w *PreparedWorld) Snapshot(path string) error {
	w.world.RLock()
	defer w.world.RUnlock()
	return snapshot.Save(path, w.snapshotWorld())
}

// snapshotWorld builds the typed snapshot content of the world; the caller
// holds the world read lock.
func (w *PreparedWorld) snapshotWorld() *snapshot.World {
	cfg := w.prepOpt.normalized().simConfig()
	p := w.pipeline(cfg) // materializes the scorer caches

	sw := &snapshot.World{
		Meta: snapshot.Meta{
			Shards:    w.shards,
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
	sw.Anon = sideParts(w.Anon, w.anonStore, p.G1)
	sw.Aux = sideParts(w.Aux, w.auxStore, p.G2)
	sw.Scorer = p.Scorer.Parts()
	return sw
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
	sw := w.snapshotWorld()
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

// sideParts gathers one dataset side's snapshot sections: the dataset,
// the store's feature rows (views, not a copy), the flattened attribute
// sets, and the frozen adjacency in CSR form.
func sideParts(d *Dataset, st *features.Store, g *graph.UDA) snapshot.Side {
	s := snapshot.Side{Dataset: d, Feat: st.Rows()}
	s.AttrIdx, s.AttrWeight, s.AttrOff = flattenAttrs(st.Attrs())
	s.AdjOff, s.AdjTo, s.AdjWeight = g.AdjacencyParts()
	return s
}

// flattenAttrs packs per-user attribute sets into parallel int32 arrays
// behind a users+1 offset table.
func flattenAttrs(attrs []stylometry.AttrSet) (idx, weight []int32, off []int) {
	total := 0
	for _, a := range attrs {
		total += len(a.Idx)
	}
	idx = make([]int32, 0, total)
	weight = make([]int32, 0, total)
	off = make([]int, len(attrs)+1)
	for u, a := range attrs {
		idx = append(idx, a.Idx...)
		weight = append(weight, a.Weight...)
		off[u+1] = len(idx)
	}
	return idx, weight, off
}

// unflattenAttrs is flattenAttrs' inverse: per-user views of the decoded
// sections — of the file's own pages on a mapped load — clamped to their
// length, so an append reallocates instead of writing through. Each set's
// ids must be strictly ascending and non-negative (the sparse-merge
// kernels and the max-id derivations rely on it) with positive weights.
func unflattenAttrs(idx, weight []int32, off []int) ([]stylometry.AttrSet, error) {
	out := make([]stylometry.AttrSet, len(off)-1)
	for u := range out {
		lo, hi := off[u], off[u+1]
		for k := lo; k < hi; k++ {
			if idx[k] < 0 || (k > lo && idx[k-1] >= idx[k]) {
				return nil, fmt.Errorf("%w: attribute set of user %d not strictly ascending", snapshot.ErrCorrupt, u)
			}
			if weight[k] < 1 {
				return nil, fmt.Errorf("%w: attribute weight %d of user %d", snapshot.ErrCorrupt, weight[k], u)
			}
		}
		out[u] = stylometry.AttrSet{Idx: idx[lo:hi:hi], Weight: weight[lo:hi:hi]}
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
// (*PreparedWorld).Snapshot. The restored world answers QueryBatch and
// Attack bit-identically to the world that saved it, at the same shard
// count; it can keep ingesting (growth reallocates — the mapped file is
// never written). Files written with pruning on, by older
// versions, carry per-shard index sections: they are validated, then
// ignored, and the restored world runs the exact scan. Failures return
// typed errors: ErrNotSnapshot, ErrSnapshotVersion, ErrSnapshotTruncated
// or ErrSnapshotCorrupt, and never a partially loaded world.
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
	prepOpt := Options{
		C1: meta.C1, C2: meta.C2, C3: meta.C3,
		Landmarks: meta.Landmarks,
		Shards:    meta.Shards,
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
		shards:    meta.Shards,
		prepOpt:   prepOpt,
		slice:     slice,
		pipelines: map[similarity.Config]*core.Pipeline{cfg: p},
	}, nil
}

// restoreSide rebuilds one dataset side: the correlation topology from
// CSR adjacency, the attribute sets, and the feature store adopting the
// snapshot's dataset and feature rows.
func restoreSide(s snapshot.Side, ex *stylometry.Extractor) (*Dataset, *features.Store, error) {
	d := s.Dataset
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
