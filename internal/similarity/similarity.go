// Package similarity computes the structural similarity s_uv of §III-B
// between anonymized and auxiliary users:
//
//	s_uv = c1·s^d_uv + c2·s^s_uv + c3·s^a_uv
//
// where s^d is the degree similarity (degree ratio + weighted degree ratio +
// NCS-vector cosine), s^s is the landmark distance similarity (cosine of the
// distance vectors to the top-degree landmark users), and s^a is the
// attribute similarity (Jaccard + weighted Jaccard of the UDA attribute
// sets).
//
// The scoring hot path is a flat kernel (see kernel.go): all per-node
// vectors live in contiguous row-major matrices with their L2 norms
// precomputed, a query prepares its anonymized-side state once
// (PrepareQuery), and per-pair work reduces to dot products and one fused
// attribute merge over dense precomputed state — bit-identical to the
// retained naive reference (ScoreSlow), per the parity contract in
// docs/ARCHITECTURE.md.
package similarity

import (
	"fmt"
	"math"

	"dehealth/internal/graph"
	"dehealth/internal/stylometry"
)

// Config carries the similarity weights and landmark count. The paper's
// default setting is c1 = c2 = 0.05, c3 = 0.9 and ħ = 50 landmarks for the
// full datasets (ħ = 5 for the small refined-DA datasets).
type Config struct {
	C1, C2, C3 float64
	// Landmarks is ħ, the number of top-degree landmark users per side.
	Landmarks int
}

// DefaultConfig returns the paper's default parameters.
func DefaultConfig() Config {
	return Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 50}
}

// Scorer computes similarities between users of an anonymized UDA graph G1
// and an auxiliary UDA graph G2. Construction precomputes NCS vectors and
// landmark closeness vectors for both sides in flat row-major layouts with
// per-node norms; the auxiliary side's degree, weighted-degree and
// attribute reads are additionally frozen into dense arrays (the aux world
// is immutable — only the anonymized side grows), so the scoring hot loop
// touches precomputed contiguous state only.
//
// A Scorer can be windowed: Shard restricts the auxiliary side to a
// contiguous global-id range whose caches are slice views of the base
// scorer's flat arrays, scoring bit-identically to the base on that range.
// The shard engine builds one window per partition so each shard walks its
// own contiguous cache region.
type Scorer struct {
	cfg    Config
	g1, g2 *graph.UDA
	c      *scorerCaches
	ax     *auxWindow
	window bool // true when this scorer is a Shard view of a base scorer
}

// scorerCaches holds the precomputed anonymized-side per-node vectors in
// flat layouts. The struct is shared by pointer across every scorer derived
// with Reweighted or Shard at the same landmark count, so extending it for
// appended nodes (SyncAnon) updates the whole family of scorers — including
// every shard window — at once.
type scorerCaches struct {
	landmarks1 []int // anon-side landmark nodes, pinned at construction
	hbar1      int   // len(landmarks1): row stride of close1/wcl1

	// hop1[li] and wd1[li] hold landmark li's BFS hop count (-1 when
	// unreachable) and weighted distance (+Inf when unreachable) to every
	// node: the state SyncAnon repairs, ħ × |V1| × 12 B.
	hop1 [][]int32
	wd1  [][]float64
	// owned is true when every array here is heap memory these caches built
	// and hop1/wd1 match the closeness rows. Caches adopted from Parts (the
	// arrays may be views of a read-only mapping) start false, and their
	// first SyncAnon rebuilds them.
	owned bool

	// NCS vectors are ragged (one entry per incident edge); they live in
	// one flat array indexed by per-node offsets: node u's vector is
	// ncs1[ncsOff1[u]:ncsOff1[u+1]].
	ncs1     []float64
	ncsOff1  []int
	ncsNorm1 []float64 // precomputed sqrt(Σx²), one per node

	// Hop- and weighted-closeness vectors are fixed-width (ħ dims), stored
	// row-major: node u's row is close1[u*hbar1 : (u+1)*hbar1].
	close1, wcl1         []float64
	closeNorm1, wclNorm1 []float64
}

// numAnon returns the number of anonymized nodes the caches cover.
func (c *scorerCaches) numAnon() int { return len(c.ncsNorm1) }

func (c *scorerCaches) ncsVec(u int) []float64 {
	return c.ncs1[c.ncsOff1[u]:c.ncsOff1[u+1]]
}
func (c *scorerCaches) closeVec(u int) []float64 {
	return c.close1[u*c.hbar1 : (u+1)*c.hbar1]
}
func (c *scorerCaches) wclVec(u int) []float64 {
	return c.wcl1[u*c.hbar1 : (u+1)*c.hbar1]
}

// auxWindow is the auxiliary-side scoring state: per-node degree,
// weighted degree, attribute set (plus its precomputed total weight), NCS
// and landmark-closeness vectors in the same flat layouts as the anonymized
// caches, frozen at construction from the full auxiliary graph (global
// landmarks, global degrees). A base scorer holds the full window; shard
// scorers hold contiguous slice views of the same arrays — the NCS flat
// array is shared whole, with the window's offset slice still holding
// absolute positions into it — so the values a shard scores against are
// exactly the global ones: the property the sharded/unsharded parity
// guarantee rests on.
type auxWindow struct {
	deg, wdeg []float64
	attrs     []stylometry.AttrSet
	attrTotW  []int // attrTotW[v] = attrs[v].TotalWeight()
	// attrW is 1 + the maximum attribute id across the FULL auxiliary side
	// (not just this window): the width of the batched kernel's dense
	// per-query weight tables. Sized globally so every window's lookups are
	// in-bounds by construction; the aux side is immutable, so the bound
	// never goes stale. Query-side attributes at or beyond attrW cannot
	// appear in any auxiliary set and are simply never tabulated.
	attrW int
	// attrBits holds one presence bitset per auxiliary user over the id
	// space [0, attrW), row-major with stride bitW = ⌈attrW/64⌉ words: the
	// batched kernel's pair bound reads |A∩B| off it by AND+popcount before
	// deciding whether a row is worth its merge (see attrSimBound). One bit
	// per id, never folded — a hashed or wrapped set would undercount
	// colliding ids and stop bounding. Derived state, rebuilt from the
	// attribute sets by both constructors (freezeAttrs) and never
	// serialized. Built only when the bitsets take no more words than the
	// attribute lists they shadow (bitW <= mean |attrs[v]|); otherwise bitW
	// is 0, attrBits nil, and the kernel scores every row. The rule is a
	// memory bound, not a tuned crossover: on the benchmark's SparseAttrUDA
	// world (256 words against 8 attributes) building them anyway took
	// sparse_walk from 175 to 755 MB peak RSS. The repo's two regimes sit
	// far apart (16 words against ~190 attributes on forum text) and the
	// scan's cost on either side of a ratio near 1 has not been measured.
	attrBits []uint64
	bitW     int

	hbar2   int       // aux-side landmark count: row stride of close/wcl
	ncs     []float64 // full flat NCS array (shared whole across windows)
	ncsOff  []int     // window slice, absolute offsets into ncs
	ncsNorm []float64

	close, wcl         []float64 // window slices, stride hbar2
	closeNorm, wclNorm []float64
}

func (ax *auxWindow) ncsVec(v int) []float64 {
	return ax.ncs[ax.ncsOff[v]:ax.ncsOff[v+1]]
}
func (ax *auxWindow) closeVec(v int) []float64 {
	return ax.close[v*ax.hbar2 : (v+1)*ax.hbar2]
}
func (ax *auxWindow) wclVec(v int) []float64 {
	return ax.wcl[v*ax.hbar2 : (v+1)*ax.hbar2]
}

// NewScorer builds a Scorer over the two UDA graphs.
func NewScorer(g1, g2 *graph.UDA, cfg Config) *Scorer {
	c := newAnonCaches(g1, g1.TopDegreeNodes(cfg.Landmarks))

	n2 := g2.NumNodes()
	landmarks2 := g2.TopDegreeNodes(cfg.Landmarks)
	ax := &auxWindow{
		deg:   make([]float64, n2),
		wdeg:  make([]float64, n2),
		hbar2: len(landmarks2),
	}
	for v := 0; v < n2; v++ {
		ax.deg[v] = float64(g2.Degree(v))
		ax.wdeg[v] = g2.WeightedDegree(v)
	}
	ax.freezeAttrs(g2.Attrs)
	ax.ncs, ax.ncsOff, ax.ncsNorm = flattenRagged(cacheNCS(g2))
	hop2, wd2 := landmarkDistances(g2, landmarks2)
	ax.close, ax.closeNorm, ax.wcl, ax.wclNorm = closenessRows(hop2, wd2, n2)
	return &Scorer{cfg: cfg, g1: g1, g2: g2, c: c, ax: ax}
}

// freezeAttrs derives the window's attribute state from the full auxiliary
// side's sets: the per-user total weights, the id-space width, and — when
// the rule on auxWindow.attrBits admits them — the presence bitsets. All of
// it is exact integer work, shared by NewScorer and NewScorerFromParts so a
// restored scorer filters exactly as a freshly built one.
func (ax *auxWindow) freezeAttrs(attrs []stylometry.AttrSet) {
	ax.attrs = attrs
	ax.attrTotW = make([]int, len(attrs))
	total := 0
	for v, a := range attrs {
		ax.attrTotW[v] = a.TotalWeight()
		total += a.Len()
		if n := a.Len(); n > 0 && int(a.Idx[n-1])+1 > ax.attrW {
			ax.attrW = int(a.Idx[n-1]) + 1 // Idx is sorted: the last entry is the max
		}
	}
	w := (ax.attrW + 63) / 64
	if w == 0 || w*len(attrs) > total {
		return
	}
	ax.bitW = w
	ax.attrBits = make([]uint64, w*len(attrs))
	for v, a := range attrs {
		setBits(ax.attrBits[v*w:(v+1)*w], a.Idx)
	}
}

// setBits sets bit id of bits for every id it spans; ids beyond it (a
// query attribute no auxiliary user carries) cannot intersect and are left
// out, exactly as PrepareBatch leaves them out of the weight table.
func setBits(bits []uint64, ids []int32) {
	for _, id := range ids {
		if w := uint(id) >> 6; w < uint(len(bits)) {
			bits[w] |= 1 << (uint(id) & 63)
		}
	}
}

// Reweighted returns a scorer over the same graphs under a new Config. When
// the landmark count is unchanged the precomputed NCS and landmark-closeness
// caches are shared by pointer (the returned scorer only re-weights the
// three components at Score time); otherwise the landmark vectors are
// recomputed. A shard window cannot change its landmark count — its caches
// are views of the base scorer's — so reweight the base and re-shard
// instead; Reweighted panics on that misuse rather than silently returning
// a scorer over the whole auxiliary side.
func (s *Scorer) Reweighted(cfg Config) *Scorer {
	if cfg.Landmarks == s.cfg.Landmarks {
		t := *s
		t.cfg = cfg
		return &t
	}
	if s.window {
		panic("similarity: Reweighted with a new landmark count on a shard window; reweight the base scorer and re-shard")
	}
	return NewScorer(s.g1, s.g2, cfg)
}

// Shard returns a scorer restricted to the auxiliary window [lo, hi):
// local index j of the returned scorer addresses global auxiliary user
// lo+j, and Score(u, j) is bit-identical to s.Score(u, lo+j) — every
// aux-side cache of the window is a slice view of the base scorer's flat
// arrays (the ragged NCS flat array is shared whole; the window's offsets
// stay absolute), so no similarity component is recomputed from partial
// topology. The anonymized side is shared by pointer, so SyncAnon through
// any family member extends every window. Shard must be called on a base
// (unwindowed) scorer.
func (s *Scorer) Shard(lo, hi int) *Scorer {
	if s.window {
		panic("similarity: Shard of a shard window; shard the base scorer")
	}
	if lo < 0 || hi > len(s.ax.deg) || lo > hi {
		panic(fmt.Sprintf("similarity: Shard [%d, %d) out of [0, %d)", lo, hi, len(s.ax.deg)))
	}
	t := *s
	t.window = true
	h := s.ax.hbar2
	t.ax = &auxWindow{
		deg:       s.ax.deg[lo:hi:hi],
		wdeg:      s.ax.wdeg[lo:hi:hi],
		attrs:     s.ax.attrs[lo:hi:hi],
		attrTotW:  s.ax.attrTotW[lo:hi:hi],
		attrW:     s.ax.attrW,
		attrBits:  s.ax.attrBits[lo*s.ax.bitW : hi*s.ax.bitW : hi*s.ax.bitW],
		bitW:      s.ax.bitW,
		hbar2:     h,
		ncs:       s.ax.ncs,
		ncsOff:    s.ax.ncsOff[lo : hi+1 : hi+1],
		ncsNorm:   s.ax.ncsNorm[lo:hi:hi],
		close:     s.ax.close[lo*h : hi*h : hi*h],
		closeNorm: s.ax.closeNorm[lo:hi:hi],
		wcl:       s.ax.wcl[lo*h : hi*h : hi*h],
		wclNorm:   s.ax.wclNorm[lo:hi:hi],
	}
	return &t
}

// AuxUsers returns the number of auxiliary users the scorer scores
// against: the full population for a base scorer, the window size for a
// shard window.
func (s *Scorer) AuxUsers() int { return len(s.ax.deg) }

func cacheNCS(g *graph.UDA) [][]float64 {
	out := make([][]float64, g.NumNodes())
	for u := 0; u < g.NumNodes(); u++ {
		out[u] = g.NCS(u)
	}
	return out
}

// flattenRagged packs variable-length per-node vectors into one flat array
// with n+1 offsets and precomputed per-node L2 norms.
func flattenRagged(rows [][]float64) (flat []float64, off []int, norm []float64) {
	total := 0
	for _, r := range rows {
		total += len(r)
	}
	flat = make([]float64, 0, total)
	off = make([]int, len(rows)+1)
	norm = make([]float64, len(rows))
	for u, r := range rows {
		flat = append(flat, r...)
		off[u+1] = len(flat)
		norm[u] = l2norm(r)
	}
	return flat, off, norm
}

// l2norm returns sqrt(Σx²), accumulated in index order — exactly how
// Cosine computes its norm factors, so precomputed norms are bit-identical
// to recomputed ones.
func l2norm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Cosine returns the cosine similarity of a and b; the shorter vector is
// zero-padded (§III-B). Returns 0 when either vector is all-zero.
func Cosine(a, b []float64) float64 {
	var dot, na, nb float64
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		dot += a[i] * b[i]
	}
	for _, x := range a {
		na += x * x
	}
	for _, x := range b {
		nb += x * x
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

func ratioSim(a, b float64) float64 {
	if a == b {
		return 1 // identical local structure, including both isolated (a = b = 0)
	}
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi == 0 {
		return 1
	}
	return lo / hi
}

// Score computes the combined structural similarity s_uv. Per-pair callers
// get the gather kernel through a throwaway profile; callers scoring many
// v for one u should PrepareQuery once and use ScoreWith.
func (s *Scorer) Score(u, v int) float64 {
	var p QueryProfile
	s.PrepareQuery(u, &p)
	return s.ScoreWith(&p, v)
}

// StructuralVector returns a fixed-length numeric summary of a user's
// structural features, used to augment the stylometric vectors fed to the
// refined-DA classifier: [degree, weighted degree, max NCS entry, mean NCS
// entry, |A(u)|, total attribute weight] followed by the ħ hop-closeness
// entries. side selects the graph: 1 = anonymized, 2 = auxiliary.
func (s *Scorer) StructuralVector(side, u int) []float64 {
	var (
		deg, wdeg float64
		attrs     stylometry.AttrSet
		ncs, cl   []float64
	)
	if side == 2 {
		deg, wdeg = s.ax.deg[u], s.ax.wdeg[u]
		attrs = s.ax.attrs[u]
		ncs, cl = s.ax.ncsVec(u), s.ax.closeVec(u)
	} else {
		deg, wdeg = float64(s.g1.Degree(u)), s.g1.WeightedDegree(u)
		attrs = s.g1.Attrs[u]
		ncs, cl = s.c.ncsVec(u), s.c.closeVec(u)
	}
	var maxN, sumN float64
	for _, x := range ncs {
		if x > maxN {
			maxN = x
		}
		sumN += x
	}
	meanN := 0.0
	if len(ncs) > 0 {
		meanN = sumN / float64(len(ncs))
	}
	out := []float64{
		deg,
		wdeg,
		maxN,
		meanN,
		float64(attrs.Len()),
		float64(attrs.TotalWeight()),
	}
	out = append(out, cl...)
	return out
}
