// The World container: the typed contents of a snapshot and their mapping
// onto sections. The mapping is one table (World.layout) that Save and
// Load both walk, so the section list exists once. This file knows the
// byte layout of each element type and validates structure (presence,
// lengths, monotone offsets); semantic assembly (rebuilding stores,
// scorers, pipelines) lives with the packages that own those types, and
// the scorer and index state is stored as those packages' own Parts.

package snapshot

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"dehealth/internal/index"
	"dehealth/internal/similarity"
)

// Section ids. Values are part of the on-disk format: never renumber,
// only append. Repeated ids are only legal for secShardIndex (one section
// per shard, in shard order).
const (
	secMeta uint32 = 1

	secAnonDataset uint32 = 10
	secAnonFeat    uint32 = 11
	secAnonAttrIdx uint32 = 12
	secAnonAttrWt  uint32 = 13
	secAnonAttrOff uint32 = 14
	secAnonAdjOff  uint32 = 15
	secAnonAdjTo   uint32 = 16
	secAnonAdjWt   uint32 = 17

	secAuxDataset uint32 = 20
	secAuxFeat    uint32 = 21
	secAuxAttrIdx uint32 = 22
	secAuxAttrWt  uint32 = 23
	secAuxAttrOff uint32 = 24
	secAuxAdjOff  uint32 = 25
	secAuxAdjTo   uint32 = 26
	secAuxAdjWt   uint32 = 27

	secLandmarks   uint32 = 30
	secNCS         uint32 = 31
	secNCSOff      uint32 = 32
	secNCSNorm     uint32 = 33
	secClose       uint32 = 34
	secCloseNorm   uint32 = 35
	secWcl         uint32 = 36
	secWclNorm     uint32 = 37
	secAuxDeg      uint32 = 40
	secAuxWdeg     uint32 = 41
	secAuxNCS      uint32 = 42
	secAuxNCSOff   uint32 = 43
	secAuxNCSNorm  uint32 = 44
	secAuxClose    uint32 = 45
	secAuxCloseNrm uint32 = 46
	secAuxWcl      uint32 = 47
	secAuxWclNorm  uint32 = 48

	secShardIndex uint32 = 50
)

// SliceMeta identifies a snapshot that carries one shard's slice of a
// larger world: shard Shard of Shards, covering the global auxiliary id
// range [Lo, Hi) out of AuxTotal users. A shard server booting from the
// slice maps only its own partition; the distributed router uses the
// identity to validate that the server behind a URL really serves the
// shard it is configured for, and Lo is the offset that rebases the
// slice's local candidate ids back to global ones.
type SliceMeta struct {
	// Shard and Shards place this slice in the partition: slice Shard of
	// Shards, numbered in global id order.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// Lo and Hi bound the slice's global auxiliary id range [Lo, Hi).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// AuxTotal is the full world's auxiliary population (the sum of every
	// slice's window).
	AuxTotal int `json:"aux_total"`
}

// Meta is the snapshot's small JSON-encoded configuration document: the
// values that pin how the numeric sections must be reassembled.
type Meta struct {
	// Shards is the auxiliary partition count the world was prepared with.
	Shards int `json:"shards"`
	// Slice, when non-nil, marks this snapshot as one shard's slice of a
	// larger world (see SliceForShard). A slice always has Shards == 1:
	// the shard process runs its window as a single in-process partition.
	// A JSON field addition: older full-world files load with Slice nil,
	// no format version bump.
	Slice *SliceMeta `json:"slice,omitempty"`
	// Prune records whether the world ran candidate-pruned queries; when
	// true the file carries Shards secShardIndex sections and the two
	// Prune* fields echo the indexes' resolved build configuration.
	Prune                 bool    `json:"prune"`
	PruneBands            int     `json:"prune_bands,omitempty"`
	PruneMaxCandidateFrac float64 `json:"prune_max_candidate_frac,omitempty"`
	// Approx records whether the world had the approximate retrieval tier
	// enabled; it reuses the secShardIndex sections (and the Prune* build
	// configuration fields) so an approx-only world still carries its
	// shard indexes. A JSON field addition: older files simply load with
	// the tier off, no format version bump.
	Approx bool `json:"approx,omitempty"`
	// C1, C2, C3 and Landmarks pin the similarity configuration the saved
	// scorer caches were computed under.
	C1        float64 `json:"c1"`
	C2        float64 `json:"c2"`
	C3        float64 `json:"c3"`
	Landmarks int     `json:"landmarks"`
	// Dim is the feature-space width the flat matrices were extracted at;
	// loading validates it against the restored extractor.
	Dim int `json:"dim"`
	// Bigrams is the fitted POS-bigram block (pairs of postag.Tags
	// indices, feature order) — the extractor's only data-driven state.
	Bigrams [][2]int `json:"bigrams"`
}

// Side is one dataset side of the world: the corpus (JSON), its flat
// post-major feature matrix, the per-user attribute sets in flattened
// sparse form (Idx/Weight split, AttrOff has users+1 entries), and the
// frozen UDA adjacency in CSR form (AdjOff has users+1 entries; AdjTo and
// AdjWeight are sorted per user).
type Side struct {
	Dataset    []byte
	Feat       []float64
	AttrIdx    []int32
	AttrWeight []int32
	AttrOff    []int
	AdjOff     []int
	AdjTo      []int32
	AdjWeight  []float64
}

// World is the full typed content of a snapshot file. The scorer caches
// and the shard indexes are the engines' own flattened types: the file
// stores exactly what similarity.Scorer.Parts and index.Index.Parts hand
// out, and hands back exactly what NewScorerFromParts and index.FromParts
// take.
type World struct {
	Meta   Meta
	Anon   Side
	Aux    Side
	Scorer similarity.Parts
	// Indexes holds one index per shard, in shard order; empty unless the
	// world ran candidate-pruned or approximate queries.
	Indexes []index.Parts
	// Mapped reports (after Load) whether the numeric slices alias a
	// read-only memory mapping of the file.
	Mapped bool
}

// field is one row of the section layout: a section id and the World
// field it holds. ptr is a *[]float64, *[]int (stored as i64), *[]int32,
// *[]byte (stored verbatim), *Meta (stored as JSON) or *[]index.Parts
// (one shard index section per shard, see encodeIndex).
type field struct {
	id  uint32
	ptr any
}

// layout is the snapshot's section table, in file order — the one place
// the format's sections are listed. Save encodes along it and Load
// decodes along it. Scorer.Hbar2 has no section: Load derives it from the
// aux closeness matrix.
func (w *World) layout() []field {
	a, x, sc := &w.Anon, &w.Aux, &w.Scorer
	return []field{
		// Fixed-width numeric sections first, in id order per group.
		{secAnonFeat, &a.Feat},
		{secAnonAttrIdx, &a.AttrIdx},
		{secAnonAttrWt, &a.AttrWeight},
		{secAnonAttrOff, &a.AttrOff},
		{secAnonAdjOff, &a.AdjOff},
		{secAnonAdjTo, &a.AdjTo},
		{secAnonAdjWt, &a.AdjWeight},
		{secAuxFeat, &x.Feat},
		{secAuxAttrIdx, &x.AttrIdx},
		{secAuxAttrWt, &x.AttrWeight},
		{secAuxAttrOff, &x.AttrOff},
		{secAuxAdjOff, &x.AdjOff},
		{secAuxAdjTo, &x.AdjTo},
		{secAuxAdjWt, &x.AdjWeight},
		{secLandmarks, &sc.Landmarks},
		{secNCS, &sc.NCS},
		{secNCSOff, &sc.NCSOff},
		{secNCSNorm, &sc.NCSNorm},
		{secClose, &sc.Close},
		{secCloseNorm, &sc.CloseNorm},
		{secWcl, &sc.Wcl},
		{secWclNorm, &sc.WclNorm},
		{secAuxDeg, &sc.AuxDeg},
		{secAuxWdeg, &sc.AuxWdeg},
		{secAuxNCS, &sc.AuxNCS},
		{secAuxNCSOff, &sc.AuxNCSOff},
		{secAuxNCSNorm, &sc.AuxNCSNorm},
		{secAuxClose, &sc.AuxClose},
		{secAuxCloseNrm, &sc.AuxCloseNorm},
		{secAuxWcl, &sc.AuxWcl},
		{secAuxWclNorm, &sc.AuxWclNorm},
		{secShardIndex, &w.Indexes},
		// Variable-length string tables at the tail: the meta document and
		// the two dataset JSON blobs (user names, thread boards, post texts).
		{secMeta, &w.Meta},
		{secAnonDataset, &a.Dataset},
		{secAuxDataset, &x.Dataset},
	}
}

// Save writes w to path atomically in format Version.
func Save(path string, w *World) error {
	var secs []rawSection
	for _, fl := range w.layout() {
		var data []byte
		switch p := fl.ptr.(type) {
		case *[]float64:
			data = f64Bytes(*p)
		case *[]int:
			data = i64BytesFromInts(*p)
		case *[]int32:
			data = i32Bytes(*p)
		case *[]byte:
			data = *p
		case *Meta:
			var err error
			if data, err = json.Marshal(p); err != nil {
				return fmt.Errorf("snapshot: encoding meta: %v", err)
			}
		case *[]index.Parts:
			for i := range *p {
				secs = append(secs, rawSection{fl.id, encodeIndex(&(*p)[i])})
			}
			continue
		default:
			panic(fmt.Sprintf("snapshot: section %d has unhandled type %T", fl.id, fl.ptr))
		}
		secs = append(secs, rawSection{fl.id, data})
	}
	return writeRaw(path, secs)
}

// Load reads, validates and decodes the snapshot at path. On success every
// slice of the returned World is fully structurally validated; on any
// failure the error matches one of the typed errors and no World is
// returned.
func Load(path string, opt Options) (*World, error) {
	f, err := readRaw(path, opt.NoMmap)
	if err != nil {
		return nil, err
	}
	w := &World{Mapped: f.zeroCopy}
	for _, fl := range w.layout() {
		if err := f.decode(fl); err != nil {
			return nil, err
		}
	}
	for _, s := range []*Side{&w.Anon, &w.Aux} {
		if err := s.validate(); err != nil {
			return nil, err
		}
	}
	if err := validateScorer(&w.Scorer); err != nil {
		return nil, err
	}
	if (w.Meta.Prune || w.Meta.Approx) && len(w.Indexes) == 0 {
		return nil, fmt.Errorf("%w: pruned/approx snapshot carries no shard index sections", ErrCorrupt)
	}
	// The exact section count is validated against the reconstructed shard
	// partition by the assembling layer — Meta.Shards is the requested
	// count, which the partitioner clamps to the auxiliary population.
	return w, nil
}

// decode fills one layout row from the file: the single section with the
// row's id, or every repeated section in file order. Numeric sections
// alias the mapping when the file allows it.
func (f *rawFile) decode(fl field) error {
	if p, ok := fl.ptr.(*[]index.Parts); ok {
		for _, blob := range f.sections(fl.id) {
			ip, err := decodeIndex(blob, f.version)
			if err != nil {
				return err
			}
			*p = append(*p, ip)
		}
		return nil
	}
	b, err := f.section(fl.id)
	if err != nil {
		return err
	}
	switch p := fl.ptr.(type) {
	case *[]float64:
		*p, err = decodeF64(b, f.zeroCopy)
	case *[]int:
		*p, err = decodeInts(b, f.zeroCopy)
	case *[]int32:
		*p, err = decodeI32(b, f.zeroCopy)
	case *[]byte:
		*p = b
	case *Meta:
		if err = json.Unmarshal(b, p); err != nil {
			err = fmt.Errorf("%w: meta section: %v", ErrCorrupt, err)
		}
	default:
		panic(fmt.Sprintf("snapshot: section %d has unhandled type %T", fl.id, fl.ptr))
	}
	return err
}

// validate checks one decoded side's flat layout: parallel arrays of equal
// length, monotone offset tables spanning them, and attribute and
// adjacency tables covering the same users.
func (s *Side) validate() error {
	if len(s.AttrIdx) != len(s.AttrWeight) {
		return fmt.Errorf("%w: attribute idx/weight length mismatch (%d vs %d)", ErrCorrupt, len(s.AttrIdx), len(s.AttrWeight))
	}
	if err := checkOffsets(s.AttrOff, len(s.AttrIdx), "attr"); err != nil {
		return err
	}
	if len(s.AdjTo) != len(s.AdjWeight) {
		return fmt.Errorf("%w: adjacency to/weight length mismatch (%d vs %d)", ErrCorrupt, len(s.AdjTo), len(s.AdjWeight))
	}
	if err := checkOffsets(s.AdjOff, len(s.AdjTo), "adjacency"); err != nil {
		return err
	}
	if len(s.AttrOff) != len(s.AdjOff) {
		return fmt.Errorf("%w: attr table covers %d users, adjacency %d", ErrCorrupt, len(s.AttrOff)-1, len(s.AdjOff)-1)
	}
	return nil
}

// validateScorer checks the decoded scorer caches' flat layout invariants
// (offset monotonicity, matching row counts, stride divisibility) and
// derives sc.Hbar2, the aux closeness stride, from the matrix shape.
func validateScorer(sc *similarity.Parts) error {
	if err := checkOffsets(sc.NCSOff, len(sc.NCS), "anon NCS"); err != nil {
		return err
	}
	if err := checkOffsets(sc.AuxNCSOff, len(sc.AuxNCS), "aux NCS"); err != nil {
		return err
	}
	n2 := len(sc.AuxDeg)
	if len(sc.AuxNCSOff) != n2+1 {
		return fmt.Errorf("%w: aux NCS offsets cover %d users, window has %d", ErrCorrupt, len(sc.AuxNCSOff)-1, n2)
	}
	if n2 > 0 {
		if len(sc.AuxClose)%n2 != 0 || len(sc.AuxWcl) != len(sc.AuxClose) {
			return fmt.Errorf("%w: aux closeness matrices of %d and %d values do not tile %d users", ErrCorrupt, len(sc.AuxClose), len(sc.AuxWcl), n2)
		}
		sc.Hbar2 = len(sc.AuxClose) / n2
	}
	return nil
}

// checkOffsets validates a flat-layout offset table: first entry 0,
// monotone non-decreasing, last entry the flat length.
func checkOffsets(off []int, flatLen int, what string) error {
	if len(off) == 0 {
		return fmt.Errorf("%w: empty %s offset table", ErrCorrupt, what)
	}
	if off[0] != 0 || off[len(off)-1] != flatLen {
		return fmt.Errorf("%w: %s offsets span [%d, %d), flat array has %d", ErrCorrupt, what, off[0], off[len(off)-1], flatLen)
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("%w: %s offsets decrease at %d", ErrCorrupt, what, i)
		}
	}
	return nil
}

// encodeIndex serializes one shard's index parts as a self-describing
// little-endian blob: a fixed header of counts, then the flat arrays.
// Index sections are always decoded by copying — they are small relative
// to the feature and cache sections, and the sub-arrays inside a blob
// cannot all be 8-byte aligned anyway. Format v2 extends the v1 header
// with two words (block size and block count) and appends BlockMeta after
// BandIDs; see docs/SNAPSHOT.md for the byte layout.
func encodeIndex(p *index.Parts) []byte {
	numAttrs := len(p.PostOff) - 1
	if numAttrs < 0 {
		numAttrs = 0
	}
	numBands := 0
	if len(p.BandOff) > 0 {
		numBands = len(p.BandOff) - 1
	}
	numBlocks := len(p.BlockMeta) / index.BandMetaWidth
	size := 9*8 + (numAttrs+1)*8 + len(p.PostIDs)*4 + len(p.BandOf)*4 +
		(numBands+1)*8 + len(p.BandMeta)*8 + len(p.BandIDs)*4 + len(p.BlockMeta)*8
	out := make([]byte, size)
	le := binary.LittleEndian
	le.PutUint64(out[0:], uint64(p.N))
	le.PutUint64(out[8:], uint64(p.Bands))
	le.PutUint64(out[16:], math.Float64bits(p.MaxCandidateFrac))
	le.PutUint64(out[24:], uint64(numAttrs))
	le.PutUint64(out[32:], uint64(numBands))
	le.PutUint64(out[40:], uint64(len(p.PostIDs)))
	le.PutUint64(out[48:], uint64(len(p.BandIDs)))
	le.PutUint64(out[56:], uint64(p.BlockSize))
	le.PutUint64(out[64:], uint64(numBlocks))
	pos := 72
	putInts := func(v []int) {
		for _, x := range v {
			le.PutUint64(out[pos:], uint64(int64(x)))
			pos += 8
		}
	}
	putI32 := func(v []int32) {
		for _, x := range v {
			le.PutUint32(out[pos:], uint32(x))
			pos += 4
		}
	}
	putF64 := func(v []float64) {
		for _, x := range v {
			le.PutUint64(out[pos:], math.Float64bits(x))
			pos += 8
		}
	}
	if numAttrs == 0 && len(p.PostOff) == 0 {
		putInts([]int{0})
	} else {
		putInts(p.PostOff)
	}
	putI32(p.PostIDs)
	putI32(p.BandOf)
	if numBands == 0 && len(p.BandOff) == 0 {
		putInts([]int{0})
	} else {
		putInts(p.BandOff)
	}
	putF64(p.BandMeta)
	putI32(p.BandIDs)
	putF64(p.BlockMeta)
	return out
}

// decodeIndex is encodeIndex's inverse, with full structural validation.
// version selects the blob layout: format v1 blobs have a 7-word header
// and no block metadata (BlockSize decodes as 0, marking the blocks for
// rebuild), v2 blobs add the block size/count words and the trailing
// BlockMeta array.
func decodeIndex(b []byte, version int) (index.Parts, error) {
	var p index.Parts
	le := binary.LittleEndian
	headerLen := 72
	if version < 2 {
		headerLen = 56
	}
	if len(b) < headerLen {
		return p, fmt.Errorf("%w: shard index blob of %d bytes", ErrCorrupt, len(b))
	}
	p.N = int(int64(le.Uint64(b[0:])))
	p.Bands = int(int64(le.Uint64(b[8:])))
	p.MaxCandidateFrac = math.Float64frombits(le.Uint64(b[16:]))
	numAttrs := int(int64(le.Uint64(b[24:])))
	numBands := int(int64(le.Uint64(b[32:])))
	postIDs := int(int64(le.Uint64(b[40:])))
	bandIDs := int(int64(le.Uint64(b[48:])))
	numBlocks := 0
	if version >= 2 {
		p.BlockSize = int(int64(le.Uint64(b[56:])))
		numBlocks = int(int64(le.Uint64(b[64:])))
	}
	// Every count sizes an array of at least one byte per element, so none
	// can exceed the blob: bounding them first keeps the size arithmetic
	// below from overflowing on a crafted header.
	for _, c := range []int{p.N, numAttrs, numBands, postIDs, bandIDs, numBlocks} {
		if c < 0 || c > len(b) {
			return p, fmt.Errorf("%w: shard index count %d outside a %d-byte blob", ErrCorrupt, c, len(b))
		}
	}
	if p.BlockSize < 0 {
		return p, fmt.Errorf("%w: negative shard index block size %d", ErrCorrupt, p.BlockSize)
	}
	if p.BlockSize == 0 && numBlocks != 0 {
		return p, fmt.Errorf("%w: %d index blocks with block size 0", ErrCorrupt, numBlocks)
	}
	if p.BlockSize > 0 && numBlocks != ceilDiv(p.N, p.BlockSize) {
		return p, fmt.Errorf("%w: %d index blocks of %d ids do not tile %d users", ErrCorrupt, numBlocks, p.BlockSize, p.N)
	}
	want := headerLen + (numAttrs+1)*8 + postIDs*4 + p.N*4 + (numBands+1)*8 +
		numBands*index.BandMetaWidth*8 + bandIDs*4 + numBlocks*index.BandMetaWidth*8
	if len(b) != want {
		return p, fmt.Errorf("%w: shard index blob is %d bytes, counts demand %d", ErrCorrupt, len(b), want)
	}
	pos := headerLen
	getInts := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = int(int64(le.Uint64(b[pos:])))
			pos += 8
		}
		return out
	}
	getI32 := func(n int) []int32 {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(le.Uint32(b[pos:]))
			pos += 4
		}
		return out
	}
	getF64 := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(le.Uint64(b[pos:]))
			pos += 8
		}
		return out
	}
	p.PostOff = getInts(numAttrs + 1)
	p.PostIDs = getI32(postIDs)
	p.BandOf = getI32(p.N)
	p.BandOff = getInts(numBands + 1)
	p.BandMeta = getF64(numBands * index.BandMetaWidth)
	p.BandIDs = getI32(bandIDs)
	if numBlocks > 0 {
		p.BlockMeta = getF64(numBlocks * index.BandMetaWidth)
	}
	if err := checkOffsets(p.PostOff, len(p.PostIDs), "shard index postings"); err != nil {
		return p, err
	}
	if err := checkOffsets(p.BandOff, len(p.BandIDs), "shard index bands"); err != nil {
		return p, err
	}
	return p, nil
}

// ceilDiv is ceil(n/d) for n >= 0 and d > 0, without forming n+d-1 (a
// crafted block size near the int limit would overflow it).
func ceilDiv(n, d int) int {
	if n == 0 {
		return 0
	}
	return (n-1)/d + 1
}
