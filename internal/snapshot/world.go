// The World container: the typed contents of a snapshot and their mapping
// onto sections. The mapping is one table (World.layout) that Save and
// Load both walk, so the section list exists once. This file knows the
// byte layout of each element type and validates structure (presence,
// lengths, monotone offsets); semantic assembly (rebuilding stores,
// scorers, pipelines) lives with the packages that own those types, and
// the scorer state is stored as that package's own Parts.

package snapshot

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"dehealth/internal/corpus"
	"dehealth/internal/similarity"
)

// Section ids. Values are part of the on-disk format: never renumber,
// only append. Repeated ids are only legal for secShardIndex (one section
// per shard, in shard order), which no current writer emits: files written
// with pruning on by older versions carry it, and Load validates those
// sections, then ignores them.
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
	// Prune and Approx are read from files that older versions wrote with
	// candidate pruning (or the retired approximate tier) on: either one
	// set means the file must carry secShardIndex sections. The writer
	// always leaves both false.
	Prune  bool `json:"prune"`
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

// Side is one dataset side of the world: the corpus (stored as JSON), its
// post-major feature matrix as one row of Meta.Dim values per post, the
// per-user attribute sets in flattened sparse form (Idx/Weight split,
// AttrOff has users+1 entries), and the frozen UDA adjacency in CSR form
// (AdjOff has users+1 entries; AdjTo and AdjWeight are sorted per user).
// Save writes the rows where they lie, without gathering them into one
// array; Load hands back rows that view one array (the mapping, on the
// zero-copy path).
type Side struct {
	Dataset    *corpus.Dataset
	Feat       [][]float64
	AttrIdx    []int32
	AttrWeight []int32
	AttrOff    []int
	AdjOff     []int
	AdjTo      []int32
	AdjWeight  []float64
}

// World is the full typed content of a snapshot file. The scorer caches
// are the engine's own flattened type: the file stores exactly what
// similarity.Scorer.Parts hands out, and hands back exactly what
// NewScorerFromParts takes.
type World struct {
	Meta   Meta
	Anon   Side
	Aux    Side
	Scorer similarity.Parts
	// Mapped reports (after Load) whether the numeric slices alias a
	// read-only memory mapping of the file.
	Mapped bool
}

// field is one row of the section layout: a section id and the World
// field it holds. ptr is a *[]float64, *[][]float64 (a matrix of Meta.Dim
// wide rows, stored row after row), *[]int (stored as i64), *[]int32,
// *Meta or **corpus.Dataset (both stored as JSON).
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
		var err error
		switch p := fl.ptr.(type) {
		case *[]float64:
			data = f64Bytes(*p)
		case *[][]float64:
			runs := make([][]byte, len(*p))
			for i, row := range *p {
				if len(row) != w.Meta.Dim {
					return fmt.Errorf("snapshot: section %d row %d has %d values, meta dim is %d", fl.id, i, len(row), w.Meta.Dim)
				}
				runs[i] = f64Bytes(row)
			}
			secs = append(secs, rawSection{fl.id, runs})
			continue
		case *[]int:
			data = i64BytesFromInts(*p)
		case *[]int32:
			data = i32Bytes(*p)
		case *Meta:
			data, err = json.Marshal(p)
		case **corpus.Dataset:
			data, err = json.Marshal(*p)
		default:
			panic(fmt.Sprintf("snapshot: section %d has unhandled type %T", fl.id, fl.ptr))
		}
		if err != nil {
			return fmt.Errorf("snapshot: encoding section %d: %v", fl.id, err)
		}
		secs = append(secs, rawSection{fl.id, [][]byte{data}})
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
	return f.world()
}

// world decodes the World a validated file holds and validates its
// structure.
func (f *rawFile) world() (*World, error) {
	w := &World{Mapped: f.zeroCopy}
	// The meta document sizes the feature rows, so it is decoded first.
	if err := f.decode(field{secMeta, &w.Meta}, 0); err != nil {
		return nil, err
	}
	for _, fl := range w.layout() {
		if fl.id == secMeta {
			continue
		}
		if err := f.decode(fl, w.Meta.Dim); err != nil {
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
	// Legacy shard index sections: nothing reads them any more, but a file
	// that carries them must still be well formed.
	indexes := f.sections(secShardIndex)
	for _, blob := range indexes {
		if err := checkIndexBlob(blob, f.version); err != nil {
			return nil, err
		}
	}
	if (w.Meta.Prune || w.Meta.Approx) && len(indexes) == 0 {
		return nil, fmt.Errorf("%w: pruned/approx snapshot carries no shard index sections", ErrCorrupt)
	}
	return w, nil
}

// decode fills one layout row from the single section with the row's id;
// dim is the width of a matrix row. Numeric sections alias the mapping
// when the file allows it.
func (f *rawFile) decode(fl field, dim int) error {
	b, err := f.section(fl.id)
	if err != nil {
		return err
	}
	switch p := fl.ptr.(type) {
	case *[]float64:
		*p, err = decodeF64(b, f.zeroCopy)
	case *[][]float64:
		*p, err = decodeRows(b, dim, f.zeroCopy)
	case *[]int:
		*p, err = decodeInts(b, f.zeroCopy)
	case *[]int32:
		*p, err = decodeI32(b, f.zeroCopy)
	case *Meta:
		if err = json.Unmarshal(b, p); err != nil {
			err = fmt.Errorf("%w: meta section: %v", ErrCorrupt, err)
		}
	case **corpus.Dataset:
		d := &corpus.Dataset{}
		if err = json.Unmarshal(b, d); err != nil {
			err = fmt.Errorf("%w: dataset section %d: %v", ErrCorrupt, fl.id, err)
		}
		*p = d
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

// indexBoundWidth is the number of float64 bounds a legacy index blob
// stores per degree band and per id-range block.
const indexBoundWidth = 10

// checkIndexBlob validates one legacy shard index section structurally,
// without decoding it for use: a header of counts, then flat arrays whose
// sizes the counts fix, two of them offset tables that must be monotone
// and span their arrays. version selects the layout: format v1 blobs have
// a 7-word header; v2 adds a block size and a block count and appends
// that many blocks of bounds. See docs/SNAPSHOT.md for the byte layout.
func checkIndexBlob(b []byte, version int) error {
	headerLen := 72
	if version < 2 {
		headerLen = 56
	}
	if len(b) < headerLen {
		return fmt.Errorf("%w: shard index blob of %d bytes", ErrCorrupt, len(b))
	}
	word := func(i int) int { return int(int64(binary.LittleEndian.Uint64(b[8*i:]))) }
	n, numAttrs, numBands, postIDs, bandIDs := word(0), word(3), word(4), word(5), word(6)
	blockSize, numBlocks := 0, 0
	if version >= 2 {
		blockSize, numBlocks = word(7), word(8)
	}
	// Every count sizes an array of at least one byte per element, so none
	// can exceed the blob: bounding them first keeps the size arithmetic
	// below from overflowing on a crafted header.
	for _, c := range []int{n, numAttrs, numBands, postIDs, bandIDs, numBlocks} {
		if c < 0 || c > len(b) {
			return fmt.Errorf("%w: shard index count %d outside a %d-byte blob", ErrCorrupt, c, len(b))
		}
	}
	if blockSize < 0 {
		return fmt.Errorf("%w: negative shard index block size %d", ErrCorrupt, blockSize)
	}
	if blockSize == 0 && numBlocks != 0 {
		return fmt.Errorf("%w: %d index blocks with block size 0", ErrCorrupt, numBlocks)
	}
	if blockSize > 0 && numBlocks != ceilDiv(n, blockSize) {
		return fmt.Errorf("%w: %d index blocks of %d ids do not tile %d users", ErrCorrupt, numBlocks, blockSize, n)
	}
	postOff := headerLen
	bandOff := postOff + (numAttrs+1)*8 + postIDs*4 + n*4
	want := bandOff + (numBands+1)*8 + numBands*indexBoundWidth*8 + bandIDs*4 + numBlocks*indexBoundWidth*8
	if len(b) != want {
		return fmt.Errorf("%w: shard index blob is %d bytes, counts demand %d", ErrCorrupt, len(b), want)
	}
	for _, t := range []struct {
		at, entries, span int
		what              string
	}{
		{postOff, numAttrs + 1, postIDs, "shard index postings"},
		{bandOff, numBands + 1, bandIDs, "shard index bands"},
	} {
		off, err := decodeInts(b[t.at:t.at+t.entries*8], false)
		if err != nil {
			return err
		}
		if err := checkOffsets(off, t.span, t.what); err != nil {
			return err
		}
	}
	return nil
}

// ceilDiv is ceil(n/d) for n >= 0 and d > 0, without forming n+d-1 (a
// crafted block size near the int limit would overflow it).
func ceilDiv(n, d int) int {
	if n == 0 {
		return 0
	}
	return (n-1)/d + 1
}
