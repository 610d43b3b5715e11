// Snapshot support: Parts flattens an index into plain arrays for
// serialization and FromParts rebuilds the identical index, so a
// warm-restarted world prunes exactly as the world that saved it — same
// postings, same bands, same bounds — without re-running Build's sort.

package index

import (
	"fmt"
	"math"
)

// Parts is the flattened form of an Index: the posting lists concatenated
// behind an offset table, the per-user band assignment, and the bands'
// member lists and bounds in fixed-width arrays. BandMeta carries ten
// float64 values per band, in field order: DegLo, DegHi, WdegLo, WdegHi,
// NCSNormLo, NCSNormHi, CloseNormLo, CloseNormHi, WclNormLo, WclNormHi.
type Parts struct {
	N                int
	Bands            int     // resolved Config.Bands
	MaxCandidateFrac float64 // resolved Config.MaxCandidateFrac
	PostOff          []int   // len = numAttrs+1; postings[a] = PostIDs[PostOff[a]:PostOff[a+1]]
	PostIDs          []int32
	BandOf           []int32 // len = N
	BandOff          []int   // len = numBands+1; band b's IDs = BandIDs[BandOff[b]:BandOff[b+1]]
	BandMeta         []float64
	BandIDs          []int32
	// BlockSize and BlockMeta carry the id-range block-max metadata:
	// ceil(N/BlockSize) blocks of BandMetaWidth float64 bounds each, in
	// the same field order as BandMeta. BlockSize 0 (a pre-block snapshot)
	// means no block metadata; the loader rebuilds it from the restored
	// scorer window via BuildBlocks.
	BlockSize int
	BlockMeta []float64
}

// BandMetaWidth is the number of bound values per band in Parts.BandMeta
// and per block in Parts.BlockMeta; the snapshot index blob sizes both
// arrays by it.
const BandMetaWidth = 10

// Parts returns the index's flattened state. The int32 arrays are built
// fresh (the flattening concatenates), so the caller may retain them.
func (x *Index) Parts() Parts {
	p := Parts{
		N:                x.n,
		Bands:            x.cfg.Bands,
		MaxCandidateFrac: x.cfg.MaxCandidateFrac,
		PostOff:          make([]int, len(x.postings)+1),
		BandOf:           x.bandOf,
		BandOff:          make([]int, len(x.bands)+1),
		BandMeta:         make([]float64, 0, len(x.bands)*BandMetaWidth),
	}
	for a, ids := range x.postings {
		p.PostIDs = append(p.PostIDs, ids...)
		p.PostOff[a+1] = len(p.PostIDs)
	}
	for b, band := range x.bands {
		p.BandIDs = append(p.BandIDs, band.IDs...)
		p.BandOff[b+1] = len(p.BandIDs)
		p.BandMeta = append(p.BandMeta,
			band.DegLo, band.DegHi, band.WdegLo, band.WdegHi,
			band.NCSNormLo, band.NCSNormHi, band.CloseNormLo, band.CloseNormHi,
			band.WclNormLo, band.WclNormHi)
	}
	p.BlockSize = x.blkSize
	p.BlockMeta = make([]float64, 0, len(x.blocks)*BandMetaWidth)
	for _, blk := range x.blocks {
		p.BlockMeta = append(p.BlockMeta,
			blk.DegLo, blk.DegHi, blk.WdegLo, blk.WdegHi,
			blk.NCSNormLo, blk.NCSNormHi, blk.CloseNormLo, blk.CloseNormHi,
			blk.WclNormLo, blk.WclNormHi)
	}
	if p.BandOf == nil {
		p.BandOf = []int32{}
	}
	return p
}

// FromParts rebuilds an Index from its flattened state. Structure is
// validated (offset shapes, id bounds, band assignment consistency); a
// violation returns an error rather than an index whose queries would
// misbehave. Posting and band member slices are capacity-clamped views of
// the flat arrays — the index is immutable after build, so sharing the
// backing is safe.
func FromParts(p Parts) (*Index, error) {
	if p.N < 0 {
		return nil, fmt.Errorf("index: negative window size %d", p.N)
	}
	numAttrs := len(p.PostOff) - 1
	numBands := len(p.BandOff) - 1
	if numAttrs < 0 || numBands < 0 {
		return nil, fmt.Errorf("index: empty offset tables")
	}
	if len(p.BandOf) != p.N {
		return nil, fmt.Errorf("index: band assignment covers %d users, window has %d", len(p.BandOf), p.N)
	}
	if len(p.BandMeta) != numBands*BandMetaWidth {
		return nil, fmt.Errorf("index: %d band bound values for %d bands", len(p.BandMeta), numBands)
	}
	if p.BlockSize < 0 {
		return nil, fmt.Errorf("index: negative block size %d", p.BlockSize)
	}
	numBlocks := 0
	if p.BlockSize > 0 {
		numBlocks = (p.N + p.BlockSize - 1) / p.BlockSize
	}
	if len(p.BlockMeta) != numBlocks*BandMetaWidth {
		return nil, fmt.Errorf("index: %d block bound values for %d blocks of %d ids", len(p.BlockMeta), numBlocks, p.BlockSize)
	}
	x := &Index{
		n:        p.N,
		cfg:      Config{MaxCandidateFrac: p.MaxCandidateFrac, Bands: p.Bands, BlockSize: p.BlockSize}.WithDefaults(),
		postings: make([][]int32, numAttrs),
		bands:    make([]Band, numBands),
		bandOf:   p.BandOf,
		blkSize:  p.BlockSize,
	}
	if numBlocks > 0 {
		x.blocks = make([]Block, numBlocks)
		for b := 0; b < numBlocks; b++ {
			m := p.BlockMeta[b*BandMetaWidth:]
			for _, v := range m[:BandMetaWidth] {
				if math.IsNaN(v) {
					return nil, fmt.Errorf("index: NaN bound in block %d", b)
				}
			}
			x.blocks[b] = Block{
				DegLo: m[0], DegHi: m[1], WdegLo: m[2], WdegHi: m[3],
				NCSNormLo: m[4], NCSNormHi: m[5],
				CloseNormLo: m[6], CloseNormHi: m[7],
				WclNormLo: m[8], WclNormHi: m[9],
			}
		}
	}
	for a := 0; a < numAttrs; a++ {
		lo, hi := p.PostOff[a], p.PostOff[a+1]
		if lo > hi || lo < 0 || hi > len(p.PostIDs) {
			return nil, fmt.Errorf("index: posting offsets of attribute %d span [%d, %d)", a, lo, hi)
		}
		if lo == hi {
			continue
		}
		ids := p.PostIDs[lo:hi:hi]
		for i, u := range ids {
			if u < 0 || int(u) >= p.N {
				return nil, fmt.Errorf("index: posting id %d outside window of %d", u, p.N)
			}
			if i > 0 && ids[i-1] >= u {
				return nil, fmt.Errorf("index: posting list of attribute %d not strictly ascending", a)
			}
		}
		x.postings[a] = ids
	}
	seen := 0
	for b := 0; b < numBands; b++ {
		lo, hi := p.BandOff[b], p.BandOff[b+1]
		if lo > hi || lo < 0 || hi > len(p.BandIDs) {
			return nil, fmt.Errorf("index: band %d member offsets span [%d, %d)", b, lo, hi)
		}
		ids := p.BandIDs[lo:hi:hi]
		for i, u := range ids {
			if u < 0 || int(u) >= p.N {
				return nil, fmt.Errorf("index: band member id %d outside window of %d", u, p.N)
			}
			if i > 0 && ids[i-1] >= u {
				return nil, fmt.Errorf("index: band %d members not strictly ascending", b)
			}
			if int(p.BandOf[u]) != b {
				return nil, fmt.Errorf("index: user %d listed in band %d but assigned band %d", u, b, p.BandOf[u])
			}
		}
		m := p.BandMeta[b*BandMetaWidth:]
		x.bands[b] = Band{
			IDs:   ids,
			DegLo: m[0], DegHi: m[1], WdegLo: m[2], WdegHi: m[3],
			NCSNormLo: m[4], NCSNormHi: m[5],
			CloseNormLo: m[6], CloseNormHi: m[7],
			WclNormLo: m[8], WclNormHi: m[9],
		}
		seen += len(ids)
	}
	if seen != p.N {
		return nil, fmt.Errorf("index: bands cover %d users, window has %d", seen, p.N)
	}
	for b := 0; b < numBands; b++ {
		m := p.BandMeta[b*BandMetaWidth:]
		for _, v := range m[:BandMetaWidth] {
			if math.IsNaN(v) {
				return nil, fmt.Errorf("index: NaN bound in band %d", b)
			}
		}
	}
	return x, nil
}
