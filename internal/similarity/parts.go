// Snapshot support: Parts exposes the precomputed cache state a base
// scorer carries, and NewScorerFromParts rebuilds a scorer from saved
// parts without re-running the NCS/landmark precomputation — the
// warm-restart path. The parity contract holds because every float the
// scoring kernel reads is carried through Parts verbatim; only
// integer-derived auxiliary state (attribute total weights, the dense
// table width, the presence bitsets of the scan's pair bound) is
// recomputed, by the same function NewScorer runs (freezeAttrs).

package similarity

import (
	"fmt"

	"dehealth/internal/graph"
)

// Parts is the serializable precomputed state of a base scorer: the
// anonymized-side SoA caches and the full auxiliary window, in the flat
// layouts the kernel walks. Slices are the scorer's own backing arrays —
// treat them as read-only, and as valid only until the next SyncAnon, which
// rewrites grown rows in place.
type Parts struct {
	// Anonymized side (scorerCaches). Hbar1 is len(Landmarks).
	Landmarks []int
	NCS       []float64
	NCSOff    []int
	NCSNorm   []float64
	Close     []float64
	CloseNorm []float64
	Wcl       []float64
	WclNorm   []float64

	// Auxiliary side (auxWindow), minus what NewScorerFromParts re-derives
	// from the graph's attribute sets (attrs, attrTotW, attrW, attrBits).
	Hbar2        int
	AuxDeg       []float64
	AuxWdeg      []float64
	AuxNCS       []float64
	AuxNCSOff    []int
	AuxNCSNorm   []float64
	AuxClose     []float64
	AuxCloseNorm []float64
	AuxWcl       []float64
	AuxWclNorm   []float64
}

// Parts returns the scorer's precomputed cache state for serialization.
// It must be called on a base scorer: a shard window's caches are views of
// its base scorer's, so the base is what a snapshot captures.
func (s *Scorer) Parts() Parts {
	if s.window {
		panic("similarity: Parts of a shard window; snapshot the base scorer")
	}
	return Parts{
		Landmarks: s.c.landmarks1,
		NCS:       s.c.ncs1,
		NCSOff:    s.c.ncsOff1,
		NCSNorm:   s.c.ncsNorm1,
		Close:     s.c.close1,
		CloseNorm: s.c.closeNorm1,
		Wcl:       s.c.wcl1,
		WclNorm:   s.c.wclNorm1,

		Hbar2:        s.ax.hbar2,
		AuxDeg:       s.ax.deg,
		AuxWdeg:      s.ax.wdeg,
		AuxNCS:       s.ax.ncs,
		AuxNCSOff:    s.ax.ncsOff,
		AuxNCSNorm:   s.ax.ncsNorm,
		AuxClose:     s.ax.close,
		AuxCloseNorm: s.ax.closeNorm,
		AuxWcl:       s.ax.wcl,
		AuxWclNorm:   s.ax.wclNorm,
	}
}

// NewScorerFromParts rebuilds a base scorer over g1 and g2 from saved
// parts, adopting the part slices as its caches (no copies: callers
// restoring from a read-only mapping rely on the arrays being read-only in
// operation — the first SyncAnon rebuilds the anonymized side into fresh
// arrays and never writes the adopted ones). The auxiliary
// attribute state is re-derived from g2.Attrs exactly as NewScorer derives
// it. Every part is validated against the graphs' dimensions; a mismatch
// returns an error rather than a scorer that would index out of bounds.
func NewScorerFromParts(g1, g2 *graph.UDA, cfg Config, p Parts) (*Scorer, error) {
	n1, n2 := g1.NumNodes(), g2.NumNodes()
	hbar1 := len(p.Landmarks)
	for _, l := range p.Landmarks {
		if l < 0 || l >= n1 {
			return nil, fmt.Errorf("similarity: landmark %d outside anonymized graph of %d nodes", l, n1)
		}
	}
	if err := checkRagged("anon NCS", n1, p.NCS, p.NCSOff, p.NCSNorm); err != nil {
		return nil, err
	}
	if err := checkFixed("anon closeness", n1, hbar1, p.Close, p.CloseNorm); err != nil {
		return nil, err
	}
	if err := checkFixed("anon weighted closeness", n1, hbar1, p.Wcl, p.WclNorm); err != nil {
		return nil, err
	}
	if err := checkRagged("aux NCS", n2, p.AuxNCS, p.AuxNCSOff, p.AuxNCSNorm); err != nil {
		return nil, err
	}
	if p.Hbar2 < 0 {
		return nil, fmt.Errorf("similarity: negative aux landmark count %d", p.Hbar2)
	}
	if err := checkFixed("aux closeness", n2, p.Hbar2, p.AuxClose, p.AuxCloseNorm); err != nil {
		return nil, err
	}
	if err := checkFixed("aux weighted closeness", n2, p.Hbar2, p.AuxWcl, p.AuxWclNorm); err != nil {
		return nil, err
	}
	if len(p.AuxDeg) != n2 || len(p.AuxWdeg) != n2 {
		return nil, fmt.Errorf("similarity: aux degree arrays cover %d/%d users, graph has %d", len(p.AuxDeg), len(p.AuxWdeg), n2)
	}
	if len(g2.Attrs) != n2 {
		return nil, fmt.Errorf("similarity: auxiliary graph has %d attribute sets for %d nodes", len(g2.Attrs), n2)
	}

	c := &scorerCaches{
		landmarks1: p.Landmarks,
		hbar1:      hbar1,
		ncs1:       p.NCS,
		ncsOff1:    p.NCSOff,
		ncsNorm1:   p.NCSNorm,
		close1:     p.Close,
		closeNorm1: p.CloseNorm,
		wcl1:       p.Wcl,
		wclNorm1:   p.WclNorm,
	}
	ax := &auxWindow{
		deg:       p.AuxDeg,
		wdeg:      p.AuxWdeg,
		hbar2:     p.Hbar2,
		ncs:       p.AuxNCS,
		ncsOff:    p.AuxNCSOff,
		ncsNorm:   p.AuxNCSNorm,
		close:     p.AuxClose,
		closeNorm: p.AuxCloseNorm,
		wcl:       p.AuxWcl,
		wclNorm:   p.AuxWclNorm,
	}
	ax.freezeAttrs(g2.Attrs)
	return &Scorer{cfg: cfg, g1: g1, g2: g2, c: c, ax: ax}, nil
}

// checkRagged validates a flat ragged array against its offsets and norms.
func checkRagged(what string, n int, flat []float64, off []int, norm []float64) error {
	if len(off) != n+1 || len(norm) != n {
		return fmt.Errorf("similarity: %s tables cover %d users, graph has %d", what, len(norm), n)
	}
	if off[0] != 0 || off[n] != len(flat) {
		return fmt.Errorf("similarity: %s offsets span [%d, %d), flat array has %d", what, off[0], off[n], len(flat))
	}
	for i := 1; i <= n; i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("similarity: %s offsets decrease at %d", what, i)
		}
	}
	return nil
}

// checkFixed validates a row-major fixed-stride matrix and its norms.
func checkFixed(what string, n, stride int, flat, norm []float64) error {
	if len(flat) != n*stride || len(norm) != n {
		return fmt.Errorf("similarity: %s matrix has %d values with %d norms, want %d users x stride %d", what, len(flat), len(norm), n, stride)
	}
	return nil
}
