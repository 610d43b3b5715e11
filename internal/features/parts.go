// Snapshot support: Rows exposes the post-major feature rows for saving,
// and FromParts rebuilds a Store from saved rows, attribute sets and
// correlation topology — skipping extraction, the cost that warm restart
// exists to avoid. Per-user views and the thread-participant index are
// cheap derivations from the dataset and are rebuilt, not serialized.

package features

import (
	"fmt"

	"dehealth/internal/corpus"
	"dehealth/internal/graph"
	"dehealth/internal/stylometry"
)

// Rows returns the store's post-major feature rows: row i is post i's
// vector of Dim() values, a view of the Build-time matrix or of an Append
// block (shared; do not modify).
func (s *Store) Rows() [][]float64 { return s.rows }

// FromParts rebuilds a Store over d from saved feature rows and attribute
// sets, adopting rows and their backing without copying (it may be a
// read-only snapshot mapping: the store never writes existing rows, and
// Append blocks are freshly allocated). topo, when non-nil, is the saved
// correlation topology and is installed as the UDA graph's Graph — the
// lazy UDA build is pre-satisfied, so no topology pass runs at load time.
// The per-user views are re-derived from the dataset exactly as Build
// derives them. No row value is read.
func FromParts(d *corpus.Dataset, ex *stylometry.Extractor, rows [][]float64, attrs []stylometry.AttrSet, topo *graph.Graph, opt Options) (*Store, error) {
	dim := ex.NumFeatures()
	n := len(d.Posts)
	if len(rows) != n {
		return nil, fmt.Errorf("features: %d feature rows for %d posts", len(rows), n)
	}
	for i, r := range rows {
		if len(r) != dim {
			return nil, fmt.Errorf("features: row %d has %d values, want %d features", i, len(r), dim)
		}
	}
	if len(attrs) != len(d.Users) {
		return nil, fmt.Errorf("features: %d attribute sets for %d users", len(attrs), len(d.Users))
	}
	if topo != nil && topo.NumNodes() != len(d.Users) {
		return nil, fmt.Errorf("features: topology of %d nodes for %d users", topo.NumNodes(), len(d.Users))
	}
	s := &Store{
		Dataset:   d,
		Extractor: ex,
		opt:       opt,
		dim:       dim,
		rows:      rows,
	}
	byUser := d.PostsByUser()
	s.perUser = make([][][]float64, len(d.Users))
	for u := range s.perUser {
		idxs := byUser[u]
		vs := make([][]float64, len(idxs))
		for k, i := range idxs {
			if i < 0 || i >= n {
				return nil, fmt.Errorf("features: post index %d of user %d outside matrix of %d posts", i, u, n)
			}
			vs[k] = s.rows[i]
		}
		s.perUser[u] = vs
	}
	s.attrs = attrs
	if topo != nil {
		s.udaOnce.Do(func() {
			s.uda = &graph.UDA{Graph: topo, Attrs: s.attrs, PostVectors: s.perUser}
		})
	}
	return s, nil
}
