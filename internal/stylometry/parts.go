// Snapshot support: the extractor's only data-driven state is its fitted
// POS-bigram block, so saving and restoring an extractor reduces to the
// bigram pair list. SetBigrams installs a saved list exactly as FitBigrams
// would have — same feature order, same offsets — which is what makes a
// restored extractor's feature space identical to the one that was saved.

package stylometry

import "fmt"

// Bigrams returns the fitted POS-bigram pairs in feature order (pairs of
// postag.Tags indices; shared slice, do not modify).
func (e *Extractor) Bigrams() [][2]int { return e.bigrams }

// SetBigrams installs a saved bigram list, rebuilding the feature table
// around it. The resulting extractor is identical to the one Bigrams was
// read from: FitBigrams is order-defining and SetBigrams preserves the
// given order. Pairs with tag indices outside postag.Tags are rejected, and
// so are repeated pairs: FitBigrams never lists a pair twice, and a second
// copy would be a dimension no post can fill.
func (e *Extractor) SetBigrams(pairs [][2]int) error {
	var seen [numTags * numTags]bool
	for i, p := range pairs {
		if p[0] < 0 || p[0] >= numTags || p[1] < 0 || p[1] >= numTags {
			return fmt.Errorf("stylometry: bigram %d tags (%d, %d) outside the %d-tag set", i, p[0], p[1], numTags)
		}
		if seen[p[0]*numTags+p[1]] {
			return fmt.Errorf("stylometry: bigram %d tags (%d, %d) repeats an earlier pair", i, p[0], p[1])
		}
		seen[p[0]*numTags+p[1]] = true
	}
	e.bigrams = pairs
	e.rebuild()
	return nil
}
