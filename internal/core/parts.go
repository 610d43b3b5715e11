// Pipeline assembly around a built base scorer: NewRestoredPipeline is the
// one place a Pipeline is put together from its stores. The prepare path
// (NewShardedPipelineFromStore) hands it a freshly precomputed scorer; the
// warm-restart path hands it one restored from a snapshot, so the two
// pipelines are partitioned — and fan out and merge — identically.

package core

import (
	"dehealth/internal/features"
	"dehealth/internal/shard"
	"dehealth/internal/similarity"
)

// NewRestoredPipeline assembles a pipeline from prebuilt feature stores
// and an already-constructed base scorer (NewScorer for a fresh world, or
// similarity.NewScorerFromParts for one restored from a snapshot). The
// scorer must have been built over the stores' UDA graphs; no cache
// precomputation runs, and the shard world is partitioned around it. It
// panics when the stores were built with different extractors (see
// NewPipelineFromStore).
func NewRestoredPipeline(anon, aux *features.Store, sc *similarity.Scorer, shards int) *Pipeline {
	checkExtractors(anon, aux)
	g1, g2 := anon.UDA(), aux.UDA()
	return &Pipeline{
		Anon: anon.Dataset, Aux: aux.Dataset,
		Extractor: aux.Extractor,
		G1:        g1, G2: g2,
		Scorer: sc,
		world:  shard.New(sc, g2, nil, shards),
	}
}

// checkExtractors panics unless both stores share one fitted extractor.
func checkExtractors(anon, aux *features.Store) {
	if anon.Extractor != aux.Extractor {
		panic("core: stores were built with different extractors; build both with the same fitted extractor (see features.BuildPair)")
	}
}
