// Snapshot support: assembling a pipeline around an already-restored
// scorer. NewShardedPipelineFromStore always precomputes scorer caches
// via similarity.NewScorer; the warm-restart path has those caches loaded
// from disk, so it needs a constructor that adopts a prebuilt scorer and
// only re-partitions the shard world around it.

package core

import (
	"dehealth/internal/features"
	"dehealth/internal/shard"
	"dehealth/internal/similarity"
)

// NewRestoredPipeline assembles a pipeline from prebuilt feature stores
// and an already-constructed base scorer (typically restored from a
// snapshot via similarity.NewScorerFromParts). The scorer must have been
// built over the stores' UDA graphs; no cache precomputation runs. The
// shard world is partitioned exactly as NewShardedPipelineFromStore
// partitions it, so queries against the restored pipeline fan out — and
// merge — identically to the pipeline that was saved.
func NewRestoredPipeline(anon, aux *features.Store, sc *similarity.Scorer, shards int) *Pipeline {
	if anon.Extractor != aux.Extractor {
		panic("core: stores were built with different extractors; build both with the same fitted extractor (see features.BuildPair)")
	}
	g1, g2 := anon.UDA(), aux.UDA()
	return &Pipeline{
		Anon: anon.Dataset, Aux: aux.Dataset,
		Extractor: aux.Extractor,
		G1:        g1, G2: g2,
		Scorer: sc,
		world:  shard.New(sc, g2, nil, shards),
	}
}

// ShardWindows returns the query path's shards in partition order (shared;
// treat as read-only). Snapshotting reads each shard's index through it,
// and restoring installs loaded indexes on the windows before deriving the
// pruned world — WithPruning reuses an installed index whose build
// configuration matches instead of rebuilding it.
func (p *Pipeline) ShardWindows() []*shard.Shard { return p.shardWorld().Shards() }
