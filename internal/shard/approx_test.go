//lint:file-ignore SA1019 this file pins the deprecated approximate-tier forwards

package shard

// The retired approximate tier's names (WithApprox, QueryUserApprox,
// QueryBatchApprox, TopKApprox) forward to the exact engines and stay only
// for the frozen benchmark program. These tests pin the forwards: every
// answer, at any Theta or Budget, equals the exact scan's.

import (
	"fmt"
	"testing"

	"dehealth/internal/index"
	"dehealth/internal/similarity"
)

// TestApproxDegenerateParitySparse pins the forwards at the old tier's
// degenerate knobs on the sparse world: bit-identical top-K to the exact
// full scan at every shard count and K, answered by the pruner.
func TestApproxDegenerateParitySparse(t *testing.T) {
	g1, g2 := sparseWorld(t, 120, 12, 400, 51)
	base := similarity.NewScorer(g1, g2, similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 5})
	full := New(base, g2, nil, 1)

	for _, shards := range []int{1, 3, 8} {
		ap := New(base, g2, nil, shards).WithApprox(index.Config{}, &index.ApproxStats{})
		for _, k := range []int{1, 5, 17} {
			for u := 0; u < g1.NumNodes(); u++ {
				candidatesEqual(t, ap.QueryUserApprox(u, k, index.ApproxParams{}), full.QueryBatch([]int{u}, k, 0)[0],
					"sparse approx degenerate parity")
				for _, sh := range ap.Shards() {
					candidatesEqual(t, sh.TopKApprox(u, k, index.Config{}, index.ApproxParams{Theta: 2}, nil), sh.TopKBatch([]int{u}, k)[0],
						"shard approx parity")
				}
			}
		}
		s := ap.pruneStats()
		if s.Queries == 0 {
			t.Fatalf("WithApprox world did not prune: %+v", s)
		}
		if s.Fallbacks != 0 {
			t.Fatalf("indexed prune-safe world must not fall back: %+v", s)
		}
	}
}

// TestApproxDegenerateParityDense drives the forwards over a dense
// real-text world, where every attribute posting list is long and the
// pruner hands its queries to the scan.
func TestApproxDegenerateParityDense(t *testing.T) {
	base, auxS, anonN := denseTextWorld(t, 61)
	full := New(base, auxS.UDA(), auxS, 1)
	ap := New(base, auxS.UDA(), auxS, 3).WithApprox(index.Config{}, nil)
	for u := 0; u < anonN; u++ {
		candidatesEqual(t, ap.QueryUserApprox(u, 5, index.ApproxParams{}), full.QueryBatch([]int{u}, 5, 0)[0],
			"dense approx degenerate parity")
	}
	if s := ap.pruneStats(); s.Queries == 0 || s.Fallbacks != 0 {
		t.Fatalf("dense approx queries must run the pruned world's engine: %+v", s)
	}
}

// TestApproxThetaRecallDense turns the old Theta knob on the dense world:
// it is ignored, so recall is 1 — the answer equals the exact top-5.
func TestApproxThetaRecallDense(t *testing.T) {
	base, auxS, anonN := denseTextWorld(t, 61)
	full := New(base, auxS.UDA(), auxS, 1)
	ap := New(base, auxS.UDA(), auxS, 2).WithApprox(index.Config{}, nil)
	for _, theta := range []float64{1.2, 2} {
		for u := 0; u < anonN; u++ {
			candidatesEqual(t, ap.QueryUserApprox(u, 5, index.ApproxParams{Theta: theta}), full.QueryBatch([]int{u}, 5, 0)[0],
				fmt.Sprintf("theta %v", theta))
		}
	}
}

// TestApproxBudget pins that the old Budget knob no longer caps anything:
// a budget of 3 still returns the exact top-10.
func TestApproxBudget(t *testing.T) {
	g1, g2 := sparseWorld(t, 100, 10, 300, 57)
	base := similarity.NewScorer(g1, g2, similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 4})
	full := New(base, g2, nil, 1)
	ap := New(base, g2, nil, 1).WithApprox(index.Config{}, nil)
	for u := 0; u < g1.NumNodes(); u++ {
		candidatesEqual(t, ap.QueryUserApprox(u, 10, index.ApproxParams{Budget: 3}), full.QueryBatch([]int{u}, 10, 0)[0], "budget 3")
	}
}

// TestApproxUnsafeConfigFallsBack pins the negative-weight guard: a
// configuration without admissible bounds must answer exactly via the
// fallback path.
func TestApproxUnsafeConfigFallsBack(t *testing.T) {
	g1, g2 := sparseWorld(t, 60, 10, 300, 59)
	cfg := similarity.Config{C1: -0.2, C2: 0.6, C3: 0.6, Landmarks: 4}
	base := similarity.NewScorer(g1, g2, cfg)
	full := New(base, g2, nil, 1)
	ap := New(base, g2, nil, 2).WithApprox(index.Config{}, nil)
	for u := 0; u < g1.NumNodes(); u++ {
		candidatesEqual(t, ap.QueryUserApprox(u, 5, index.ApproxParams{Theta: 2}), full.QueryBatch([]int{u}, 5, 0)[0],
			"unsafe config approx parity")
	}
	if s := ap.pruneStats(); s.Fallbacks != s.Queries {
		t.Fatalf("unsafe config must always fall back: %+v", s)
	}
}

// TestApproxWithoutTierDegrades pins the forwards on a world never given
// an index: approximate queries answer exactly through the scan.
func TestApproxWithoutTierDegrades(t *testing.T) {
	g1, g2 := sparseWorld(t, 50, 8, 250, 67)
	base := similarity.NewScorer(g1, g2, similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 4})
	w := New(base, g2, nil, 2)
	for u := 0; u < 10; u++ {
		candidatesEqual(t, w.QueryUserApprox(u, 5, index.ApproxParams{Theta: 3, Budget: 1}),
			w.QueryBatch([]int{u}, 5, 0)[0], "tier-less approx degradation")
	}
	if w.pruned() {
		t.Fatal("approximate queries must not prune a tier-less world")
	}
}

// TestApproxBatchParity pins the batch forward at degenerate knobs.
func TestApproxBatchParity(t *testing.T) {
	g1, g2 := sparseWorld(t, 80, 10, 300, 71)
	base := similarity.NewScorer(g1, g2, similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 4})
	full := New(base, g2, nil, 1)
	ap := New(base, g2, nil, 4).WithApprox(index.Config{}, nil)
	users := make([]int, g1.NumNodes())
	for i := range users {
		users[i] = i
	}
	got := ap.QueryBatchApprox(users, 6, 3, index.ApproxParams{})
	for i, u := range users {
		candidatesEqual(t, got[i], full.QueryBatch([]int{u}, 6, 0)[0], "approx batch parity")
	}
}

// TestApproxStateCarriesThroughDerivations checks WithApprox is
// WithPruning across derivations: re-weighting (WithScorer) keeps the
// pruned engine and its shared stats, and WithApprox over an
// already-pruned world reuses its indexes.
func TestApproxStateCarriesThroughDerivations(t *testing.T) {
	g1, g2 := sparseWorld(t, 90, 10, 300, 73)
	cfg := similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 4}
	base := similarity.NewScorer(g1, g2, cfg)
	ap := New(base, g2, nil, 3).WithApprox(index.Config{}, nil)
	if !ap.pruned() {
		t.Fatal("WithApprox did not prune")
	}

	re := base.Reweighted(similarity.Config{C1: 0.2, C2: 0.2, C3: 0.6, Landmarks: 4})
	derived := ap.WithScorer(re)
	full := New(re, g2, nil, 1)
	for u := 0; u < g1.NumNodes(); u++ {
		candidatesEqual(t, derived.QueryUserApprox(u, 5, index.ApproxParams{}), full.QueryBatch([]int{u}, 5, 0)[0],
			"reweighted approx parity")
	}
	s := derived.pruneStats()
	if s.Queries == 0 {
		t.Fatal("WithScorer dropped pruning: no queries counted")
	}
	if ap.pruneStats() != s {
		t.Fatal("derived world must share the stats block")
	}

	// The reverse composition reuses the pruning indexes: same pointers.
	prunedFirst := New(base, g2, nil, 3).WithPruning(index.Config{}, nil)
	both := prunedFirst.WithApprox(index.Config{}, nil)
	for i, sh := range both.Shards() {
		if sh.Index == nil || sh.Index != prunedFirst.Shards()[i].Index {
			t.Fatal("WithApprox over a pruned world must reuse the shard indexes")
		}
	}
}

// TestApproxRandomizedDegenerateParity sweeps randomized world shapes —
// sparse tiny communities, dense heavy overlap, skewed few-attribute
// worlds — through the forwards, against the exact scan.
func TestApproxRandomizedDegenerateParity(t *testing.T) {
	shapes := []struct {
		name         string
		n, comm, dim int
	}{
		{"sparse", 40, 4, 150},
		{"dense", 150, 25, 500},
		{"skewed", 120, 3, 80},
	}
	for si, shape := range shapes {
		for seed := int64(0); seed < 3; seed++ {
			g1, g2 := sparseWorld(t, shape.n, shape.comm, shape.dim, 83+int64(si)*10+seed)
			base := similarity.NewScorer(g1, g2, similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 4})
			full := New(base, g2, nil, 1)
			ap := New(base, g2, nil, 2).WithApprox(index.Config{}, nil)
			for u := 0; u < g1.NumNodes(); u++ {
				candidatesEqual(t, ap.QueryUserApprox(u, 7, index.ApproxParams{}), full.QueryBatch([]int{u}, 7, 0)[0],
					shape.name+" randomized degenerate parity")
			}
		}
	}
}

// TestApproxBudgetDeterministic pins repeatability and exactness at every
// old Budget setting: small budgets with Theta above 1, and a budget
// covering the whole population, all return the exact top-K.
func TestApproxBudgetDeterministic(t *testing.T) {
	g1, g2 := sparseWorld(t, 90, 9, 300, 97)
	base := similarity.NewScorer(g1, g2, similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 4})
	full := New(base, g2, nil, 1)
	ap := New(base, g2, nil, 2).WithApprox(index.Config{}, nil)

	for _, budget := range []int{1, 5, 20} {
		p := index.ApproxParams{Theta: 1.3, Budget: budget}
		for rep := 0; rep < 3; rep++ {
			candidatesEqual(t, ap.QueryUserApprox(3, 10, p), full.QueryBatch([]int{3}, 10, 0)[0], "budget determinism")
		}
	}
	ample := index.ApproxParams{Budget: g2.NumNodes() + 1}
	for u := 0; u < g1.NumNodes(); u++ {
		candidatesEqual(t, ap.QueryUserApprox(u, 8, ample), full.QueryBatch([]int{u}, 8, 0)[0], "ample budget parity")
	}
}

// TestApproxDegenerateK mirrors the exact TopK clamps.
func TestApproxDegenerateK(t *testing.T) {
	g1, g2 := sparseWorld(t, 30, 6, 200, 79)
	base := similarity.NewScorer(g1, g2, similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 3})
	ap := New(base, g2, nil, 2).WithApprox(index.Config{}, nil)
	full := New(base, g2, nil, 1)
	if got := ap.QueryUserApprox(0, g2.NumNodes()+50, index.ApproxParams{}); len(got) != g2.NumNodes() {
		t.Fatalf("k beyond population returned %d candidates, want %d", len(got), g2.NumNodes())
	}
	candidatesEqual(t, ap.QueryUserApprox(0, g2.NumNodes()+50, index.ApproxParams{}),
		full.QueryBatch([]int{0}, g2.NumNodes()+50, 0)[0], "k clamp approx parity")
}
