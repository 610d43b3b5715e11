package features

import (
	"math/rand"
	"sync"
	"testing"

	"dehealth/internal/corpus"
	"dehealth/internal/stylometry"
	"dehealth/internal/synth"
)

func testForum(t *testing.T, users, posts int, seed int64) *corpus.Dataset {
	t.Helper()
	u := synth.NewUniverse(users, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	members := synth.Members(u, users, rng)
	cfg := synth.WebMDLike(users, seed+2)
	cfg.FixedPosts = posts
	return synth.Generate(cfg, u, members)
}

// TestStoreMatchesExtractAll proves the store's vectors and attribute sets
// are bit-identical to the serial seed path (Extractor.ExtractAll over
// UserTexts + UserAttributes).
func TestStoreMatchesExtractAll(t *testing.T) {
	d := testForum(t, 25, 8, 3)
	ex := NewExtractor(d.Texts(), 50)
	s := Build(d, ex, Options{})

	texts := d.UserTexts()
	if got, want := s.NumPosts(), d.NumPosts(); got != want {
		t.Fatalf("NumPosts = %d, want %d", got, want)
	}
	if got, want := s.Dim(), ex.NumFeatures(); got != want {
		t.Fatalf("Dim = %d, want %d", got, want)
	}
	for u, ts := range texts {
		want := ex.ExtractAll(ts)
		got := s.perUser[u]
		if len(got) != len(want) {
			t.Fatalf("user %d: %d vectors, want %d", u, len(got), len(want))
		}
		for k := range want {
			for i := range want[k] {
				if got[k][i] != want[k][i] {
					t.Fatalf("user %d post %d dim %d: %v != %v", u, k, i, got[k][i], want[k][i])
				}
			}
		}
		wantAttrs := stylometry.UserAttributes(want)
		gotAttrs := s.Attrs()[u]
		if len(gotAttrs.Idx) != len(wantAttrs.Idx) {
			t.Fatalf("user %d: attr set size %d, want %d", u, len(gotAttrs.Idx), len(wantAttrs.Idx))
		}
		for i := range wantAttrs.Idx {
			if gotAttrs.Idx[i] != wantAttrs.Idx[i] || gotAttrs.Weight[i] != wantAttrs.Weight[i] {
				t.Fatalf("user %d attr %d: (%d,%d) != (%d,%d)", u, i,
					gotAttrs.Idx[i], gotAttrs.Weight[i], wantAttrs.Idx[i], wantAttrs.Weight[i])
			}
		}
	}
}

// TestStoreWorkerCountIrrelevant proves the flat matrix does not depend on
// the worker-pool size.
func TestStoreWorkerCountIrrelevant(t *testing.T) {
	d := testForum(t, 30, 6, 9)
	ex := NewExtractor(d.Texts(), 50)
	serial := Build(d, ex, Options{Workers: 1})
	parallel := Build(d, ex, Options{Workers: 8})
	if len(serial.flat) != len(parallel.flat) {
		t.Fatalf("flat sizes differ: %d vs %d", len(serial.flat), len(parallel.flat))
	}
	for i := range serial.flat {
		if serial.flat[i] != parallel.flat[i] {
			t.Fatalf("flat[%d]: %v != %v", i, serial.flat[i], parallel.flat[i])
		}
	}
}

// TestStoreRowViews checks that per-post rows and per-user slices are views
// into the same flat backing, not copies.
func TestStoreRowViews(t *testing.T) {
	d := testForum(t, 10, 4, 5)
	ex := NewExtractor(d.Texts(), 20)
	s := Build(d, ex, Options{})
	byUser := d.PostsByUser()
	for u, idxs := range byUser {
		vs := s.perUser[u]
		for k, i := range idxs {
			if &vs[k][0] != &s.rows[i][0] {
				t.Fatalf("user %d post %d: per-user vector is a copy, not a view", u, k)
			}
		}
	}
}

// TestConcurrentBuild runs several store constructions over one shared,
// already-fitted extractor from many goroutines — the multi-dataset
// preparation pattern — and is meant to run under -race.
func TestConcurrentBuild(t *testing.T) {
	d := testForum(t, 20, 6, 7)
	ex := NewExtractor(d.Texts(), 50)
	ref := Build(d, ex, Options{Workers: 1})

	var wg sync.WaitGroup
	stores := make([]*Store, 4)
	for g := range stores {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stores[g] = Build(d, ex, Options{Workers: 4})
		}(g)
	}
	wg.Wait()
	for g, s := range stores {
		for i := range ref.flat {
			if s.flat[i] != ref.flat[i] {
				t.Fatalf("goroutine %d: flat[%d] = %v, want %v", g, i, s.flat[i], ref.flat[i])
			}
		}
	}
}

// TestConcurrentUDA hammers the lazy UDA construction from many goroutines;
// every caller must observe the same cached graph (run under -race).
func TestConcurrentUDA(t *testing.T) {
	d := testForum(t, 15, 5, 11)
	ex := NewExtractor(d.Texts(), 30)
	s := Build(d, ex, Options{})
	var wg sync.WaitGroup
	got := make([]int, 8)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = s.UDA().NumEdges()
		}(g)
	}
	wg.Wait()
	for g := 1; g < len(got); g++ {
		if got[g] != got[0] {
			t.Fatalf("goroutine %d saw %d edges, goroutine 0 saw %d", g, got[g], got[0])
		}
	}
}

// TestBuildPairSharesExtractor checks both stores of a pair use one fitted
// feature space.
func TestBuildPairSharesExtractor(t *testing.T) {
	d := testForum(t, 20, 6, 13)
	rng := rand.New(rand.NewSource(14))
	split := corpus.SplitClosedWorld(d, 0.5, rng)
	anonS, auxS := BuildPair(split.Anon, split.Aux, 50, Options{})
	if anonS.Extractor != auxS.Extractor {
		t.Error("pair stores do not share the extractor")
	}
	if anonS.Dim() != auxS.Dim() {
		t.Errorf("pair dims differ: %d vs %d", anonS.Dim(), auxS.Dim())
	}
	if auxS.Dim() == stylometry.New().NumFeatures() {
		t.Error("extractor bigram block not fitted")
	}
}
