package stylometry

import (
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"testing/quick"
)

func TestUserAttributes(t *testing.T) {
	posts := [][]float64{
		{1, 0, 2, 0},
		{0, 0, 3, 0},
		{4, 0, 0, 0},
	}
	a := UserAttributes(posts)
	// Feature 0 fires in 2 posts, feature 2 in 2 posts.
	if a.Len() != 2 || a.Idx[0] != 0 || a.Idx[1] != 2 {
		t.Fatalf("attribute set %+v, want features 0 and 2", a)
	}
	for k, idx := range a.Idx {
		if idx == 0 && a.Weight[k] != 2 {
			t.Errorf("weight of attr 0 = %d, want 2", a.Weight[k])
		}
		if idx == 2 && a.Weight[k] != 2 {
			t.Errorf("weight of attr 2 = %d, want 2", a.Weight[k])
		}
	}
	if a.TotalWeight() != 4 {
		t.Errorf("total weight = %d, want 4", a.TotalWeight())
	}
}

func TestUserAttributesEmpty(t *testing.T) {
	a := UserAttributes(nil)
	if a.Len() != 0 || a.TotalWeight() != 0 {
		t.Error("empty post set must yield empty attributes")
	}
}

func TestJaccardKnown(t *testing.T) {
	a := AttrSet{Idx: []int32{1, 2, 3}, Weight: []int32{1, 1, 1}}
	b := AttrSet{Idx: []int32{2, 3, 4}, Weight: []int32{1, 1, 1}}
	if got := Jaccard(a, b); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Jaccard = %v, want 0.5", got)
	}
}

func TestWeightedJaccardKnown(t *testing.T) {
	a := AttrSet{Idx: []int32{1, 2}, Weight: []int32{3, 1}}
	b := AttrSet{Idx: []int32{2, 3}, Weight: []int32{2, 4}}
	// inter = min over shared {2}: 1; union = 3 + 2 + 4 = 9.
	if got := WeightedJaccard(a, b); math.Abs(got-1.0/9) > 1e-12 {
		t.Errorf("WeightedJaccard = %v, want 1/9", got)
	}
}

func TestJaccardEmpty(t *testing.T) {
	if Jaccard(AttrSet{}, AttrSet{}) != 0 {
		t.Error("Jaccard of empty sets must be 0")
	}
	if WeightedJaccard(AttrSet{}, AttrSet{}) != 0 {
		t.Error("WeightedJaccard of empty sets must be 0")
	}
}

// randomAttrSet builds a random valid attribute set.
func randomAttrSet(rng *rand.Rand) AttrSet {
	n := rng.Intn(12)
	var s AttrSet
	idx := int32(0)
	for i := 0; i < n; i++ {
		idx += int32(1 + rng.Intn(4))
		s.Idx = append(s.Idx, idx)
		s.Weight = append(s.Weight, int32(1+rng.Intn(5)))
	}
	return s
}

func TestJaccardProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomAttrSet(rng), randomAttrSet(rng)
		ja, jb := Jaccard(a, b), Jaccard(b, a)
		wa, wb := WeightedJaccard(a, b), WeightedJaccard(b, a)
		// Symmetry.
		if ja != jb || wa != wb {
			return false
		}
		// Bounds.
		if ja < 0 || ja > 1 || wa < 0 || wa > 1 {
			return false
		}
		// Identity: J(a, a) == 1 for non-empty a.
		if a.Len() > 0 && (Jaccard(a, a) != 1 || WeightedJaccard(a, a) != 1) {
			return false
		}
		return true
	}
	if err := quick.Check(f, quickConfig(300)); err != nil {
		t.Error(err)
	}
}

func TestMeanVector(t *testing.T) {
	got := MeanVector([][]float64{{1, 2}, {3, 4}})
	if got[0] != 2 || got[1] != 3 {
		t.Errorf("MeanVector = %v, want [2 3]", got)
	}
	if MeanVector(nil) != nil {
		t.Error("MeanVector(nil) must be nil")
	}
}

// quickConfig is the configuration of this package's testing/quick
// properties: maxCount inputs drawn from a fixed seed, so every run checks
// the same ones. DEHEALTH_QUICK_SEED names another seed; CI reruns the
// properties under a fresh, printed one.
func quickConfig(maxCount int) *quick.Config {
	seed, err := strconv.ParseInt(os.Getenv("DEHEALTH_QUICK_SEED"), 10, 64)
	if err != nil {
		seed = 1
	}
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(seed))}
}
