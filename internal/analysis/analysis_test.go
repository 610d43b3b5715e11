package analysis

import (
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"testing/quick"
)

func params(gap, width float64, n int) Params {
	return Params{
		Lambda:    0.5 - gap/2,
		LambdaBar: 0.5 + gap/2,
		Theta:     width,
		ThetaBar:  width,
		N1:        n,
		N2:        n,
	}
}

func TestValidate(t *testing.T) {
	if err := params(0.4, 0.1, 100).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bad := params(0, 0.1, 100)
	if err := bad.Validate(); err == nil {
		t.Error("λ == λ̄ accepted")
	}
	bad2 := params(0.4, 0.1, 100)
	bad2.Theta = -1
	if err := bad2.Validate(); err == nil {
		t.Error("negative θ accepted")
	}
	bad3 := params(0.4, 0, 100)
	if err := bad3.Validate(); err == nil {
		t.Error("δ == 0 accepted")
	}
}

func TestDeltaAndGap(t *testing.T) {
	p := Params{Lambda: 0.2, LambdaBar: 0.7, Theta: 0.3, ThetaBar: 0.1}
	if p.Delta() != 0.3 {
		t.Errorf("Delta = %v", p.Delta())
	}
	if math.Abs(p.Gap()-0.5) > 1e-12 {
		t.Errorf("Gap = %v", p.Gap())
	}
}

func TestBoundsIncreaseWithGap(t *testing.T) {
	// Larger separation => stronger guarantees, monotone in the gap.
	prevT1, prevEx, prevTopK := -1.0, -1.0, -1.0
	for _, gap := range []float64{0.1, 0.2, 0.4, 0.6, 0.8} {
		p := params(gap, 0.1, 100)
		t1 := PairwiseSuccessLB(p)
		ex := ExactSuccessLB(p)
		tk := TopKSuccessLB(p, 10)
		if t1 < prevT1 || ex < prevEx || tk < prevTopK {
			t.Errorf("bounds not monotone at gap %v", gap)
		}
		prevT1, prevEx, prevTopK = t1, ex, tk
	}
}

func TestBoundsClamped(t *testing.T) {
	// Tiny gap, huge range: the Chernoff bound is vacuous; must clamp to 0.
	p := params(0.01, 1, 1000)
	for _, b := range []float64{
		PairwiseSuccessLB(p),
		ExactSuccessLB(p),
		TopKSuccessLB(p, 5),
		GroupSuccessLB(p, 0.5),
		GroupTopKSuccessLB(p, 0.5, 5),
	} {
		if b < 0 || b > 1 {
			t.Errorf("bound %v out of [0,1]", b)
		}
	}
}

func TestTopKDegenerate(t *testing.T) {
	p := params(0.2, 0.2, 50)
	if TopKSuccessLB(p, 50) != 1 {
		t.Error("K = n2 must give probability 1")
	}
	if TopKSuccessLB(p, 100) != 1 {
		t.Error("K > n2 must give probability 1")
	}
	if !AASTopKCondition(p, 50) {
		t.Error("K >= n2 condition must hold trivially")
	}
}

func TestTopKEasierThanExact(t *testing.T) {
	// Top-K success dominates exact success for every K >= 1.
	for _, gap := range []float64{0.2, 0.4, 0.6} {
		p := params(gap, 0.15, 200)
		ex := ExactSuccessLB(p)
		for _, k := range []int{1, 10, 100} {
			if TopKSuccessLB(p, k) < ex-1e-12 {
				t.Errorf("TopK(%d) bound below exact bound at gap %v", k, gap)
			}
		}
	}
}

func TestGroupHarderThanSingle(t *testing.T) {
	p := params(0.6, 0.05, 100)
	if GroupSuccessLB(p, 1.0) > ExactSuccessLB(p)+1e-12 {
		t.Error("de-anonymizing everyone cannot be easier than one user")
	}
	if GroupSuccessLB(p, 0) != 0 {
		t.Error("alpha = 0 must return 0")
	}
	if GroupSuccessLB(p, 2) != 0 {
		t.Error("alpha > 1 must return 0")
	}
}

func TestAASConditions(t *testing.T) {
	// Enormous gap, tiny ranges: all conditions hold.
	strong := Params{Lambda: 0, LambdaBar: 1, Theta: 0.01, ThetaBar: 0.01, N1: 100, N2: 100}
	if !AASPairwiseCondition(strong) || !AASExactCondition(strong) ||
		!AASGroupCondition(strong, 0.5) || !AASTopKCondition(strong, 5) ||
		!AASGroupTopKCondition(strong, 0.5, 5) {
		t.Error("strong separation must satisfy all a.a.s. conditions")
	}
	// Overlapping distributions: none hold.
	weak := params(0.05, 0.5, 100)
	if AASPairwiseCondition(weak) || AASExactCondition(weak) ||
		AASGroupCondition(weak, 0.5) || AASTopKCondition(weak, 5) {
		t.Error("weak separation must fail the a.a.s. conditions")
	}
}

// The soundness check: Monte-Carlo estimates of the true success
// probabilities must dominate every lower bound.
func TestBoundsSoundAgainstSimulation(t *testing.T) {
	configs := []Params{
		params(0.6, 0.1, 50),
		params(0.4, 0.15, 100),
		params(0.3, 0.2, 80),
		params(0.2, 0.25, 60),
	}
	const trials = 4000
	for i, p := range configs {
		sim := NewSimulator(p, int64(i))
		if est, lb := sim.EstimatePairwise(trials), PairwiseSuccessLB(p); est < lb-0.02 {
			t.Errorf("config %d: pairwise estimate %v below bound %v", i, est, lb)
		}
		if est, lb := sim.EstimateExact(trials/4), ExactSuccessLB(p); est < lb-0.02 {
			t.Errorf("config %d: exact estimate %v below bound %v", i, est, lb)
		}
		if est, lb := sim.EstimateTopK(trials/4, 10), TopKSuccessLB(p, 10); est < lb-0.02 {
			t.Errorf("config %d: topK estimate %v below bound %v", i, est, lb)
		}
		if est, lb := sim.EstimateGroup(trials/8, 0.2), GroupSuccessLB(p, 0.2); est < lb-0.05 {
			t.Errorf("config %d: group estimate %v below bound %v", i, est, lb)
		}
	}
}

// Property: for random separated configurations the Theorem 1 bound never
// exceeds the simulated pairwise success rate.
func TestPairwiseBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gap := 0.2 + 0.6*rng.Float64()
		width := 0.05 + 0.2*rng.Float64()
		p := params(gap, width, 50)
		sim := NewSimulator(p, seed)
		return sim.EstimatePairwise(1500) >= PairwiseSuccessLB(p)-0.05
	}
	if err := quick.Check(f, quickConfig(30)); err != nil {
		t.Error(err)
	}
}

// The argmax direction: when λ > λ̄ the model picks the largest f instead.
func TestInvertedDistance(t *testing.T) {
	p := Params{Lambda: 0.8, LambdaBar: 0.2, Theta: 0.1, ThetaBar: 0.1, N1: 50, N2: 50}
	sim := NewSimulator(p, 3)
	if est := sim.EstimatePairwise(2000); est < 0.95 {
		t.Errorf("inverted-direction success estimate %v, want ~1", est)
	}
	if est := sim.EstimateExact(500); est < 0.9 {
		t.Errorf("inverted-direction exact estimate %v", est)
	}
}

func TestGroupTopKBounds(t *testing.T) {
	p := params(0.5, 0.1, 100)
	// Group Top-K is no easier than group-exact at K >= 1 and no harder
	// than single-user Top-K.
	if GroupTopKSuccessLB(p, 0.5, 10) < GroupSuccessLB(p, 0.5)-1e-12 {
		t.Error("group Top-K bound below group exact bound")
	}
	if GroupTopKSuccessLB(p, 1.0/float64(p.N1), 10) > TopKSuccessLB(p, 10)+1e-9 {
		// α = 1/n1 is a single user: bounds should essentially coincide
		// (the group bound is the looser union bound).
		t.Log("note: single-user group bound exceeds Top-K bound; acceptable slack")
	}
	if GroupTopKSuccessLB(p, 0, 10) != 0 || GroupTopKSuccessLB(p, 2, 10) != 0 {
		t.Error("invalid alpha must return 0")
	}
	if GroupTopKSuccessLB(p, 0.5, p.N2) != 1 {
		t.Error("K = n2 must give probability 1")
	}
}

func TestGroupTopKConditionMonotone(t *testing.T) {
	// A growing gap eventually satisfies the condition; once satisfied it
	// stays satisfied for larger gaps.
	satisfied := false
	for gap := 0.05; gap <= 3.0; gap += 0.05 {
		p := Params{Lambda: 0, LambdaBar: gap, Theta: 0.1, ThetaBar: 0.1, N1: 50, N2: 50}
		ok := AASGroupTopKCondition(p, 0.5, 5)
		if satisfied && !ok {
			t.Fatalf("condition flipped back to false at gap %v", gap)
		}
		if ok {
			satisfied = true
		}
	}
	if !satisfied {
		t.Error("condition never satisfied even at huge gaps")
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
