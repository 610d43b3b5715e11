package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// blobs generates two well-separated Gaussian clusters per class.
func blobs(rng *rand.Rand, classes, perClass, dim int, spread float64) (X [][]float64, y []int) {
	centers := make([][]float64, classes)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for j := range centers[c] {
			centers[c][j] = float64(c*7) + rng.NormFloat64()
		}
	}
	for c := 0; c < classes; c++ {
		for i := 0; i < perClass; i++ {
			row := make([]float64, dim)
			for j := range row {
				row[j] = centers[c][j] + rng.NormFloat64()*spread
			}
			X = append(X, row)
			y = append(y, c)
		}
	}
	return X, y
}

func accuracy(c Classifier, X [][]float64, y []int) float64 {
	hit := 0
	for i, row := range X {
		if c.Predict(row) == y[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(X))
}

func TestStandardizer(t *testing.T) {
	X := [][]float64{{1, 10}, {3, 10}}
	s := FitStandardizer(X)
	if s.Mean[0] != 2 || s.Mean[1] != 10 {
		t.Errorf("mean = %v", s.Mean)
	}
	got := s.Transform([]float64{3, 10})
	if math.Abs(got[0]-1) > 1e-12 {
		t.Errorf("standardized = %v, want [1 ...]", got)
	}
	// Zero-variance dimension: centered but not scaled.
	if got[1] != 0 {
		t.Errorf("zero-variance dim = %v, want 0", got[1])
	}
}

func TestValidateErrors(t *testing.T) {
	if _, err := validate(nil, nil); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := validate([][]float64{{1}}, []int{0, 1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := validate([][]float64{{1}, {1, 2}}, []int{0, 1}); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := validate([][]float64{{1}}, []int{-2}); err == nil {
		t.Error("negative label accepted")
	}
}

func TestKNNSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X, y := blobs(rng, 3, 30, 4, 0.3)
	c := NewKNN(3)
	if err := c.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(c, X, y); acc < 0.95 {
		t.Errorf("KNN train accuracy = %v", acc)
	}
	// Held-out points near the centers classify correctly.
	Xt, yt := blobs(rand.New(rand.NewSource(2)), 3, 10, 4, 0.3)
	if acc := accuracy(c, Xt, yt); acc < 0.8 {
		t.Errorf("KNN test accuracy = %v", acc)
	}
}

func TestKNNScoresSumPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	X, y := blobs(rng, 2, 10, 3, 0.5)
	c := NewKNN(3)
	if err := c.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	s := c.Scores(X[0])
	if len(s) != 2 {
		t.Fatalf("scores len = %d", len(s))
	}
	total := 0.0
	for _, x := range s {
		if x < 0 {
			t.Errorf("negative vote %v", x)
		}
		total += x
	}
	if total <= 0 {
		t.Error("no votes cast")
	}
}

func TestNN(t *testing.T) {
	c := NN()
	X := [][]float64{{0, 0}, {10, 10}}
	y := []int{0, 1}
	if err := c.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if c.Predict([]float64{1, 1}) != 0 || c.Predict([]float64{9, 9}) != 1 {
		t.Error("1-NN misclassified obvious points")
	}
}

func TestSMOBinarySeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	X, y := blobs(rng, 2, 25, 3, 0.4)
	c := NewSMO(SMOConfig{C: 1, Seed: 9})
	if err := c.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(c, X, y); acc < 0.95 {
		t.Errorf("SMO train accuracy = %v", acc)
	}
}

func TestSMOMulticlass(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	X, y := blobs(rng, 4, 20, 5, 0.4)
	c := NewSMO(SMOConfig{C: 1, Seed: 9})
	if err := c.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(c, X, y); acc < 0.9 {
		t.Errorf("SMO multiclass train accuracy = %v", acc)
	}
	if got := len(c.Scores(X[0])); got != 4 {
		t.Errorf("scores len = %d, want 4", got)
	}
}

func TestRLSCSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	X, y := blobs(rng, 3, 20, 4, 0.4)
	c := NewRLSC(1)
	if err := c.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(c, X, y); acc < 0.9 {
		t.Errorf("RLSC train accuracy = %v", acc)
	}
}

// solveSPD solves a·x = b for symmetric positive-definite a by Cholesky
// factorization and substitution.
func solveSPD(a *Matrix, b []float64) ([]float64, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	return CholeskySolve(l, b)
}

func TestCholeskySolveKnown(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 4)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 3)
	x, err := solveSPD(a, []float64{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	// Verify a·x = b.
	b, _ := a.MulVec(x)
	if math.Abs(b[0]-2) > 1e-9 || math.Abs(b[1]-5) > 1e-9 {
		t.Errorf("a·x = %v, want [2 5]", b)
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 5)
	a.Set(1, 0, 5)
	a.Set(1, 1, 1)
	if _, err := Cholesky(a); err == nil {
		t.Error("indefinite matrix accepted")
	}
	b := NewMatrix(2, 3)
	if _, err := Cholesky(b); err == nil {
		t.Error("non-square matrix accepted")
	}
}

// Property: solveSPD solves random SPD systems A = BᵀB + I.
func TestCholeskySolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		bmat := make([][]float64, n)
		for i := range bmat {
			bmat[i] = make([]float64, n)
			for j := range bmat[i] {
				bmat[i][j] = rng.NormFloat64()
			}
		}
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := 0.0
				for k := 0; k < n; k++ {
					v += bmat[k][i] * bmat[k][j]
				}
				if i == j {
					v += 1
				}
				a.Set(i, j, v)
			}
		}
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		x, err := solveSPD(a, rhs)
		if err != nil {
			return false
		}
		got, _ := a.MulVec(x)
		for i := range rhs {
			if math.Abs(got[i]-rhs[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDotAndSqDist(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Error("Dot wrong")
	}
	if SqDist([]float64{0, 0}, []float64{3, 4}) != 25 {
		t.Error("SqDist wrong")
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax([]float64{1, 5, 3}) != 1 {
		t.Error("ArgMax wrong")
	}
	if ArgMax(nil) != -1 {
		t.Error("ArgMax(nil) must be -1")
	}
	if ArgMax([]float64{2, 2}) != 0 {
		t.Error("ArgMax tie must pick first")
	}
}

func TestClassifierDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	X, y := blobs(rng, 3, 15, 4, 0.5)
	mk := []func() Classifier{
		func() Classifier { return NewKNN(3) },
		func() Classifier { return NewSMO(SMOConfig{C: 1, Seed: 42}) },
		func() Classifier { return NewRLSC(1) },
	}
	for _, f := range mk {
		a, b := f(), f()
		if err := a.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		if err := b.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		for i := range X {
			if a.Predict(X[i]) != b.Predict(X[i]) {
				t.Errorf("classifier %T not deterministic", a)
				break
			}
		}
	}
}

func TestNaiveBayesSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	X, y := blobs(rng, 3, 25, 4, 0.4)
	c := NewNaiveBayes()
	if err := c.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(c, X, y); acc < 0.95 {
		t.Errorf("NaiveBayes train accuracy = %v", acc)
	}
	Xt, yt := blobs(rand.New(rand.NewSource(9)), 3, 10, 4, 0.4)
	if acc := accuracy(c, Xt, yt); acc < 0.8 {
		t.Errorf("NaiveBayes test accuracy = %v", acc)
	}
}

func TestNaiveBayesScoresFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	X, y := blobs(rng, 2, 10, 3, 0.5)
	// Add a constant dimension: the variance floor must keep scores finite.
	for i := range X {
		X[i] = append(X[i], 7)
	}
	c := NewNaiveBayes()
	if err := c.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for _, s := range c.Scores(X[0]) {
		if math.IsNaN(s) || math.IsInf(s, 1) {
			t.Errorf("non-finite score %v", s)
		}
	}
}
