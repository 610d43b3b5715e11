package ml

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
)

// SMOConfig parametrizes the SMO trainer.
type SMOConfig struct {
	// C is the soft-margin penalty (default 1).
	C float64
	// Tol is the KKT violation tolerance (default 1e-3).
	Tol float64
	// MaxPasses is the number of full passes without changes before
	// convergence is declared (default 3).
	MaxPasses int
	// MaxIter caps total optimization sweeps (default 200).
	MaxIter int
	// Seed drives the deterministic second-choice heuristic.
	Seed int64
}

func (c *SMOConfig) fill() {
	if c.C <= 0 {
		c.C = 1
	}
	if c.Tol <= 0 {
		c.Tol = 1e-3
	}
	if c.MaxPasses <= 0 {
		c.MaxPasses = 3
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 200
	}
}

// binarySMO is a linear two-class SVM trained with Platt's SMO
// (simplified variant). Labels are -1/+1. Training runs in the dual over
// the linear kernel's Gram matrix; the trained machine keeps only the
// collapsed primal weight vector w and bias b, so decision() costs O(d).
type binarySMO struct {
	w []float64
	b float64
}

// trainBinarySMO fits a binary SVM on x with labels y in {-1,+1}.
func trainBinarySMO(x [][]float64, y []float64, cfg SMOConfig) *binarySMO {
	cfg.fill()
	m := len(x)
	s := &binarySMO{}
	alpha := make([]float64, m)
	rng := rand.New(rand.NewSource(cfg.Seed + int64(m)))

	// Precompute the Gram matrix; training sets here are small (refined DA
	// trains on candidate-set posts).
	K := make([][]float64, m)
	for i := range K {
		K[i] = make([]float64, m)
		for j := 0; j <= i; j++ {
			K[i][j] = Dot(x[i], x[j])
			K[j][i] = K[i][j]
		}
	}
	f := func(i int) float64 {
		var s2 float64
		for j := 0; j < m; j++ {
			if alpha[j] != 0 {
				s2 += alpha[j] * y[j] * K[i][j]
			}
		}
		return s2 + s.b
	}

	passes, iter := 0, 0
	for passes < cfg.MaxPasses && iter < cfg.MaxIter {
		iter++
		changed := 0
		for i := 0; i < m; i++ {
			Ei := f(i) - y[i]
			if !((y[i]*Ei < -cfg.Tol && alpha[i] < cfg.C) || (y[i]*Ei > cfg.Tol && alpha[i] > 0)) {
				continue
			}
			j := rng.Intn(m - 1)
			if j >= i {
				j++
			}
			Ej := f(j) - y[j]
			ai, aj := alpha[i], alpha[j]
			var L, H float64
			if y[i] != y[j] {
				L = math.Max(0, aj-ai)
				H = math.Min(cfg.C, cfg.C+aj-ai)
			} else {
				L = math.Max(0, ai+aj-cfg.C)
				H = math.Min(cfg.C, ai+aj)
			}
			if L == H {
				continue
			}
			eta := 2*K[i][j] - K[i][i] - K[j][j]
			if eta >= 0 {
				continue
			}
			newAj := aj - y[j]*(Ei-Ej)/eta
			if newAj > H {
				newAj = H
			} else if newAj < L {
				newAj = L
			}
			if math.Abs(newAj-aj) < 1e-5 {
				continue
			}
			newAi := ai + y[i]*y[j]*(aj-newAj)
			b1 := s.b - Ei - y[i]*(newAi-ai)*K[i][i] - y[j]*(newAj-aj)*K[i][j]
			b2 := s.b - Ej - y[i]*(newAi-ai)*K[i][j] - y[j]*(newAj-aj)*K[j][j]
			alpha[i], alpha[j] = newAi, newAj
			switch {
			case newAi > 0 && newAi < cfg.C:
				s.b = b1
			case newAj > 0 && newAj < cfg.C:
				s.b = b2
			default:
				s.b = (b1 + b2) / 2
			}
			changed++
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}
	if m > 0 {
		s.w = make([]float64, len(x[0]))
		for i, a := range alpha {
			if a == 0 {
				continue
			}
			ay := a * y[i]
			for j, xj := range x[i] {
				s.w[j] += ay * xj
			}
		}
	}
	return s
}

// decision returns the signed decision value for q.
func (s *binarySMO) decision(q []float64) float64 { return Dot(s.w, q) + s.b }

// SMO is a multiclass SVM using one-vs-one binary SMO machines with voting,
// the multiclass scheme of Weka's SMO that the paper's evaluation uses.
type SMO struct {
	Config SMOConfig

	std      *Standardizer
	machines []ovoMachine
	classes  int
}

type ovoMachine struct {
	a, b int // classes: decision > 0 votes a, else b
	svm  *binarySMO
}

// NewSMO returns an SMO classifier with the given configuration.
func NewSMO(cfg SMOConfig) *SMO { return &SMO{Config: cfg} }

// Fit trains C(C-1)/2 pairwise machines on the standardized data. Machines
// are independent, so they train in parallel across GOMAXPROCS workers.
func (c *SMO) Fit(X [][]float64, y []int) error {
	classes, err := validate(X, y)
	if err != nil {
		return err
	}
	c.classes = classes
	c.std = FitStandardizer(X)
	Xs := c.std.TransformAll(X)

	byClass := make([][]int, classes)
	for i, cl := range y {
		byClass[cl] = append(byClass[cl], i)
	}
	type pair struct{ a, b int }
	var pairs []pair
	for a := 0; a < classes; a++ {
		for b := a + 1; b < classes; b++ {
			if len(byClass[a]) > 0 && len(byClass[b]) > 0 {
				pairs = append(pairs, pair{a, b})
			}
		}
	}
	c.machines = make([]ovoMachine, len(pairs))

	workers := runtime.GOMAXPROCS(0)
	if workers > len(pairs) {
		workers = len(pairs)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pi := range jobs {
				a, b := pairs[pi].a, pairs[pi].b
				px := make([][]float64, 0, len(byClass[a])+len(byClass[b]))
				py := make([]float64, 0, cap(px))
				for _, i := range byClass[a] {
					px = append(px, Xs[i])
					py = append(py, 1)
				}
				for _, i := range byClass[b] {
					px = append(px, Xs[i])
					py = append(py, -1)
				}
				cfg := c.Config
				cfg.Seed += int64(a*classes + b)
				c.machines[pi] = ovoMachine{a: a, b: b, svm: trainBinarySMO(px, py, cfg)}
			}
		}()
	}
	for pi := range pairs {
		jobs <- pi
	}
	close(jobs)
	wg.Wait()
	return nil
}

// Scores returns per-class one-vs-one votes, each weighted by the absolute
// decision margin squashed to (0,1) so that confident machines count more.
func (c *SMO) Scores(x []float64) []float64 {
	if c.std == nil {
		panic("ml: SMO.Scores before Fit")
	}
	q := c.std.Transform(x)
	votes := make([]float64, c.classes)
	for _, m := range c.machines {
		d := m.svm.decision(q)
		w := 1 / (1 + math.Exp(-math.Abs(d))) // in [0.5, 1)
		if d > 0 {
			votes[m.a] += w
		} else {
			votes[m.b] += w
		}
	}
	return votes
}

// Predict returns the class with the most pairwise votes.
func (c *SMO) Predict(x []float64) int { return ArgMax(c.Scores(x)) }

// String describes the classifier.
func (c *SMO) String() string { return fmt.Sprintf("SMO(C=%g)", c.Config.C) }
