// Package svm implements the parallel and scalable Support Vector Machine
// of the paper's remote-sensing case study (§III, ref [16]: an MPI-based
// SVM used to speed up classification of RS images on CPU-only modules).
//
// The core is a simplified-SMO dual solver with linear and RBF kernels;
// parallel training uses the cascade-SVM scheme (shards are trained
// independently, their support vectors merged pairwise up a binary tree
// and retrained), running over the mpi runtime. The quantum-annealer
// study's bootstrap ensembles live in package qa.
package svm

import (
	"fmt"
	"math"
	"math/rand"
)

// Kernel evaluates a Mercer kernel between two feature vectors.
type Kernel interface {
	Eval(a, b []float64) float64
	Name() string
}

// RBF is the Gaussian kernel exp(-γ‖a-b‖²).
type RBF struct{ Gamma float64 }

// Eval returns exp(-γ‖a-b‖²).
func (k RBF) Eval(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Exp(-k.Gamma * s)
}

// Name returns "rbf".
func (k RBF) Name() string { return "rbf" }

// Config tunes the SMO solver.
type Config struct {
	Kernel Kernel // default RBF{Gamma: 0.5}
	Seed   int64
}

// The SMO solver's constants: the box constraint C, the KKT tolerance,
// the passes without change before it stops, and its hard cap on passes.
const (
	boxC      = 1
	kktTol    = 1e-3
	maxPasses = 5
	maxIter   = 200
)

func (c Config) withDefaults() Config {
	if c.Kernel == nil {
		c.Kernel = RBF{Gamma: 0.5}
	}
	return c
}

// Model is a trained binary SVM. Labels are ±1.
type Model struct {
	SVs    [][]float64
	Coef   []float64 // αᵢ·yᵢ per support vector
	B      float64
	Kernel Kernel
}

// Train fits a binary SVM with simplified SMO (Platt's algorithm in the
// CS229 simplification: random second-choice working set, exact 2-point
// analytic solve). Labels must be ±1.
func Train(x [][]float64, y []int, cfg Config) *Model {
	cfg = cfg.withDefaults()
	n := len(x)
	if n == 0 || len(y) != n {
		panic(fmt.Sprintf("svm: bad training set sizes x=%d y=%d", n, len(y)))
	}
	for _, l := range y {
		if l != 1 && l != -1 {
			panic(fmt.Sprintf("svm: labels must be ±1, got %d", l))
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Precompute the kernel matrix (training sets here are cascade shards
	// or annealer sub-samples: small by construction).
	k := make([][]float64, n)
	for i := range k {
		k[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			v := cfg.Kernel.Eval(x[i], x[j])
			k[i][j] = v
			k[j][i] = v
		}
	}

	alpha := make([]float64, n)
	b := 0.0
	yf := make([]float64, n)
	for i, l := range y {
		yf[i] = float64(l)
	}
	f := func(i int) float64 {
		s := b
		for j := 0; j < n; j++ {
			if alpha[j] != 0 {
				s += alpha[j] * yf[j] * k[i][j]
			}
		}
		return s
	}

	passes, iter := 0, 0
	for passes < maxPasses && iter < maxIter {
		changed := 0
		for i := 0; i < n; i++ {
			ei := f(i) - yf[i]
			if (yf[i]*ei < -kktTol && alpha[i] < boxC) || (yf[i]*ei > kktTol && alpha[i] > 0) {
				j := rng.Intn(n - 1)
				if j >= i {
					j++
				}
				ej := f(j) - yf[j]
				ai, aj := alpha[i], alpha[j]
				var lo, hi float64
				if y[i] != y[j] {
					lo = math.Max(0, aj-ai)
					hi = math.Min(boxC, boxC+aj-ai)
				} else {
					lo = math.Max(0, ai+aj-boxC)
					hi = math.Min(boxC, ai+aj)
				}
				if lo == hi {
					continue
				}
				eta := 2*k[i][j] - k[i][i] - k[j][j]
				if eta >= 0 {
					continue
				}
				ajNew := aj - yf[j]*(ei-ej)/eta
				if ajNew > hi {
					ajNew = hi
				} else if ajNew < lo {
					ajNew = lo
				}
				if math.Abs(ajNew-aj) < 1e-7 {
					continue
				}
				aiNew := ai + yf[i]*yf[j]*(aj-ajNew)
				b1 := b - ei - yf[i]*(aiNew-ai)*k[i][i] - yf[j]*(ajNew-aj)*k[i][j]
				b2 := b - ej - yf[i]*(aiNew-ai)*k[i][j] - yf[j]*(ajNew-aj)*k[j][j]
				switch {
				case aiNew > 0 && aiNew < boxC:
					b = b1
				case ajNew > 0 && ajNew < boxC:
					b = b2
				default:
					b = (b1 + b2) / 2
				}
				alpha[i], alpha[j] = aiNew, ajNew
				changed++
			}
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
		iter++
	}

	m := &Model{Kernel: cfg.Kernel, B: b}
	for i := 0; i < n; i++ {
		if alpha[i] > 1e-8 {
			sv := append([]float64(nil), x[i]...)
			m.SVs = append(m.SVs, sv)
			m.Coef = append(m.Coef, alpha[i]*yf[i])
		}
	}
	return m
}

// Decision returns the signed margin of a sample.
func (m *Model) Decision(x []float64) float64 {
	s := m.B
	for i, sv := range m.SVs {
		s += m.Coef[i] * m.Kernel.Eval(sv, x)
	}
	return s
}

// Predict returns the ±1 label of a sample.
func (m *Model) Predict(x []float64) int {
	if m.Decision(x) >= 0 {
		return 1
	}
	return -1
}

// Accuracy evaluates the model on labeled data (labels ±1).
func (m *Model) Accuracy(x [][]float64, y []int) float64 {
	if len(x) == 0 {
		return 0
	}
	correct := 0
	for i := range x {
		if m.Predict(x[i]) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(x))
}
