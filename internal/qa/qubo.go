// Package qa simulates the MSA's Quantum Module (§II, §III-C): a D-Wave
// style quantum annealer that samples low-energy states of QUBO
// (quadratic unconstrained binary optimization) problems.
//
// The physical annealer is replaced by simulated annealing — the standard
// classical surrogate — while the device profiles enforce the real
// machines' limits (2000Q: 2000 qubits; Advantage: 5000 qubits / 35000
// couplers), which is what produces the paper's observed constraints:
// binary classification only, training-set sub-sampling, and ensembles
// (§III-C, ref [11]).
package qa

import (
	"fmt"
	"math"
	"math/rand"
)

// QUBO is minimize xᵀQx over x ∈ {0,1}ⁿ with Q upper-triangular: linear
// terms on the diagonal, couplings strictly above it.
type QUBO struct {
	N int
	Q [][]float64
}

// NewQUBO allocates an n-variable problem with zero coefficients.
func NewQUBO(n int) *QUBO {
	if n <= 0 {
		panic(fmt.Sprintf("qa: QUBO size must be positive, got %d", n))
	}
	q := make([][]float64, n)
	for i := range q {
		q[i] = make([]float64, n)
	}
	return &QUBO{N: n, Q: q}
}

// AddLinear accumulates a bias onto variable i.
func (q *QUBO) AddLinear(i int, v float64) { q.Q[i][i] += v }

// AddCoupling accumulates a coupling between distinct variables i and j
// (stored canonically with i < j).
func (q *QUBO) AddCoupling(i, j int, v float64) {
	if i == j {
		panic("qa: use AddLinear for diagonal terms")
	}
	if i > j {
		i, j = j, i
	}
	q.Q[i][j] += v
}

// Energy evaluates xᵀQx for a binary assignment.
func (q *QUBO) Energy(x []int) float64 {
	if len(x) != q.N {
		panic(fmt.Sprintf("qa: assignment length %d for %d-variable QUBO", len(x), q.N))
	}
	e := 0.0
	for i := 0; i < q.N; i++ {
		if x[i] == 0 {
			continue
		}
		e += q.Q[i][i]
		for j := i + 1; j < q.N; j++ {
			if x[j] != 0 {
				e += q.Q[i][j]
			}
		}
	}
	return e
}

// Couplers counts the nonzero off-diagonal couplings (the resource the
// Advantage profile limits to 35000).
func (q *QUBO) Couplers() int {
	c := 0
	for i := 0; i < q.N; i++ {
		for j := i + 1; j < q.N; j++ {
			if q.Q[i][j] != 0 {
				c++
			}
		}
	}
	return c
}

// Sample is one annealer read: an assignment with its energy.
type Sample struct {
	X      []int
	Energy float64
}

// AnnealConfig tunes the simulated-annealing sampler.
type AnnealConfig struct {
	Reads  int // independent anneal restarts; default 10
	Sweeps int // full-variable sweeps per read; default 200
	Seed   int64
}

// Anneal runs simulated annealing and returns samples sorted best-first.
// Each read starts from a random assignment and sweeps all variables with
// single-bit-flip Metropolis moves under a geometric cooling schedule from
// twice the largest coefficient (at least 1), which keeps early acceptance
// high, down to a thousandth of that; flip energies are computed
// incrementally in O(n).
func (q *QUBO) Anneal(cfg AnnealConfig) []Sample {
	if cfg.Reads == 0 {
		cfg.Reads = 10
	}
	if cfg.Sweeps == 0 {
		cfg.Sweeps = 200
	}
	maxAbs := 1.0
	for i := 0; i < q.N; i++ {
		for j := i; j < q.N; j++ {
			if a := math.Abs(q.Q[i][j]); a > maxAbs {
				maxAbs = a
			}
		}
	}
	tStart := maxAbs * 2
	tEnd := tStart / 1000
	rng := rand.New(rand.NewSource(cfg.Seed))
	cool := math.Pow(tEnd/tStart, 1/float64(cfg.Sweeps-1))
	if cfg.Sweeps == 1 {
		cool = 1
	}

	samples := make([]Sample, 0, cfg.Reads)
	for read := 0; read < cfg.Reads; read++ {
		x := make([]int, q.N)
		for i := range x {
			x[i] = rng.Intn(2)
		}
		e := q.Energy(x)
		bestX := append([]int(nil), x...)
		bestE := e
		temp := tStart
		for sweep := 0; sweep < cfg.Sweeps; sweep++ {
			for i := 0; i < q.N; i++ {
				de := q.flipDelta(x, i)
				if de <= 0 || rng.Float64() < math.Exp(-de/temp) {
					x[i] = 1 - x[i]
					e += de
					if e < bestE {
						bestE = e
						copy(bestX, x)
					}
				}
			}
			temp *= cool
		}
		samples = append(samples, Sample{X: bestX, Energy: bestE})
	}
	sortSamples(samples)
	return samples
}

// flipDelta returns the energy change of flipping variable i.
func (q *QUBO) flipDelta(x []int, i int) float64 {
	// Contribution of variable i when set: Q[i][i] + Σ_{j≠i, x_j=1} Q(i,j).
	s := q.Q[i][i]
	for j := 0; j < i; j++ {
		if x[j] != 0 {
			s += q.Q[j][i]
		}
	}
	for j := i + 1; j < q.N; j++ {
		if x[j] != 0 {
			s += q.Q[i][j]
		}
	}
	if x[i] == 0 {
		return s // turning on
	}
	return -s // turning off
}

func sortSamples(s []Sample) {
	// Insertion sort: read counts are small and this keeps ties stable.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Energy < s[j-1].Energy; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
