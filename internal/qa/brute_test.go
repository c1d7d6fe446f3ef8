package qa

import "math"

// BruteForce exhaustively minimizes a small QUBO (n ≤ 24) for testing.
func (q *QUBO) BruteForce() Sample {
	if q.N > 24 {
		panic("qa: BruteForce limited to 24 variables")
	}
	best := Sample{Energy: math.Inf(1)}
	x := make([]int, q.N)
	for m := 0; m < 1<<q.N; m++ {
		for i := 0; i < q.N; i++ {
			x[i] = (m >> i) & 1
		}
		if e := q.Energy(x); e < best.Energy {
			best = Sample{X: append([]int(nil), x...), Energy: e}
		}
	}
	return best
}
