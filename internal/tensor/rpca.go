package tensor

import (
	"math"
	"math/rand"
	"sort"
)

// Robust PCA by alternating projections: decompose X ≈ L + S with L
// low-rank (the background) and S sparse (the anomalies). This is the
// "distributed parallel algorithm based on low-rank and sparse
// representation for anomaly detection in hyperspectral images" the
// paper's related work surveys (Zhang et al. [35]), in its standard
// centralized form: iterate a rank-k projection of X−S (via the power-
// iteration PCA kernel) against soft-thresholding of the residual X−L.
// The result keeps the sparse part S, the anomalies.
type RPCAResult struct {
	S *Tensor
}

// RPCAConfig tunes the decomposition.
type RPCAConfig struct {
	Rank int // rank of the background component
	Seed int64
}

// RPCA runs at most rpcaMaxIter alternations, each PCA with rpcaPowerIter
// power iterations.
const (
	rpcaMaxIter   = 25
	rpcaPowerIter = 30
)

// RPCA decomposes x (N, D) into low-rank + sparse parts.
func RPCA(x *Tensor, cfg RPCAConfig) RPCAResult {
	if x.NDim() != 2 {
		panic("tensor: RPCA requires (N, D) data")
	}
	if cfg.Rank < 1 || cfg.Rank > x.Dim(1) {
		panic("tensor: RPCA rank out of range")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	s := New(x.Shape()...)
	for iter := 0; iter < rpcaMaxIter; iter++ {
		// Low-rank step: rank-k PCA reconstruction of X - S.
		residual := Sub(x, s)
		comps, means := PCA(residual, cfg.Rank, rpcaPowerIter, rng)
		l := PCAReconstruct(PCAProject(residual, comps, means), comps, means)

		// Sparse step: soft-threshold X - L at 3·MAD of that residual.
		diff := Sub(x, l)
		lambda := 3 * medianAbs(diff.Data())
		prev := s
		s = ApplyInto(diff, diff, func(v float64) float64 {
			switch {
			case v > lambda:
				return v - lambda
			case v < -lambda:
				return v + lambda
			default:
				return 0
			}
		})
		// Converged when the sparse part stops moving.
		if AllClose(prev, s, 1e-7) {
			break
		}
	}
	return RPCAResult{S: s}
}

// medianAbs returns the median of |v|: a robust scale estimate.
func medianAbs(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	abs := make([]float64, len(v))
	for i, x := range v {
		abs[i] = math.Abs(x)
	}
	sort.Float64s(abs)
	return abs[len(abs)/2]
}

// AnomalyScores returns the per-row L2 norm of the sparse component: the
// detector statistic for hyperspectral anomaly detection.
func (r RPCAResult) AnomalyScores() []float64 {
	n, d := r.S.Dim(0), r.S.Dim(1)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		row := r.S.Row(i)
		s := 0.0
		for j := 0; j < d; j++ {
			s += float64(row[j] * row[j])
		}
		out[i] = math.Sqrt(s)
	}
	return out
}
