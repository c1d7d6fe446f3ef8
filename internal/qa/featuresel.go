package qa

import (
	"fmt"
	"math"
)

// QUBO feature selection: the second annealer use case the paper's
// related work surveys (Otgonbaatar & Datcu [36] use quantum annealing
// for feature extraction from SAR imagery). The formulation is the
// standard mRMR-style QUBO: select a subset S of features maximizing
// per-feature relevance to the label while penalizing pairwise
// redundancy, with a soft cardinality constraint |S| = k:
//
//	E(x) = -Σᵢ relᵢ·xᵢ + Σᵢ<ⱼ redᵢⱼ·xᵢxⱼ + λ·(Σᵢ xᵢ − k)²
//
// with λ just above 2·max(rel), so the constraint outweighs relevance.
// The QUBO runs on the Advantage device.
type FeatureSelectConfig struct {
	K      int // target subset size
	Anneal AnnealConfig
}

// correlation computes the absolute Pearson correlation of two columns.
func correlation(a, b []float64) float64 {
	n := float64(len(a))
	if n == 0 {
		return 0
	}
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return math.Abs(cov / math.Sqrt(va*vb))
}

// FeatureRelevance computes |corr(feature, label)| for each column of x
// given ±1 labels.
func FeatureRelevance(x [][]float64, y []int) []float64 {
	if len(x) == 0 {
		return nil
	}
	d := len(x[0])
	yf := make([]float64, len(y))
	for i, l := range y {
		yf[i] = float64(l)
	}
	col := make([]float64, len(x))
	rel := make([]float64, d)
	for j := 0; j < d; j++ {
		for i := range x {
			col[i] = x[i][j]
		}
		rel[j] = correlation(col, yf)
	}
	return rel
}

// BuildFeatureSelectQUBO constructs the mRMR QUBO for the dataset.
func BuildFeatureSelectQUBO(x [][]float64, y []int, cfg FeatureSelectConfig) (*QUBO, []float64) {
	d := len(x[0])
	rel := FeatureRelevance(x, y)
	maxRel := 0.0
	for _, r := range rel {
		if r > maxRel {
			maxRel = r
		}
	}
	lambda := 2*maxRel + 1e-6
	q := NewQUBO(d)
	// Relevance and cardinality linear terms: -rel + λ(1-2k).
	for i := 0; i < d; i++ {
		q.AddLinear(i, -rel[i]+lambda*(1-2*float64(cfg.K)))
	}
	// Redundancy + cardinality quadratic terms.
	colI := make([]float64, len(x))
	colJ := make([]float64, len(x))
	for i := 0; i < d; i++ {
		for r := range x {
			colI[r] = x[r][i]
		}
		for j := i + 1; j < d; j++ {
			for r := range x {
				colJ[r] = x[r][j]
			}
			red := correlation(colI, colJ)
			q.AddCoupling(i, j, red+2*lambda)
		}
	}
	return q, rel
}

// SelectFeatures solves the QUBO on the (simulated) device and returns
// the selected feature indices.
func SelectFeatures(x [][]float64, y []int, cfg FeatureSelectConfig) ([]int, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("qa: bad dataset (%d samples, %d labels)", len(x), len(y))
	}
	if cfg.K < 1 || cfg.K > len(x[0]) {
		return nil, fmt.Errorf("qa: k=%d invalid for %d features", cfg.K, len(x[0]))
	}
	q, _ := BuildFeatureSelectQUBO(x, y, cfg)
	samples, err := Advantage.Submit(q, cfg.Anneal)
	if err != nil {
		return nil, err
	}
	var selected []int
	for i, bit := range samples[0].X {
		if bit == 1 {
			selected = append(selected, i)
		}
	}
	return selected, nil
}

// ProjectFeatures returns x restricted to the selected columns.
func ProjectFeatures(x [][]float64, selected []int) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		sub := make([]float64, len(selected))
		for j, f := range selected {
			sub[j] = row[f]
		}
		out[i] = sub
	}
	return out
}
