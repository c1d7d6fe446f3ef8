package tensor

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// lowRankData builds (n, d) data lying near a k-dim subspace.
func lowRankData(rng *rand.Rand, n, d, k int, noise float64) *Tensor {
	basis := make([][]float64, k)
	for i := range basis {
		basis[i] = make([]float64, d)
		for j := range basis[i] {
			basis[i][j] = rng.NormFloat64()
		}
	}
	x := New(n, d)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for b := 0; b < k; b++ {
			w := rng.NormFloat64() * float64(k-b) // decreasing variance
			for j := 0; j < d; j++ {
				row[j] += float64(w * basis[b][j])
			}
		}
		for j := 0; j < d; j++ {
			row[j] += float64(rng.NormFloat64() * noise)
		}
	}
	return x
}

func TestPCAComponentsOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := lowRankData(rng, 80, 6, 3, 0.1)
	comps, _ := PCA(x, 3, 60, rng)
	for i := 0; i < 3; i++ {
		ri := comps.Row(i)
		norm := 0.0
		for _, v := range ri {
			norm += float64(v * v)
		}
		if math.Abs(norm-1) > 1e-6 {
			t.Fatalf("component %d not unit: %f", i, norm)
		}
		for j := i + 1; j < 3; j++ {
			rj := comps.Row(j)
			dot := 0.0
			for p := range ri {
				dot += float64(ri[p] * rj[p])
			}
			if math.Abs(dot) > 1e-4 {
				t.Fatalf("components %d,%d not orthogonal: %f", i, j, dot)
			}
		}
	}
}

func TestPCAReconstructionBeatsMean(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := lowRankData(rng, 100, 8, 2, 0.05)
	comps, means := PCA(x, 2, 60, rng)
	recon := PCAReconstruct(PCAProject(x, comps, means), comps, means)

	mse := func(a, b *Tensor) float64 {
		d := Sub(a, b)
		return Dot(d, d) / float64(d.Size())
	}
	meanOnly := New(x.Shape()...)
	for i := 0; i < x.Dim(0); i++ {
		copy(meanOnly.Row(i), means.Data())
	}
	ePCA := mse(recon, x)
	eMean := mse(meanOnly, x)
	if ePCA >= eMean/5 {
		t.Fatalf("PCA(2) on rank-2 data should be far better than mean: %f vs %f", ePCA, eMean)
	}
}

func TestPCAProjectRoundTripExactOnExactRank(t *testing.T) {
	// Data exactly in a 1-D subspace: PCA(1) reconstructs exactly.
	x := New(10, 3)
	dir := []float64{1, 2, -1}
	for i := 0; i < 10; i++ {
		w := float64(i) - 4.5
		for j := 0; j < 3; j++ {
			x.Set(w*dir[j], i, j)
		}
	}
	rng := rand.New(rand.NewSource(3))
	comps, means := PCA(x, 1, 80, rng)
	recon := PCAReconstruct(PCAProject(x, comps, means), comps, means)
	if !AllClose(recon, x, 1e-8) {
		t.Fatal("PCA(1) must reconstruct exactly rank-1 data")
	}
}

func TestPCAPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, f := range []func(){
		func() { PCA(New(3), 1, 10, rng) },    // not 2-D
		func() { PCA(New(5, 3), 0, 10, rng) }, // k < 1
		func() { PCA(New(5, 3), 4, 10, rng) }, // k > d
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestRPCASeparatesAnomalies(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Rank-2 background spectra + a few rows with strong sparse spikes.
	n, d := 120, 8
	x := lowRankData(rng, n, d, 2, 0.05)
	anomalous := map[int]bool{7: true, 40: true, 88: true}
	for i := range anomalous {
		row := x.Row(i)
		row[rng.Intn(d)] += 6
		row[rng.Intn(d)] -= 5
	}
	res := RPCA(x, RPCAConfig{Rank: 2, Seed: 10})
	// S must be sparse: the background lives in the low-rank part.
	zeros := 0
	for _, v := range res.S.Data() {
		if v == 0 {
			zeros++
		}
	}
	if zeros < n*d/2 {
		t.Fatalf("sparse part has %d zeros of %d", zeros, n*d)
	}
	// The three anomalous rows must carry the top-3 anomaly scores.
	scores := res.AnomalyScores()
	type sc struct {
		i int
		v float64
	}
	ranked := make([]sc, n)
	for i, v := range scores {
		ranked[i] = sc{i, v}
	}
	sort.Slice(ranked, func(a, b int) bool { return ranked[a].v > ranked[b].v })
	for k := 0; k < 3; k++ {
		if !anomalous[ranked[k].i] {
			t.Fatalf("rank-%d score at row %d is not an implanted anomaly (scores %v...)", k, ranked[k].i, ranked[:4])
		}
	}
}

func TestRPCAPanics(t *testing.T) {
	for _, f := range []func(){
		func() { RPCA(New(3), RPCAConfig{Rank: 1}) },
		func() { RPCA(New(4, 3), RPCAConfig{Rank: 0}) },
		func() { RPCA(New(4, 3), RPCAConfig{Rank: 9}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestMedianAbs(t *testing.T) {
	if m := medianAbs([]float64{-3, 1, 2}); m != 2 {
		t.Fatalf("medianAbs: %f", m)
	}
	if medianAbs(nil) != 0 {
		t.Fatal("empty median must be 0")
	}
}
