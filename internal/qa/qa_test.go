package qa

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/svm"
)

func TestQUBOEnergyByHand(t *testing.T) {
	q := NewQUBO(2)
	q.AddLinear(0, -1)
	q.AddLinear(1, 2)
	q.AddCoupling(0, 1, -3)
	cases := map[[2]int]float64{
		{0, 0}: 0,
		{1, 0}: -1,
		{0, 1}: 2,
		{1, 1}: -2,
	}
	for x, want := range cases {
		if got := q.Energy([]int{x[0], x[1]}); got != want {
			t.Fatalf("E(%v) = %f, want %f", x, got, want)
		}
	}
}

func TestQUBOPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewQUBO(0) },
		func() { NewQUBO(2).AddCoupling(1, 1, 1) },
		func() { NewQUBO(2).Energy([]int{1}) },
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

func TestCouplingSymmetricStorage(t *testing.T) {
	q := NewQUBO(3)
	q.AddCoupling(2, 0, 5) // reversed order must canonicalize
	if q.Q[0][2] != 5 {
		t.Fatal("coupling not canonicalized to upper triangle")
	}
	if q.Couplers() != 1 {
		t.Fatalf("couplers: %d", q.Couplers())
	}
}

// Property: flipDelta agrees with full energy recomputation.
func TestFlipDeltaProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		q := NewQUBO(n)
		for i := 0; i < n; i++ {
			q.AddLinear(i, rng.NormFloat64())
			for j := i + 1; j < n; j++ {
				q.AddCoupling(i, j, rng.NormFloat64())
			}
		}
		x := make([]int, n)
		for i := range x {
			x[i] = rng.Intn(2)
		}
		e0 := q.Energy(x)
		i := rng.Intn(n)
		de := q.flipDelta(x, i)
		x[i] = 1 - x[i]
		return math.Abs((e0+de)-q.Energy(x)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAnnealFindsGroundStateSmall(t *testing.T) {
	// Random 12-variable QUBOs: SA with decent budget must match brute
	// force on most instances.
	hits := 0
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		q := NewQUBO(12)
		for i := 0; i < 12; i++ {
			q.AddLinear(i, rng.NormFloat64())
			for j := i + 1; j < 12; j++ {
				q.AddCoupling(i, j, rng.NormFloat64())
			}
		}
		want := q.BruteForce()
		got := q.Anneal(AnnealConfig{Reads: 20, Sweeps: 300, Seed: int64(trial)})
		if math.Abs(got[0].Energy-want.Energy) < 1e-9 {
			hits++
		}
	}
	if hits < 8 {
		t.Fatalf("SA found ground state on only %d/10 instances", hits)
	}
}

func TestAnnealSamplesSorted(t *testing.T) {
	q := NewQUBO(8)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		q.AddLinear(i, rng.NormFloat64())
	}
	s := q.Anneal(AnnealConfig{Reads: 10, Sweeps: 50, Seed: 2})
	if len(s) != 10 {
		t.Fatalf("reads: %d", len(s))
	}
	for i := 1; i < len(s); i++ {
		if s[i].Energy < s[i-1].Energy {
			t.Fatal("samples not sorted best-first")
		}
	}
	// Energies must match their assignments.
	for _, smp := range s {
		if math.Abs(q.Energy(smp.X)-smp.Energy) > 1e-9 {
			t.Fatal("sample energy inconsistent")
		}
	}
}

func TestMaxCutAsQUBO(t *testing.T) {
	// Max-cut on a 4-cycle: cut edges by maximizing Σ (xi + xj - 2 xi xj);
	// as a minimization QUBO: linear -degree, coupling +2 per edge.
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
	q := NewQUBO(4)
	for _, e := range edges {
		q.AddLinear(e[0], -1)
		q.AddLinear(e[1], -1)
		q.AddCoupling(e[0], e[1], 2)
	}
	best := q.Anneal(AnnealConfig{Reads: 10, Sweeps: 100, Seed: 3})[0]
	if best.Energy != -4 { // all 4 edges cut
		t.Fatalf("max-cut energy %f, want -4", best.Energy)
	}
	// Alternating assignment.
	if best.X[0] == best.X[1] || best.X[1] == best.X[2] {
		t.Fatalf("not a proper cut: %v", best.X)
	}
}

func TestDeviceLimits(t *testing.T) {
	small := NewQUBO(10)
	if err := DWave2000Q.Check(small); err != nil {
		t.Fatal(err)
	}
	big := NewQUBO(2001)
	if err := DWave2000Q.Check(big); err == nil {
		t.Fatal("2000Q must reject 2001 qubits")
	}
	if err := Advantage.Check(big); err != nil {
		t.Fatal("Advantage should accept 2001 qubits")
	}
	// Coupler limit: dense QUBO over 300 vars has ~45k couplers > 35000.
	dense := NewQUBO(300)
	for i := 0; i < 300; i++ {
		for j := i + 1; j < 300; j++ {
			dense.AddCoupling(i, j, 1)
		}
	}
	if err := Advantage.Check(dense); err == nil {
		t.Fatal("Advantage must reject 44850 couplers")
	}
}

func TestMaxTrainSamples(t *testing.T) {
	// With 3 bits per sample, Advantage caps at n where (3n)(3n-1)/2 ≤ 35000
	// → 3n ≤ 265 → n ≤ 88.
	n := Advantage.MaxTrainSamples(3)
	if n < 80 || n > 90 {
		t.Fatalf("Advantage capacity: %d", n)
	}
	n2000 := DWave2000Q.MaxTrainSamples(3)
	if n2000 >= n {
		t.Fatalf("2000Q (%d) must hold fewer samples than Advantage (%d)", n2000, n)
	}
}

func separable(rng *rand.Rand, n int) ([][]float64, []int) {
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		c := 1
		if i%2 == 0 {
			c = -1
		}
		x[i] = []float64{float64(c)*1.5 + rng.NormFloat64()*0.4, float64(c)*1.5 + rng.NormFloat64()*0.4}
		y[i] = c
	}
	return x, y
}

func TestQSVMLearnsSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := separable(rng, 20)
	m, err := TrainQSVM(x, y, QSVMConfig{
		Kernel: svm.RBF{Gamma: 0.5},
		Anneal: AnnealConfig{Reads: 10, Sweeps: 200, Seed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Accuracy(x, y); acc < 0.9 {
		t.Fatalf("qSVM train accuracy %f", acc)
	}
	xt, yt := separable(rng, 40)
	if acc := m.Accuracy(xt, yt); acc < 0.85 {
		t.Fatalf("qSVM test accuracy %f", acc)
	}
}

func TestQSVMRespectsDeviceLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// 100 samples × 3 bits = 300 fully coupled variables: 44 850 couplers
	// > Advantage's 35 000.
	x, y := separable(rng, 100)
	_, err := TrainQSVM(x, y, QSVMConfig{Anneal: AnnealConfig{Reads: 1, Sweeps: 1, Seed: 1}})
	if err == nil {
		t.Fatal("Advantage must reject a 100-sample qSVM")
	}
}

func TestQUBOBuildDimensions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := separable(rng, 8)
	q := BuildQUBO(x, y, QSVMConfig{})
	if q.N != 24 {
		t.Fatalf("QUBO size %d, want 24", q.N)
	}
	// Fully connected: C(24,2) couplers (all kernel entries nonzero).
	if q.Couplers() != 276 {
		t.Fatalf("couplers %d, want 276", q.Couplers())
	}
}

func TestQEnsembleBeatsOrMatchesSingleSubsample(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xTr, yTr := separable(rng, 120)
	xTe, yTe := separable(rng, 80)
	cfg := QSVMConfig{Anneal: AnnealConfig{Reads: 5, Sweeps: 100, Seed: 7}}

	single, err := TrainQSVM(xTr[:16], yTr[:16], cfg)
	if err != nil {
		t.Fatal(err)
	}
	ens, err := TrainQEnsemble(xTr, yTr, 7, 16, cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	accS := single.Accuracy(xTe, yTe)
	accE := ens.Accuracy(xTe, yTe)
	if accE < accS-0.05 {
		t.Fatalf("ensemble (%f) markedly worse than single (%f)", accE, accS)
	}
	if accE < 0.85 {
		t.Fatalf("ensemble accuracy %f", accE)
	}
}

func TestQEnsembleRejectsOversizedSubsample(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x, y := separable(rng, 100)
	// Advantage embeds at most 88 three-bit samples.
	_, err := TrainQEnsemble(x, y, 2, 99, QSVMConfig{}, 1)
	if err == nil {
		t.Fatal("subsample larger than device capacity must fail")
	}
}

func TestBruteForcePanicsOnLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewQUBO(30).BruteForce()
}

// featureSelData builds data where features 0 and 1 carry the label,
// feature 2 duplicates feature 0 (redundant), and the rest are noise.
func featureSelData(seed int64, n int) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		c := 1
		if i%2 == 0 {
			c = -1
		}
		f0 := float64(c) + rng.NormFloat64()*0.4
		f1 := float64(c)*0.8 + rng.NormFloat64()*0.4
		x[i] = []float64{
			f0, f1,
			f0 + rng.NormFloat64()*0.05, // redundant copy of f0
			rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(),
		}
		y[i] = c
	}
	return x, y
}

func TestFeatureRelevanceOrdersInformativeFirst(t *testing.T) {
	x, y := featureSelData(1, 200)
	rel := FeatureRelevance(x, y)
	if len(rel) != 6 {
		t.Fatalf("relevance length %d", len(rel))
	}
	for _, noisy := range []int{3, 4, 5} {
		if rel[0] <= rel[noisy] || rel[1] <= rel[noisy] {
			t.Fatalf("informative features must outrank noise: %v", rel)
		}
	}
}

func TestSelectFeaturesPicksInformativeNonRedundant(t *testing.T) {
	x, y := featureSelData(2, 200)
	sel, err := SelectFeatures(x, y, FeatureSelectConfig{
		K: 2, Anneal: AnnealConfig{Reads: 10, Sweeps: 200, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 {
		t.Fatalf("selected %v, want 2 features", sel)
	}
	has := map[int]bool{}
	for _, f := range sel {
		has[f] = true
	}
	// Must include at least one of the informative pair and avoid picking
	// both of the redundant pair (0 and 2).
	if !has[0] && !has[1] && !has[2] {
		t.Fatalf("no informative feature selected: %v", sel)
	}
	if has[0] && has[2] {
		t.Fatalf("redundant pair selected together: %v", sel)
	}
	if has[3] && has[4] {
		t.Fatalf("pure-noise pair selected: %v", sel)
	}
}

func TestSelectFeaturesErrors(t *testing.T) {
	x, y := featureSelData(4, 10)
	if _, err := SelectFeatures(nil, nil, FeatureSelectConfig{K: 1}); err == nil {
		t.Fatal("empty data must error")
	}
	if _, err := SelectFeatures(x, y, FeatureSelectConfig{K: 0}); err == nil {
		t.Fatal("k=0 must error")
	}
	if _, err := SelectFeatures(x, y, FeatureSelectConfig{K: 99}); err == nil {
		t.Fatal("k>d must error")
	}
}

func TestProjectFeatures(t *testing.T) {
	x := [][]float64{{1, 2, 3}, {4, 5, 6}}
	out := ProjectFeatures(x, []int{2, 0})
	if out[0][0] != 3 || out[0][1] != 1 || out[1][0] != 6 {
		t.Fatalf("projection: %v", out)
	}
}

func TestCorrelationBasics(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if c := correlation(a, a); math.Abs(c-1) > 1e-12 {
		t.Fatalf("self correlation %f", c)
	}
	b := []float64{4, 3, 2, 1}
	if c := correlation(a, b); math.Abs(c-1) > 1e-12 {
		t.Fatalf("|anti-correlation| %f", c)
	}
	if correlation(a, []float64{7, 7, 7, 7}) != 0 {
		t.Fatal("constant column must give 0")
	}
}
