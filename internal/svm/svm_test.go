package svm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mpi"
)

// linearSeparable generates two Gaussian clouds with ±1 labels.
func linearSeparable(rng *rand.Rand, n int, gap float64) ([][]float64, []int) {
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		c := 1
		if i%2 == 0 {
			c = -1
		}
		x[i] = []float64{float64(c)*gap + rng.NormFloat64()*0.5, float64(c)*gap + rng.NormFloat64()*0.5}
		y[i] = c
	}
	return x, y
}

// xorData is the canonical non-linearly-separable set.
func xorData(rng *rand.Rand, n int) ([][]float64, []int) {
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		a := float64(rng.Intn(2))
		b := float64(rng.Intn(2))
		x[i] = []float64{a + rng.NormFloat64()*0.1, b + rng.NormFloat64()*0.1}
		if (a > 0.5) != (b > 0.5) {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	return x, y
}

// linearKernel is the dot-product kernel.
type linearKernel struct{}

func (linearKernel) Eval(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func (linearKernel) Name() string { return "linear" }

func TestLinearSVMSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := linearSeparable(rng, 60, 2)
	m := Train(x, y, Config{Kernel: linearKernel{}, Seed: 2})
	if acc := m.Accuracy(x, y); acc < 0.98 {
		t.Fatalf("linear SVM accuracy %f", acc)
	}
	// Margins of support vectors should be near ±1 for separable data.
	if len(m.SVs) == 0 || len(m.SVs) == len(x) {
		t.Fatalf("suspicious SV count %d of %d", len(m.SVs), len(x))
	}
}

func TestRBFSVMSolvesXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y := xorData(rng, 80)
	linear := Train(x, y, Config{Kernel: linearKernel{}, Seed: 3})
	rbf := Train(x, y, Config{Kernel: RBF{Gamma: 2}, Seed: 3})
	accL := linear.Accuracy(x, y)
	accR := rbf.Accuracy(x, y)
	if accR < 0.95 {
		t.Fatalf("RBF should solve XOR: %f", accR)
	}
	if accL > accR {
		t.Fatalf("linear (%f) should not beat RBF (%f) on XOR", accL, accR)
	}
}

func TestSVMGeneralizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xTr, yTr := linearSeparable(rng, 100, 1.5)
	xTe, yTe := linearSeparable(rng, 100, 1.5)
	m := Train(xTr, yTr, Config{Kernel: RBF{Gamma: 0.5}, Seed: 4})
	if acc := m.Accuracy(xTe, yTe); acc < 0.95 {
		t.Fatalf("test accuracy %f", acc)
	}
}

func TestTrainPanicsOnBadInput(t *testing.T) {
	for _, tc := range []struct {
		x [][]float64
		y []int
	}{
		{nil, nil},
		{[][]float64{{1}}, []int{0}},    // label not ±1
		{[][]float64{{1}}, []int{1, 1}}, // length mismatch
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for %v/%v", tc.x, tc.y)
				}
			}()
			Train(tc.x, tc.y, Config{})
		}()
	}
}

func TestDecisionSignMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y := linearSeparable(rng, 40, 2)
	m := Train(x, y, Config{Seed: 6})
	for i := range x {
		d := m.Decision(x[i])
		p := m.Predict(x[i])
		if (d >= 0 && p != 1) || (d < 0 && p != -1) {
			t.Fatalf("sign mismatch: %f vs %d", d, p)
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	x := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	y := []int{1, -1, 1}
	buf := serializeSVSet(x, y)
	x2, y2 := deserializeSVSet(buf)
	if len(x2) != 3 || len(y2) != 3 {
		t.Fatal("sizes")
	}
	for i := range x {
		if y2[i] != y[i] {
			t.Fatal("labels")
		}
		for j := range x[i] {
			if x2[i][j] != x[i][j] {
				t.Fatal("rows")
			}
		}
	}
	// Empty set round trip.
	ex, ey := deserializeSVSet(serializeSVSet(nil, nil))
	if len(ex) != 0 || len(ey) != 0 {
		t.Fatal("empty set")
	}
}

func TestShardData(t *testing.T) {
	x := make([][]float64, 10)
	y := make([]int, 10)
	for i := range x {
		x[i] = []float64{float64(i)}
		y[i] = 1
	}
	xs, ys := ShardData(x, y, 3)
	total := 0
	for r := range xs {
		if len(xs[r]) != len(ys[r]) {
			t.Fatal("shard size mismatch")
		}
		total += len(xs[r])
	}
	if total != 10 {
		t.Fatalf("shards cover %d of 10", total)
	}
}

// TestCascadeMatchesSingle is experiment E11's core property: the cascade
// parallel SVM must match single-node training quality while each worker
// only ever sees a fraction of the data.
func TestCascadeMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x, y := linearSeparable(rng, 120, 1.5)
	xTe, yTe := linearSeparable(rng, 100, 1.5)
	cfg := Config{Kernel: RBF{Gamma: 0.5}, Seed: 8}

	single := Train(x, y, cfg)
	accSingle := single.Accuracy(xTe, yTe)

	for _, p := range []int{2, 4} {
		xs, ys := ShardData(x, y, p)
		w := mpi.NewWorld(p)
		accs := make([]float64, p)
		err := w.Run(func(c *mpi.Comm) error {
			m := TrainCascade(c, xs[c.Rank()], ys[c.Rank()], cfg)
			accs[c.Rank()] = m.Accuracy(xTe, yTe)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for r, acc := range accs {
			if acc < accSingle-0.05 {
				t.Fatalf("p=%d rank %d: cascade accuracy %f far below single %f", p, r, acc, accSingle)
			}
		}
		// All ranks must return identical models.
		for r := 1; r < p; r++ {
			if math.Abs(accs[r]-accs[0]) > 1e-12 {
				t.Fatalf("ranks disagree: %v", accs)
			}
		}
	}
}

func TestCascadeOddWorldSize(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x, y := linearSeparable(rng, 90, 2)
	cfg := Config{Kernel: linearKernel{}, Seed: 10}
	xs, ys := ShardData(x, y, 3)
	w := mpi.NewWorld(3)
	err := w.Run(func(c *mpi.Comm) error {
		m := TrainCascade(c, xs[c.Rank()], ys[c.Rank()], cfg)
		if acc := m.Accuracy(x, y); acc < 0.95 {
			t.Errorf("rank %d accuracy %f", c.Rank(), acc)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEnsembleMajorityVote trains SVMs on bootstrap sub-samples, the
// committee the quantum-annealer study builds (§III-C), and checks that
// their mean signed vote is bounded and classifies the full set.
func TestEnsembleMajorityVote(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x, y := linearSeparable(rng, 100, 1.2)
	var members []*Model
	for m := 0; m < 5; m++ {
		idx := rng.Perm(len(x))[:30]
		sx := make([][]float64, 30)
		sy := make([]int, 30)
		for i, r := range idx {
			sx[i] = x[r]
			sy[i] = y[r]
		}
		members = append(members, Train(sx, sy, Config{Seed: int64(m)}))
	}
	correct := 0
	for i := range x {
		v := 0.0
		for _, m := range members {
			v += float64(m.Predict(x[i]))
		}
		v /= float64(len(members))
		if v < -1 || v > 1 {
			t.Fatalf("vote %f out of [-1,1]", v)
		}
		if (v >= 0) == (y[i] == 1) {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(x)); acc < 0.9 {
		t.Fatalf("ensemble accuracy %f", acc)
	}
}

func TestKernels(t *testing.T) {
	a := []float64{1, 0}
	b := []float64{0, 1}
	r := RBF{Gamma: 1}
	if r.Eval(a, a) != 1 {
		t.Fatal("RBF self-similarity must be 1")
	}
	if v := r.Eval(a, b); math.Abs(v-math.Exp(-2)) > 1e-12 {
		t.Fatalf("RBF cross: %f", v)
	}
	if r.Name() != "rbf" {
		t.Fatal("kernel name")
	}
}

func TestAccuracyEmptySet(t *testing.T) {
	m := &Model{Kernel: linearKernel{}}
	if m.Accuracy(nil, nil) != 0 {
		t.Fatal("empty accuracy must be 0")
	}
}
