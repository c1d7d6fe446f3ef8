package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndShape(t *testing.T) {
	a := New(2, 3, 4)
	if a.Size() != 24 || a.NDim() != 3 || a.Dim(1) != 3 {
		t.Fatalf("bad shape metadata: %v size=%d", a.Shape(), a.Size())
	}
	for _, v := range a.Data() {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestNewPanicsOnNegativeDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative dim")
		}
	}()
	New(2, -1)
}

func TestFromSliceAndAtSet(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if a.At(1, 2) != 6 || a.At(0, 0) != 1 {
		t.Fatalf("At wrong: %v", a.Data())
	}
	a.Set(9, 1, 1)
	if a.At(1, 1) != 9 {
		t.Fatal("Set failed")
	}
}

func TestFromSlicePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtPanicsOutOfRange(t *testing.T) {
	a := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.At(2, 0)
}

func TestOnesFullRandn(t *testing.T) {
	if Ones(3).Sum() != 3 {
		t.Fatal("Ones")
	}
	if Full(2.5, 4).Sum() != 10 {
		t.Fatal("Full")
	}
	rng := rand.New(rand.NewSource(1))
	r := Randn(rng, 1.0, 1000)
	if m := r.Sum() / 1000; math.Abs(m) > 0.15 {
		t.Fatalf("Randn mean too far from 0: %f", m)
	}
	u := RandUniform(rng, -1, 1, 1000)
	if u.Max() > 1 || u.Min() < -1 {
		t.Fatal("RandUniform out of range")
	}
}

func TestReshape(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	if b.At(2, 1) != 6 {
		t.Fatal("Reshape data sharing broken")
	}
	c := a.Reshape(-1, 2)
	if c.Dim(0) != 3 {
		t.Fatalf("inferred dim wrong: %v", c.Shape())
	}
	b.Set(42, 0, 0)
	if a.At(0, 0) != 42 {
		t.Fatal("Reshape must share data")
	}
}

func TestReshapePanics(t *testing.T) {
	a := New(2, 3)
	for _, shape := range [][]int{{4, 2}, {-1, -1}, {-1, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for %v", shape)
				}
			}()
			a.Reshape(shape...)
		}()
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Ones(3)
	b := a.Clone()
	b.Set(5, 0)
	if a.At(0) != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	if got := AddInto(New(3), a, b).Data(); got[0] != 5 || got[2] != 9 {
		t.Fatalf("Add: %v", got)
	}
	if got := Sub(b, a).Data(); got[0] != 3 || got[2] != 3 {
		t.Fatalf("Sub: %v", got)
	}
	c := a.Clone()
	c.AddInPlace(b).AddInPlace(b)
	want := []float64{9, 12, 15}
	for i := range want {
		if c.Data()[i] != want[i] {
			t.Fatalf("chained in-place: %v", c.Data())
		}
	}
}

func TestScaleAxpyDotNorm(t *testing.T) {
	a := FromSlice([]float64{3, 4}, 2)
	if a.Norm2() != 5 {
		t.Fatal("Norm2")
	}
	b := a.Clone().Scale(2)
	if b.At(0) != 6 {
		t.Fatal("Scale")
	}
	AxpyInto(b.Data(), -2, a.Data())
	if b.Norm2() != 0 {
		t.Fatal("Axpy")
	}
	if Dot(a, a) != 25 {
		t.Fatal("Dot")
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float64{1, -2, 3, 0}, 4)
	if a.Sum() != 2 || a.Max() != 3 || a.Min() != -2 {
		t.Fatalf("reductions wrong on %v", a.Data())
	}
}

func TestArgmaxRows(t *testing.T) {
	a := FromSlice([]float64{1, 5, 2, 9, 0, 3}, 2, 3)
	got := a.ArgmaxRows()
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgmaxRows: %v", got)
	}
}

func TestAxisReductionsAndRowOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	s := SumAxis0(a)
	if s.At(0) != 5 || s.At(2) != 9 {
		t.Fatalf("SumAxis0: %v", s.Data())
	}
	m := MeanAxis0(a)
	if m.At(1) != 3.5 {
		t.Fatalf("MeanAxis0: %v", m.Data())
	}
}

func TestSoftmaxRows(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 1000, 1001, 1002}, 2, 3)
	s := SoftmaxRowsInto(New(2, 3), a)
	for i := 0; i < 2; i++ {
		sum := 0.0
		for j := 0; j < 3; j++ {
			sum += s.At(i, j)
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d does not sum to 1: %f", i, sum)
		}
	}
	// Shift invariance: both rows differ by a constant, so softmax is equal.
	for j := 0; j < 3; j++ {
		if math.Abs(s.At(0, j)-s.At(1, j)) > 1e-12 {
			t.Fatal("softmax not shift invariant / unstable for large inputs")
		}
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{5, 6, 7, 8}, 2, 2)
	c := matMul(a, b)
	want := []float64{19, 22, 43, 50}
	for i, w := range want {
		if c.Data()[i] != w {
			t.Fatalf("MatMul: %v want %v", c.Data(), want)
		}
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMulInto(New(2, 3), New(2, 3), New(2, 3))
}

// matMul returns a×b from MatMulInto.
func matMul(a, b *Tensor) *Tensor {
	out := New(a.Dim(0), b.Dim(1))
	MatMulInto(out, a, b)
	return out
}

// transposed returns the transpose of the 2-D tensor a.
func transposed(a *Tensor) *Tensor {
	r, c := a.Dim(0), a.Dim(1)
	out := New(c, r)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			out.Set(a.At(i, j), j, i)
		}
	}
	return out
}

// naiveMatMul is the reference O(n³) ijk implementation used to validate
// the blocked parallel kernel.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += float64(a.At(i, p) * b.At(p, j))
			}
			out.Set(s, i, j)
		}
	}
	return out
}

func TestMatMulMatchesNaiveLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := Randn(rng, 1, 67, 45)
	b := Randn(rng, 1, 45, 83)
	got := matMul(a, b)
	want := naiveMatMul(a, b)
	if !AllClose(got, want, 1e-9) {
		t.Fatal("parallel MatMul disagrees with naive reference")
	}
}

func TestMatMulTAndTMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := Randn(rng, 1, 13, 7)
	b := Randn(rng, 1, 11, 7)
	got := New(13, 11)
	MatMulTInto(got, a, b)
	want := naiveMatMul(a, transposed(b))
	if !AllClose(got, want, 1e-9) {
		t.Fatal("MatMulT disagrees with a×bᵀ")
	}
}

func TestTMatMulCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := Randn(rng, 1, 9, 5)  // K=9, M=5
	b := Randn(rng, 1, 9, 11) // K=9, N=11
	got := New(5, 11)
	TMatMulAccInto(got, a, b)
	want := naiveMatMul(transposed(a), b)
	if !AllClose(got, want, 1e-9) {
		t.Fatal("TMatMulAccInto disagrees with aᵀ×b")
	}
}

func TestMatVec(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	x := FromSlice([]float64{1, 0, -1}, 3)
	y := MatVec(a, x)
	if y.At(0) != -2 || y.At(1) != -2 {
		t.Fatalf("MatVec: %v", y.Data())
	}
}

// Property: (A×B)×C == A×(B×C) within tolerance.
func TestMatMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(8)
		k := 1 + rng.Intn(8)
		n := 1 + rng.Intn(8)
		p := 1 + rng.Intn(8)
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		c := Randn(rng, 1, n, p)
		left := matMul(matMul(a, b), c)
		right := matMul(a, matMul(b, c))
		return AllClose(left, right, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: col2imInto is the adjoint of Im2ColInto: <Im2Col(x), y> == <x, Col2Im(y)>.
func TestIm2ColAdjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(2)
		c := 1 + rng.Intn(3)
		h := 4 + rng.Intn(5)
		w := 4 + rng.Intn(5)
		k := 2 + rng.Intn(2)
		stride := 1 + rng.Intn(2)
		pad := rng.Intn(2)
		x := Randn(rng, 1, n, c, h, w)
		cols := im2col(x, k, k, stride, pad, pad)
		y := Randn(rng, 1, cols.Dim(0), cols.Dim(1))
		lhs := Dot(cols, y)
		rhs := Dot(x, col2imInto(New(n, c, h, w), y, k, k, stride, pad, pad))
		return math.Abs(lhs-rhs) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1, no pad: Im2ColInto is just a reshape.
	rng := rand.New(rand.NewSource(3))
	x := Randn(rng, 1, 2, 3, 4, 4)
	cols := im2col(x, 1, 1, 1, 0, 0)
	if cols.Dim(0) != 2*4*4 || cols.Dim(1) != 3 {
		t.Fatalf("Im2Col 1x1 shape: %v", cols.Shape())
	}
	// element (b,oy,ox) row, channel ch column equals x[b,ch,oy,ox]
	if cols.At(0, 1) != x.At(0, 1, 0, 0) {
		t.Fatal("Im2Col 1x1 values wrong")
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	x := FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	out, arg := New(1, 1, 2, 2), make([]int, 4)
	MaxPool2DInto(out, arg, x, 2, 2)
	want := []float64{6, 8, 14, 16}
	for i, w := range want {
		if out.Data()[i] != w {
			t.Fatalf("MaxPool2DInto: %v", out.Data())
		}
	}
	dout := Ones(1, 1, 2, 2)
	din := MaxPool2DBackwardInto(New(x.Shape()...), dout, arg)
	// Gradient lands only at max positions.
	if din.At(0, 0, 1, 1) != 1 || din.At(0, 0, 0, 0) != 0 || din.At(0, 0, 3, 3) != 1 {
		t.Fatalf("MaxPool2DBackward: %v", din.Data())
	}
	if din.Sum() != 4 {
		t.Fatal("pool backward must conserve gradient mass")
	}
}

func TestGlobalAvgPool(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 10, 20, 30, 40}, 1, 2, 2, 2)
	out := GlobalAvgPoolInto(New(1, 2), x)
	if out.At(0, 0) != 2.5 || out.At(0, 1) != 25 {
		t.Fatalf("GlobalAvgPoolInto: %v", out.Data())
	}
	din := GlobalAvgPoolBackwardInto(New(1, 2, 2, 2), out)
	if din.At(0, 0, 0, 0) != 2.5/4 {
		t.Fatal("GlobalAvgPoolBackwardInto broadcast wrong")
	}
}

func TestConvDims(t *testing.T) {
	if ConvDims(32, 3, 1, 1) != 32 {
		t.Fatal("same-pad conv dims")
	}
	if ConvDims(32, 2, 2, 0) != 16 {
		t.Fatal("stride-2 pool dims")
	}
}

func TestApplyAndApplyInPlace(t *testing.T) {
	a := FromSlice([]float64{-1, 2}, 2)
	ApplyInto(a, a, func(v float64) float64 { return v * v })
	if a.At(0) != 1 || a.At(1) != 4 {
		t.Fatal("ApplyInto in place")
	}
}

func TestAllCloseAndSameShape(t *testing.T) {
	a := Ones(2, 2)
	b := Ones(2, 2)
	b.Set(1+1e-12, 0, 0)
	if !AllClose(a, b, 1e-9) {
		t.Fatal("AllClose tolerance")
	}
	if AllClose(a, Ones(4), 1) {
		t.Fatal("AllClose must check shape")
	}
	if SameShape(a, Ones(2, 3)) {
		t.Fatal("SameShape")
	}
}

func TestRowView(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	r := a.Row(1)
	r[0] = 99
	if a.At(1, 0) != 99 {
		t.Fatal("Row must be a view")
	}
}

func TestMatMulIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := Randn(rng, 1, 5, 6)
	b := Randn(rng, 1, 6, 7)
	out := Full(123, 5, 7) // dirty buffer must be overwritten
	MatMulInto(out, a, b)
	if !AllClose(out, naiveMatMul(a, b), 1e-9) {
		t.Fatal("MatMulInto must overwrite output")
	}
}

func TestMatMulParallelPath(t *testing.T) {
	// On a single-core host the worker pool defaults to one participant
	// and the parallel path never runs; force it (and a tiny grain) so
	// the parallel kernel path is exercised and verified.
	w, g := Workers(), loadCfg().grain
	Configure(WithWorkers(4), WithGrain(1024))
	t.Cleanup(func() { Configure(WithWorkers(w), WithGrain(g)) })
	rng := rand.New(rand.NewSource(77))
	a := Randn(rng, 1, 96, 70)
	b := Randn(rng, 1, 70, 90)
	got := matMul(a, b)
	if !AllClose(got, naiveMatMul(a, b), 1e-9) {
		t.Fatal("parallel MatMul path disagrees with reference")
	}
	gt := New(96, 90)
	MatMulTInto(gt, a, Randn(rng, 1, 90, 70))
	if gt.Dim(0) != 96 || gt.Dim(1) != 90 {
		t.Fatal("parallel MatMulT shape")
	}
	// More workers than rows: band loop must handle empty bands.
	small := Randn(rng, 1, 2, 70)
	got2 := matMul(small, b)
	if !AllClose(got2, naiveMatMul(small, b), 1e-9) {
		t.Fatal("small-row parallel MatMul wrong")
	}
}

func TestZerosAddScalarMeanEmpty(t *testing.T) {
	z := New(3, 2)
	if z.Sum() != 0 || z.Dim(0) != 3 {
		t.Fatal("New")
	}
	z.Fill(2.5)
	if z.At(0, 0) != 2.5 || z.Sum() != 15 {
		t.Fatal("Fill")
	}
}

func TestMaxMinPanicOnEmpty(t *testing.T) {
	for _, f := range []func(){
		func() { New(0).Max() },
		func() { New(0).Min() },
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

func TestElementwiseShapeMismatchPanics(t *testing.T) {
	a, b := New(2), New(3)
	for _, f := range []func(){
		func() { Sub(a, b) },
		func() { AxpyInto(b.Data(), 1, a.Data()) },
		func() { Dot(a, b) },
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

func TestNormalizeZeroVector(t *testing.T) {
	v := []float64{0, 0, 0}
	normalize(v)
	if v[0] != 1 {
		t.Fatal("zero vector must normalize to a unit basis vector")
	}
}
