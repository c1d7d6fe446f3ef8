package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// makeBlobs generates a linearly separable 2-class 2-D dataset.
func makeBlobs(rng *rand.Rand, n int) (*tensor.Tensor, []int) {
	x := tensor.New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		cx := float64(float64(c)*4) - 2
		x.Set(cx+float64(rng.NormFloat64()*0.7), i, 0)
		x.Set(cx+float64(rng.NormFloat64()*0.7), i, 1)
		labels[i] = c
	}
	return x, labels
}

func TestMLPLearnsBlobsWithSGD(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	x, labels := makeBlobs(rng, 200)
	target := OneHot(labels, 2)
	model := MLP(rng, 2, 16, 2)
	opt := NewSGD(0.9, 0)
	loss := SoftmaxCrossEntropy{}
	var last float64
	for epoch := 0; epoch < 60; epoch++ {
		model.ZeroGrads()
		logits := model.Forward(x, true)
		l, grad := loss.Forward(logits, target)
		model.Backward(grad)
		opt.Step(model.Params(), 0.05)
		last = l
	}
	if last > 0.1 {
		t.Fatalf("SGD failed to fit blobs: loss %f", last)
	}
	if acc := Accuracy(model.Forward(x, false), labels); acc < 0.98 {
		t.Fatalf("accuracy %f too low", acc)
	}
}

func TestXORRequiresHiddenLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := tensor.FromSlice([]float64{0, 0, 0, 1, 1, 0, 1, 1}, 4, 2)
	labels := []int{0, 1, 1, 0}
	target := OneHot(labels, 2)
	model := NewSequential(
		NewDense(rng, "h", 2, 8),
		&Tanh{},
		NewDense(rng, "o", 8, 2),
	)
	opt := NewAdam()
	loss := SoftmaxCrossEntropy{}
	for i := 0; i < 600; i++ {
		model.ZeroGrads()
		logits := model.Forward(x, true)
		_, grad := loss.Forward(logits, target)
		model.Backward(grad)
		opt.Step(model.Params(), 0.01)
	}
	if acc := Accuracy(model.Forward(x, false), labels); acc != 1 {
		t.Fatalf("XOR accuracy %f", acc)
	}
}

func TestAdamBeatsPlainSGDOnIllConditioned(t *testing.T) {
	// Regression on features with wildly different scales: Adam's
	// per-parameter step should converge far faster at the same budget.
	rng := rand.New(rand.NewSource(3))
	n := 100
	x := tensor.New(n, 2)
	y := tensor.New(n, 1)
	for i := 0; i < n; i++ {
		a := rng.NormFloat64()
		b := rng.NormFloat64() * 100
		x.Set(a, i, 0)
		x.Set(b, i, 1)
		y.Set(float64(3*a)+float64(0.01*b), i, 0)
	}
	run := func(opt Optimizer, lr float64) float64 {
		rng2 := rand.New(rand.NewSource(5))
		m := NewSequential(NewDense(rng2, "d", 2, 1))
		loss := MSE{}
		l := 0.0
		for i := 0; i < 200; i++ {
			m.ZeroGrads()
			pred := m.Forward(x, true)
			var grad *tensor.Tensor
			l, grad = loss.Forward(pred, y)
			m.Backward(grad)
			opt.Step(m.Params(), lr)
		}
		return l
	}
	sgdLoss := run(NewSGD(0, 0), 1e-5) // lr bounded by the big feature
	adamLoss := run(NewAdam(), 0.05)
	if adamLoss >= sgdLoss {
		t.Fatalf("Adam (%g) should beat SGD (%g) here", adamLoss, sgdLoss)
	}
}

func TestSGDMomentumAcceleratesConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x, labels := makeBlobs(rng, 100)
	target := OneHot(labels, 2)
	run := func(mom float64) float64 {
		rng2 := rand.New(rand.NewSource(13))
		m := MLP(rng2, 2, 8, 2)
		opt := NewSGD(mom, 0)
		loss := SoftmaxCrossEntropy{}
		l := 0.0
		for i := 0; i < 30; i++ {
			m.ZeroGrads()
			logits := m.Forward(x, true)
			var grad *tensor.Tensor
			l, grad = loss.Forward(logits, target)
			m.Backward(grad)
			opt.Step(m.Params(), 0.02)
		}
		return l
	}
	if run(0.9) >= run(0) {
		t.Fatal("momentum should accelerate on this problem")
	}
}

func TestWeightDecayShrinksWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := NewSequential(NewDense(rng, "d", 4, 4))
	w0 := m.Params()[0].Value.Norm2()
	opt := NewSGD(0, 0.1)
	for i := 0; i < 50; i++ {
		m.ZeroGrads() // zero gradient: only decay acts
		opt.Step(m.Params(), 0.1)
	}
	if m.Params()[0].Value.Norm2() >= w0 {
		t.Fatal("weight decay must shrink weights")
	}
	// Bias is NoDecay: must be untouched.
	if m.Params()[1].Value.Norm2() != 0 {
		t.Fatal("bias started at zero and must stay zero")
	}
}

func TestSchedules(t *testing.T) {
	c := ConstLR(0.1)
	if c.LR(0) != 0.1 || c.LR(1000) != 0.1 {
		t.Fatal("ConstLR")
	}
	w := WarmupLinearScale{Base: 0.1, Workers: 8, WarmupSteps: 100}
	if w.LR(0) != 0.1 {
		t.Fatalf("warmup start: %f", w.LR(0))
	}
	if w.LR(100) != 0.8 || w.LR(5000) != 0.8 {
		t.Fatalf("warmup target: %f", w.LR(100))
	}
	if !(w.LR(50) > 0.1 && w.LR(50) < 0.8) {
		t.Fatal("warmup midpoint")
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("w", tensor.FromSlice([]float64{3, 4}, 2))
	p.Grad = tensor.FromSlice([]float64{3, 4}, 2)
	norm := ClipGradNorm([]*Param{p}, 1)
	if norm != 5 {
		t.Fatalf("pre-clip norm %f", norm)
	}
	if math.Abs(p.Grad.Norm2()-1) > 1e-12 {
		t.Fatalf("post-clip norm %f", p.Grad.Norm2())
	}
	// Below the threshold: untouched.
	norm = ClipGradNorm([]*Param{p}, 10)
	if math.Abs(norm-1) > 1e-12 || math.Abs(p.Grad.Norm2()-1) > 1e-12 {
		t.Fatal("clip must be a no-op under the threshold")
	}
}

func TestDropoutTrainVsEval(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := NewDropout(rng, 0.5)
	x := tensor.Ones(1000)
	outTrain := d.Forward(x, true)
	zeros := 0
	for _, v := range outTrain.Data() {
		if v == 0 {
			zeros++
		}
	}
	if zeros < 400 || zeros > 600 {
		t.Fatalf("dropout rate off: %d/1000 zeroed", zeros)
	}
	// Survivors are scaled by 2 so the expectation is preserved.
	if m := outTrain.Sum() / float64(outTrain.Size()); math.Abs(m-1) > 0.15 {
		t.Fatalf("inverted dropout mean: %f", m)
	}
	outEval := d.Forward(x, false)
	if !tensor.AllClose(outEval, x, 0) {
		t.Fatal("eval-mode dropout must be identity")
	}
	// Backward after eval forward is identity too.
	g := d.Backward(tensor.Ones(1000))
	if !tensor.AllClose(g, tensor.Ones(1000), 0) {
		t.Fatal("eval-mode dropout backward must be identity")
	}
}

// TestDropoutMatchesTwoPassReference pins the single-sweep Dropout to the
// copy-then-rescale loops it replaced: for a fixed seed the mask, the
// output and the input gradient are the same bits, signed zeros included
// (a dropped negative activation is +0; its gradient is dout·0).
func TestDropoutMatchesTwoPassReference(t *testing.T) {
	const seed, rate = 11, 0.2
	data := rand.New(rand.NewSource(12))
	x := tensor.RandUniform(data, -1, 1, 7, 5, 33)
	dout := tensor.RandUniform(data, -1, 1, 7, 5, 33)

	rng := rand.New(rand.NewSource(seed))
	keep := 1 - rate
	scale := 1 / keep
	wantMask := make([]float64, x.Size())
	wantOut := x.Clone()
	for i := range wantOut.Data() {
		if rng.Float64() < keep {
			wantMask[i] = scale
			wantOut.Data()[i] *= scale
		} else {
			wantMask[i] = 0
			wantOut.Data()[i] = 0
		}
	}
	wantDin := dout.Clone()
	for i := range wantDin.Data() {
		wantDin.Data()[i] *= wantMask[i]
	}

	for _, ws := range []*tensor.Workspace{nil, tensor.NewWorkspace()} {
		d := NewDropout(rand.New(rand.NewSource(seed)), rate)
		d.SetWorkspace(ws)
		requireSameBits(t, "output", d.Forward(x, true), wantOut)
		requireSameBits(t, "mask", tensor.FromSlice(d.saved, len(d.saved)), tensor.FromSlice(wantMask, len(wantMask)))
		requireSameBits(t, "input gradient", d.Backward(dout), wantDin)
	}
}

// TestDropoutSelectMatchesBranch pins the bit-mask select of
// Dropout.Forward to the scalar branch it replaced, on inputs carrying
// -0, NaN payloads of both signs and ±Inf, over several seeds and rates:
// the output bits, the mask bits and the generator's next draw are equal.
func TestDropoutSelectMatchesBranch(t *testing.T) {
	specials := []float64{
		math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8_0000_dead_beef), math.Float64frombits(0xfff0_0000_0000_0001),
		math.SmallestNonzeroFloat64, -math.MaxFloat64,
	}
	for seed := int64(1); seed <= 6; seed++ {
		for _, rate := range []float64{0.2, 0.5, 0.9} {
			x := tensor.RandUniform(rand.New(rand.NewSource(seed+100)), -3, 3, 4, 9, 13)
			for i, v := range specials {
				x.Data()[(i*37+int(seed))%x.Size()] = v
			}
			ref := rand.New(rand.NewSource(seed))
			keep := 1 - rate
			scale := 1 / keep
			wantMask := make([]float64, x.Size())
			wantOut := tensor.New(x.Shape()...)
			for i, v := range x.Data() {
				if ref.Float64() < keep {
					wantMask[i] = scale
					wantOut.Data()[i] = v * scale
				} else {
					wantMask[i] = 0
					wantOut.Data()[i] = 0
				}
			}
			rng := rand.New(rand.NewSource(seed))
			d := NewDropout(rng, rate)
			requireSameBits(t, "output", d.Forward(x, true), wantOut)
			requireSameBits(t, "mask", tensor.FromSlice(d.saved, len(d.saved)), tensor.FromSlice(wantMask, len(wantMask)))
			if got, want := rng.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d rate %v: next draw %d, want %d", seed, rate, got, want)
			}
		}
	}
}

func TestDropoutRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDropout(rand.New(rand.NewSource(1)), 1.0)
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bn := NewBatchNorm2D("bn", 2)
	// Feed shifted data for several training steps.
	for i := 0; i < 50; i++ {
		x := tensor.Randn(rng, 1, 8, 2, 3, 3)
		for i := range x.Data() {
			x.Data()[i] += 5
		}
		bn.Forward(x, true)
	}
	// Eval on the same distribution: output should be ~N(0,1) per channel.
	x := tensor.Randn(rng, 1, 64, 2, 3, 3)
	for i := range x.Data() {
		x.Data()[i] += 5
	}
	out := bn.Forward(x, false)
	if m := out.Sum() / float64(out.Size()); math.Abs(m) > 0.2 {
		t.Fatalf("eval-mode BN mean %f, want ~0", m)
	}
}

func TestParamFlattenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := MLP(rng, 3, 5, 2)
	params := m.Params()
	flat := FlattenValues(params)
	if len(flat) != NumParams(params) {
		t.Fatal("flatten length")
	}
	// The flat copy is the arena's value slab, element for element, and
	// stays a copy: writing it leaves the parameters alone.
	values, _ := m.BindArena()
	if !floatsEqual(values, flat) {
		t.Fatal("FlattenValues disagrees with the bound value slab")
	}
	flat[0]++
	if params[0].Value.Data()[0] == flat[0] {
		t.Fatal("FlattenValues returned a view, not a copy")
	}
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMetrics(t *testing.T) {
	logits := tensor.FromSlice([]float64{
		2, 1, 0,
		0, 3, 1,
		1, 0, 4,
		5, 1, 1,
	}, 4, 3)
	labels := []int{0, 1, 2, 1} // last one wrong (pred 0)
	if acc := Accuracy(logits, labels); acc != 0.75 {
		t.Fatalf("accuracy %f", acc)
	}
	cm := ConfusionMatrix(logits, labels, 3)
	if cm[1][0] != 1 || cm[0][0] != 1 || cm[1][1] != 1 || cm[2][2] != 1 {
		t.Fatalf("confusion: %v", cm)
	}
	rec := PerClassRecall(cm)
	if rec[0] != 1 || rec[1] != 0.5 || rec[2] != 1 {
		t.Fatalf("recall: %v", rec)
	}
	prec := PerClassPrecision(cm)
	if prec[0] != 0.5 || prec[1] != 1 || prec[2] != 1 {
		t.Fatalf("precision: %v", prec)
	}
}

func TestMultiLabelF1(t *testing.T) {
	logits := tensor.FromSlice([]float64{1, -1, 1, -1}, 2, 2)
	target := tensor.FromSlice([]float64{1, 0, 0, 1}, 2, 2)
	// predictions: [1,0],[1,0]; targets: [1,0],[0,1] → tp=1 fp=1 fn=1.
	f1 := MultiLabelF1(logits, target)
	if math.Abs(f1-0.5) > 1e-12 {
		t.Fatalf("f1: %f", f1)
	}
	if MultiLabelF1(tensor.Full(-1, 2, 2), target) != 0 {
		t.Fatal("no positive predictions → f1 0")
	}
}

func TestOneHotPanicsOnBadLabel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	OneHot([]int{3}, 3)
}

func TestGRUImputerMatchesPaperArchitecture(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := GRUImputer(rng, 6)
	// 2 GRU layers + 2 dropout + TimeDistributed Dense(1) = 5 layers.
	if len(m.Layers) != 5 {
		t.Fatalf("layer count %d", len(m.Layers))
	}
	g1, ok := m.Layers[0].(*GRU)
	if !ok || g1.H != 32 {
		t.Fatal("first layer must be GRU(32)")
	}
	d1, ok := m.Layers[1].(*Dropout)
	if !ok || d1.Rate != 0.2 {
		t.Fatal("dropout 0.2 after first GRU")
	}
	g2, ok := m.Layers[2].(*GRU)
	if !ok || g2.H != 32 || g2.D != 32 {
		t.Fatal("second layer must be GRU(32) on 32 features")
	}
	out := m.Forward(tensor.New(3, 7, 6), false)
	if out.Dim(0) != 3 || out.Dim(1) != 7 || out.Dim(2) != 1 {
		t.Fatalf("imputer output shape %v", out.Shape())
	}
}

func TestResNetMiniShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := ResNetMini(rng, 4, 10, 8, 2)
	out := m.Forward(tensor.Randn(rng, 0.1, 2, 4, 16, 16), false)
	if out.Dim(0) != 2 || out.Dim(1) != 10 {
		t.Fatalf("resnet output %v", out.Shape())
	}
	if NumParams(m.Params()) < 1000 {
		t.Fatal("suspiciously few parameters")
	}
}

func TestCovidNetMiniShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := CovidNetMini(rng, 32, 3)
	out := m.Forward(tensor.Randn(rng, 0.1, 2, 1, 32, 32), false)
	if out.Dim(0) != 2 || out.Dim(1) != 3 {
		t.Fatalf("covidnet output %v", out.Shape())
	}
}

func TestConv1DImputerShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m := Conv1DImputer(rng, 5)
	out := m.Forward(tensor.New(2, 9, 5), false)
	if out.Dim(0) != 2 || out.Dim(1) != 9 || out.Dim(2) != 1 {
		t.Fatalf("conv1d imputer output %v", out.Shape())
	}
}

func TestMLPPanicsOnTooFewDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MLP(rand.New(rand.NewSource(1)), 4)
}

func TestGRULearnsToEchoInput(t *testing.T) {
	// Tiny sanity task: predict the running mean of a 1-D signal. The GRU
	// must beat the zero predictor decisively.
	rng := rand.New(rand.NewSource(15))
	n, tl := 16, 10
	x := tensor.New(n, tl, 1)
	y := tensor.New(n, tl, 1)
	for b := 0; b < n; b++ {
		s := 0.0
		for step := 0; step < tl; step++ {
			v := rng.Float64()
			s += float64(v)
			x.Set(v, b, step, 0)
			y.Set(s/float64(step+1), b, step, 0)
		}
	}
	m := NewSequential(NewGRU(rng, "g", 1, 8), NewTimeDistributed(NewDense(rng, "o", 8, 1)))
	opt := NewAdam()
	loss := MSE{}
	var l0, l float64
	for i := 0; i < 300; i++ {
		m.ZeroGrads()
		pred := m.Forward(x, true)
		var grad *tensor.Tensor
		l, grad = loss.Forward(pred, y)
		if i == 0 {
			l0 = l
		}
		m.Backward(grad)
		opt.Step(m.Params(), 0.02)
	}
	if l > l0/10 {
		t.Fatalf("GRU failed to learn: %f -> %f", l0, l)
	}
}

func TestFlattenLayer(t *testing.T) {
	f := &Flatten{}
	rng := rand.New(rand.NewSource(60))
	x := tensor.Randn(rng, 1, 2, 3, 4)
	out := f.Forward(x, true)
	if out.Dim(0) != 2 || out.Dim(1) != 12 {
		t.Fatalf("flatten shape %v", out.Shape())
	}
	back := f.Backward(tensor.Ones(2, 12))
	if back.NDim() != 3 || back.Dim(2) != 4 {
		t.Fatalf("unflatten shape %v", back.Shape())
	}
	if f.Params() != nil {
		t.Fatal("flatten has no params")
	}
}

func TestLossAndOptimizerNames(t *testing.T) {
	for _, tc := range []struct {
		got, want string
	}{
		{SoftmaxCrossEntropy{}.Name(), "softmax-ce"},
		{BCEWithLogits{}.Name(), "bce"},
		{MSE{}.Name(), "mse"},
		{MAE{}.Name(), "mae"},
		{MaskedMAE{}.Name(), "masked-mae"},
		{NewSGD(0, 0).Name(), "sgd"},
		{NewAdam().Name(), "adam"},
	} {
		if tc.got != tc.want {
			t.Fatalf("name %q want %q", tc.got, tc.want)
		}
	}
}

func TestOptimizerStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	x := tensor.Randn(rng, 1, 8, 3)
	y := tensor.Randn(rng, 1, 8, 1)
	loss := MSE{}

	run := func(opt StatefulOptimizer, resume func() StatefulOptimizer) []float64 {
		m := MLP(rand.New(rand.NewSource(62)), 3, 5, 1)
		stepOnce := func(o Optimizer) {
			m.ZeroGrads()
			out := m.Forward(x, true)
			_, g := loss.Forward(out, y)
			m.Backward(g)
			o.Step(m.Params(), 0.05)
		}
		stepOnce(opt)
		stepOnce(opt)
		if resume != nil {
			opt2 := resume()
			c, err := DecodeCheckpoint(EncodeCheckpoint(m, opt, 2), m, opt2)
			if err != nil {
				t.Fatal(err)
			}
			c.Apply()
			stepOnce(opt2)
			stepOnce(opt2)
		} else {
			stepOnce(opt)
			stepOnce(opt)
		}
		return FlattenValues(m.Params())
	}

	for _, mk := range []func() StatefulOptimizer{
		func() StatefulOptimizer { return NewSGD(0.9, 0) },
		func() StatefulOptimizer { return NewAdam() },
	} {
		straight := run(mk(), nil)
		resumed := run(mk(), mk)
		for i := range straight {
			if straight[i] != resumed[i] {
				t.Fatalf("%s state round trip diverged at %d", mk().Name(), i)
			}
		}
	}
}

// TestOptimizerLoadStateErrors: optimizer state loads only into the
// optimizer kind and model that wrote it.
func TestOptimizerLoadStateErrors(t *testing.T) {
	m := MLP(rand.New(rand.NewSource(63)), 2, 2)
	sgd, adam := NewSGD(0.9, 0), NewAdam()
	sgdBlob, adamBlob := EncodeCheckpoint(m, sgd, 0), EncodeCheckpoint(m, adam, 0)
	short := MLP(rand.New(rand.NewSource(64)), 2, 2, 2)
	stepped := NewAdam()
	stepped.Step(m.Params(), 0.1)
	mWithoutV := withoutSection(EncodeCheckpoint(m, stepped, 0), m.Params()[0].Name+"/v")
	for _, tc := range []struct {
		name string
		blob []byte
		m    *Sequential
		opt  StatefulOptimizer
	}{
		{"garbage into sgd", []byte("garbage"), m, sgd},
		{"garbage into adam", []byte("garbage"), m, adam},
		{"sgd into adam", sgdBlob, m, adam},
		{"adam into sgd", adamBlob, m, sgd},
		{"sgd into a model-only load", sgdBlob, m, nil},
		{"model-only into sgd", EncodeCheckpoint(m, nil, 0), m, sgd},
		{"param-count mismatch", sgdBlob, short, sgd},
		{"m without v", mWithoutV, m, adam},
	} {
		if _, err := DecodeCheckpoint(tc.blob, tc.m, tc.opt); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
}

// TestBackwardParamsMatchesBackward: a training step whose backward runs
// through BackwardParams leaves every parameter gradient bitwise equal to
// Backward's, and a first layer that skips its input gradient (Conv2D,
// Dense) borrows one workspace tensor fewer; any other first layer (the
// GRU) falls back to Backward.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	for _, tc := range []struct {
		name  string
		model func(rng *rand.Rand) *Sequential
		x     []int
		fewer int
	}{
		{"ResNetMini", func(rng *rand.Rand) *Sequential { return ResNetMini(rng, 3, 4, 8, 2) }, []int{5, 3, 12, 12}, 1},
		{"MLP", func(rng *rand.Rand) *Sequential { return MLP(rng, 10, 16, 4) }, []int{7, 10}, 1},
		{"CovidNetMini", func(rng *rand.Rand) *Sequential { return CovidNetMini(rng, 16, 4) }, []int{3, 1, 16, 16}, 1},
		{"GRUImputer", func(rng *rand.Rand) *Sequential { return GRUImputer(rng, 3) }, []int{4, 6, 3}, 0},
	} {
		var grads [2][]*tensor.Tensor
		var inUse [2]int
		for pass, paramsOnly := range []bool{false, true} {
			rng := rand.New(rand.NewSource(61))
			m := tc.model(rng)
			ws := tensor.NewWorkspace()
			m.SetWorkspace(ws)
			x := tensor.Randn(rng, 1, tc.x...)
			out := m.Forward(x, true)
			var loss Loss = MSE{}
			y := tensor.Randn(rng, 1, out.Shape()...)
			if len(out.Shape()) == 2 {
				labels := make([]int, out.Dim(0))
				for i := range labels {
					labels[i] = i % out.Dim(1)
				}
				loss, y = SoftmaxCrossEntropy{}, OneHot(labels, out.Dim(1))
			}
			_, grad := LossForward(ws, loss, out, y)
			if paramsOnly {
				m.BackwardParams(grad)
			} else {
				m.Backward(grad)
			}
			inUse[pass] = ws.InUse()
			for _, p := range m.Params() {
				grads[pass] = append(grads[pass], p.Grad)
			}
		}
		for i, g := range grads[1] {
			requireSameBits(t, fmt.Sprintf("%s param %d gradient", tc.name, i), g, grads[0][i])
		}
		if inUse[0]-inUse[1] != tc.fewer {
			t.Errorf("%s: %d workspace tensors in use after Backward, %d after BackwardParams, want %d fewer", tc.name, inUse[0], inUse[1], tc.fewer)
		}
	}
}
