package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// lossOf projects a tensor to a scalar with fixed random weights, so the
// numeric and analytic gradients of any layer can be compared.
type projector struct {
	w *tensor.Tensor
}

func newProjector(rng *rand.Rand, shape []int) *projector {
	return &projector{w: tensor.Randn(rng, 1, shape...)}
}

func (p *projector) loss(out *tensor.Tensor) float64 { return tensor.Dot(out, p.w) }

func (p *projector) grad() *tensor.Tensor { return p.w.Clone() }

// checkLayerGradients verifies a layer's input and parameter gradients
// against central finite differences. The layer must behave
// deterministically across repeated Forward calls (dropout is checked
// separately with a frozen mask).
func checkLayerGradients(t *testing.T, layer Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	out := layer.Forward(x, true)
	proj := newProjector(rng, out.Shape())

	for _, p := range layer.Params() {
		p.ZeroGrad()
	}
	layer.Forward(x, true) // refresh caches (BN running stats drift is fine)
	dx := layer.Backward(proj.grad())

	const h = 1e-5
	// Input gradient.
	numDX := tensor.New(x.Shape()...)
	for i := 0; i < x.Size(); i++ {
		orig := x.Data()[i]
		x.Data()[i] = orig + h
		lp := proj.loss(layer.Forward(x, true))
		x.Data()[i] = orig - h
		lm := proj.loss(layer.Forward(x, true))
		x.Data()[i] = orig
		numDX.Data()[i] = (lp - lm) / (2 * h)
	}
	maxErr := 0.0
	for i := range dx.Data() {
		e := relErr(dx.Data()[i], numDX.Data()[i])
		if e > maxErr {
			maxErr = e
		}
	}
	if maxErr > tol {
		t.Fatalf("input gradient mismatch: max rel err %g > %g", maxErr, tol)
	}

	// Parameter gradients.
	for _, p := range layer.Params() {
		for i := 0; i < p.Value.Size(); i++ {
			orig := p.Value.Data()[i]
			p.Value.Data()[i] = orig + h
			lp := proj.loss(layer.Forward(x, true))
			p.Value.Data()[i] = orig - h
			lm := proj.loss(layer.Forward(x, true))
			p.Value.Data()[i] = orig
			num := (lp - lm) / (2 * h)
			if e := relErr(p.Grad.Data()[i], num); e > tol {
				t.Fatalf("param %s[%d] gradient mismatch: analytic %g numeric %g (rel err %g)",
					p.Name, i, p.Grad.Data()[i], num, e)
			}
		}
	}
}

func relErr(a, b float64) float64 {
	diff := math.Abs(a - b)
	scale := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1e-4)
	return diff / scale
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	layer := NewDense(rng, "d", 5, 4)
	x := tensor.Randn(rng, 1, 3, 5)
	checkLayerGradients(t, layer, x, 1e-5)
}

func TestReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := tensor.Randn(rng, 1, 4, 6)
	// Keep activations away from the kink at 0.
	tensor.ApplyInto(x, x, func(v float64) float64 {
		if math.Abs(v) < 0.05 {
			return v + 0.2
		}
		return v
	})
	checkLayerGradients(t, &ReLU{}, x, 1e-5)
}

// sigmoidLayer applies the logistic function elementwise: a stateless
// layer whose backward reads its own saved output.
type sigmoidLayer struct {
	base[*tensor.Tensor] // saved: the output
}

func (s *sigmoidLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	s.saved = tensor.SigmoidInto(s.ws.GetUninit(x.Shape()...), x)
	return s.saved
}

func (s *sigmoidLayer) Backward(dout *tensor.Tensor) *tensor.Tensor {
	din := cloneInto(s.ws, dout)
	for i, o := range s.saved.Data() {
		din.Data()[i] *= o * (1 - o)
	}
	return din
}

func (s *sigmoidLayer) Params() []*Param { return nil }

func TestSigmoidTanhGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	checkLayerGradients(t, &sigmoidLayer{}, tensor.Randn(rng, 1, 3, 4), 1e-5)
	checkLayerGradients(t, &Tanh{}, tensor.Randn(rng, 1, 3, 4), 1e-5)
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	layer := NewConv2D(rng, "c", 2, 3, 3, 1, 1)
	x := tensor.Randn(rng, 1, 2, 2, 5, 5)
	checkLayerGradients(t, layer, x, 1e-4)
}

func TestConv2DStridedGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	layer := NewConv2D(rng, "c", 1, 2, 3, 2, 1)
	x := tensor.Randn(rng, 1, 1, 1, 7, 7)
	checkLayerGradients(t, layer, x, 1e-4)
}

func TestMaxPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := tensor.Randn(rng, 1, 2, 2, 4, 4)
	checkLayerGradients(t, NewMaxPool(2, 2), x, 1e-4)
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := tensor.Randn(rng, 1, 2, 3, 4, 4)
	checkLayerGradients(t, &GlobalAvgPool2D{}, x, 1e-5)
}

func TestBatchNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	layer := NewBatchNorm2D("bn", 3)
	x := tensor.Randn(rng, 1, 4, 3, 3, 3)
	// Batch-norm uses batch statistics, so finite differences see the
	// statistic shift too — the analytic gradient accounts for it.
	checkLayerGradients(t, layer, x, 1e-3)
}

func TestResidualBlockGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	layer := NewResidual(rng, "res", 2, 3, 2) // projection shortcut path
	x := tensor.Randn(rng, 1, 2, 2, 6, 6)
	checkLayerGradients(t, layer, x, 1e-3)
}

func TestResidualIdentityGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	layer := NewResidual(rng, "res", 3, 3, 1) // identity shortcut
	x := tensor.Randn(rng, 1, 2, 3, 5, 5)
	checkLayerGradients(t, layer, x, 1e-3)
}

func TestGRUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	layer := NewGRU(rng, "gru", 3, 4)
	x := tensor.Randn(rng, 1, 2, 5, 3) // N=2, T=5, D=3
	checkLayerGradients(t, layer, x, 1e-4)
}

func TestConv1DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	layer := NewConv1D(rng, "c1d", 2, 3, 3, 1, 1)
	x := tensor.Randn(rng, 1, 2, 6, 2) // N=2, T=6, D=2
	checkLayerGradients(t, layer, x, 1e-4)
}

func TestTimeDistributedGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	layer := NewTimeDistributed(NewDense(rng, "td", 3, 2))
	x := tensor.Randn(rng, 1, 2, 4, 3)
	checkLayerGradients(t, layer, x, 1e-5)
}

func TestLastTimestepGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x := tensor.Randn(rng, 1, 2, 4, 3)
	checkLayerGradients(t, &LastTimestep{}, x, 1e-5)
}

func TestSequentialGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	model := NewSequential(
		NewDense(rng, "d1", 4, 8),
		&Tanh{},
		NewDense(rng, "d2", 8, 3),
	)
	x := tensor.Randn(rng, 1, 3, 4)
	checkLayerGradients(t, model, x, 1e-5)
}

// Loss gradient checks: perturb logits and compare dL/dlogits.
func checkLossGradient(t *testing.T, loss Loss, logits, target *tensor.Tensor, tol float64) {
	t.Helper()
	_, grad := loss.Forward(logits, target)
	const h = 1e-6
	for i := 0; i < logits.Size(); i++ {
		orig := logits.Data()[i]
		logits.Data()[i] = orig + h
		lp, _ := loss.Forward(logits, target)
		logits.Data()[i] = orig - h
		lm, _ := loss.Forward(logits, target)
		logits.Data()[i] = orig
		num := (lp - lm) / (2 * h)
		if e := relErr(grad.Data()[i], num); e > tol {
			t.Fatalf("%s grad[%d]: analytic %g numeric %g", loss.Name(), i, grad.Data()[i], num)
		}
	}
}

func TestSoftmaxCELossGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	logits := tensor.Randn(rng, 1, 4, 3)
	target := OneHot([]int{0, 2, 1, 1}, 3)
	checkLossGradient(t, SoftmaxCrossEntropy{}, logits, target, 1e-3)
}

func TestBCELossGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	logits := tensor.Randn(rng, 1, 3, 5)
	target := tensor.New(3, 5)
	for i := range target.Data() {
		if rng.Float64() < 0.4 {
			target.Data()[i] = 1
		}
	}
	checkLossGradient(t, BCEWithLogits{}, logits, target, 1e-3)
}

func TestMSELossGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	pred := tensor.Randn(rng, 1, 3, 4)
	target := tensor.Randn(rng, 1, 3, 4)
	checkLossGradient(t, MSE{}, pred, target, 1e-3)
}

func TestMAELossGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	pred := tensor.Randn(rng, 1, 3, 4)
	target := tensor.Randn(rng, 1, 3, 4)
	checkLossGradient(t, MAE{}, pred, target, 1e-3)
}

func TestMaskedMAEGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	pred := tensor.Randn(rng, 1, 3, 4)
	target := tensor.Randn(rng, 1, 3, 4)
	mask := tensor.New(3, 4)
	for i := range mask.Data() {
		if rng.Float64() < 0.5 {
			mask.Data()[i] = 1
		}
	}
	checkLossGradient(t, MaskedMAE{Mask: mask}, pred, target, 1e-3)
}

func TestMaskedMAEEmptyMask(t *testing.T) {
	pred := tensor.Ones(2, 2)
	target := tensor.New(2, 2)
	mask := tensor.New(2, 2)
	l, g := MaskedMAE{Mask: mask}.Forward(pred, target)
	if l != 0 || g.Norm2() != 0 {
		t.Fatal("empty mask must give zero loss and gradient")
	}
}
