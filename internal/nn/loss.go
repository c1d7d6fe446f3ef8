package nn

import (
	"math"

	"repro/internal/tensor"
)

// Loss computes a scalar training objective and its gradient with respect
// to the network output.
type Loss interface {
	// Forward returns the mean loss over the batch and dL/dlogits.
	Forward(logits, target *tensor.Tensor) (float64, *tensor.Tensor)
	Name() string
}

// SoftmaxCrossEntropy is the multi-class classification loss over logits
// (N, C); targets are one-hot rows (N, C).
type SoftmaxCrossEntropy struct{}

// Name returns "softmax-ce".
func (SoftmaxCrossEntropy) Name() string { return "softmax-ce" }

// Forward computes mean cross-entropy and the (softmax - target)/N grad.
func (SoftmaxCrossEntropy) Forward(logits, target *tensor.Tensor) (float64, *tensor.Tensor) {
	return softmaxCEForward(nil, logits, target)
}

func softmaxCEForward(ws *tensor.Workspace, logits, target *tensor.Tensor) (float64, *tensor.Tensor) {
	n := logits.Dim(0)
	probs := tensor.SoftmaxRowsInto(ws.Get(logits.Shape()...), logits)
	loss := 0.0
	for i := 0; i < n; i++ {
		prow := probs.Row(i)
		trow := target.Row(i)
		for j, tv := range trow {
			if tv > 0 {
				loss -= float64(tv * math.Log(math.Max(prow[j], 1e-12)))
			}
		}
	}
	grad := tensor.SubInto(ws.Get(logits.Shape()...), probs, target)
	grad.Scale(1 / float64(n))
	ws.Put(probs)
	return loss / float64(n), grad
}

// BCEWithLogits is elementwise binary cross-entropy on logits, the
// multi-label loss of the BigEarthNet task (each patch carries several
// land-cover labels).
type BCEWithLogits struct{}

// Name returns "bce".
func (BCEWithLogits) Name() string { return "bce" }

// Forward computes mean BCE over all elements and σ(x)-y gradient.
func (BCEWithLogits) Forward(logits, target *tensor.Tensor) (float64, *tensor.Tensor) {
	return bceForward(nil, logits, target)
}

func bceForward(ws *tensor.Workspace, logits, target *tensor.Tensor) (float64, *tensor.Tensor) {
	n := logits.Size()
	grad := ws.Get(logits.Shape()...)
	loss := 0.0
	ld, td, gd := logits.Data(), target.Data(), grad.Data()
	inv := 1 / float64(n)
	for i := range ld {
		x, y := ld[i], td[i]
		// Numerically stable: max(x,0) - x·y + log(1+exp(-|x|)).
		loss += math.Max(x, 0) - float64(x*y) + math.Log1p(math.Exp(-math.Abs(x)))
		s := 1 / (1 + math.Exp(-x))
		gd[i] = (s - y) * inv
	}
	return loss * inv, grad
}

// MSE is mean squared error over all elements.
type MSE struct{}

// Name returns "mse".
func (MSE) Name() string { return "mse" }

// Forward computes mean (pred-target)² and its gradient.
func (MSE) Forward(pred, target *tensor.Tensor) (float64, *tensor.Tensor) {
	return mseForward(nil, pred, target)
}

func mseForward(ws *tensor.Workspace, pred, target *tensor.Tensor) (float64, *tensor.Tensor) {
	n := float64(pred.Size())
	grad := ws.Get(pred.Shape()...)
	loss := 0.0
	pd, td, gd := pred.Data(), target.Data(), grad.Data()
	for i := range pd {
		d := pd[i] - td[i]
		loss += float64(d * d)
		gd[i] = 2 * d / n
	}
	return loss / n, grad
}

// MAE is mean absolute error: the loss of the paper's GRU imputation
// model (§IV-B: "Loss is calculated using the Mean Absolute Error").
type MAE struct{}

// Name returns "mae".
func (MAE) Name() string { return "mae" }

// Forward computes mean |pred-target| with the sign subgradient.
func (MAE) Forward(pred, target *tensor.Tensor) (float64, *tensor.Tensor) {
	return maeForward(nil, pred, target)
}

func maeForward(ws *tensor.Workspace, pred, target *tensor.Tensor) (float64, *tensor.Tensor) {
	n := float64(pred.Size())
	grad := ws.Get(pred.Shape()...)
	loss := 0.0
	pd, td, gd := pred.Data(), target.Data(), grad.Data()
	for i := range pd {
		d := pd[i] - td[i]
		loss += math.Abs(d)
		switch {
		case d > 0:
			gd[i] = 1 / n
		case d < 0:
			gd[i] = -1 / n
		}
	}
	return loss / n, grad
}

// MaskedMAE is MAE evaluated only where mask is 1: the imputation loss is
// charged only at artificially hidden observations, not at genuinely
// missing values.
type MaskedMAE struct {
	Mask *tensor.Tensor
}

// Name returns "masked-mae".
func (MaskedMAE) Name() string { return "masked-mae" }

// Forward computes mean |pred-target| over masked positions.
func (m MaskedMAE) Forward(pred, target *tensor.Tensor) (float64, *tensor.Tensor) {
	return m.forward(nil, pred, target)
}

func (m MaskedMAE) forward(ws *tensor.Workspace, pred, target *tensor.Tensor) (float64, *tensor.Tensor) {
	grad := ws.Get(pred.Shape()...)
	loss, cnt := 0.0, 0.0
	pd, td, gd, md := pred.Data(), target.Data(), grad.Data(), m.Mask.Data()
	for i := range pd {
		if md[i] == 0 {
			continue
		}
		cnt++
		d := pd[i] - td[i]
		loss += math.Abs(d)
		if d > 0 {
			gd[i] = 1
		} else if d < 0 {
			gd[i] = -1
		}
	}
	if cnt == 0 {
		return 0, grad
	}
	grad.Scale(1 / cnt)
	return loss / cnt, grad
}
