package nn

import (
	"repro/internal/tensor"
)

// Activation maps final-layer logits to probabilities. The choice follows
// the training loss: SoftmaxCrossEntropy-trained single-label heads use
// ActSoftmax, BCEWithLogits-trained multi-label heads (BigEarthNet) use
// ActSigmoid.
type Activation int

// Logit-to-probability mappings.
const (
	ActSoftmax  Activation = iota // single-label: each row sums to 1
	ActSigmoid                    // multi-label: independent per-class probability
	ActIdentity                   // raw scores, no mapping
)

// Activate converts a (N, classes) logit matrix to probabilities, with
// the output borrowed from ws (allocated fresh when ws is nil). For
// ActIdentity the input is returned unchanged, never a borrow. Argmax is
// preserved for every choice (softmax and sigmoid are monotone), so
// classification decisions are activation-independent.
func Activate(ws *tensor.Workspace, logits *tensor.Tensor, act Activation) *tensor.Tensor {
	switch act {
	case ActSoftmax:
		return tensor.SoftmaxRowsInto(ws.Get(logits.Shape()...), logits)
	case ActSigmoid:
		return tensor.SigmoidInto(ws.Get(logits.Shape()...), logits)
	default:
		return logits
	}
}
