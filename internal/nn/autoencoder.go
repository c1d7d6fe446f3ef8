package nn

import (
	"math/rand"

	"repro/internal/tensor"
)

// Autoencoder is the non-linear RS data-compression model of the paper's
// cloud case study (Haut et al. [7]: "a cloud implementation of a DL
// network for non-linear RS data compression known as AutoEncoder"). The
// encoder maps D-dimensional spectra to a k-dimensional code; the decoder
// reconstructs them.
type Autoencoder struct {
	Encoder *Sequential
	Decoder *Sequential
}

// NewAutoencoder builds a symmetric dense autoencoder
// D → hidden → k → hidden → D with tanh nonlinearities (the spectra are
// roughly centered) and linear code/output layers.
func NewAutoencoder(rng *rand.Rand, inputDim, hidden, code int) *Autoencoder {
	return &Autoencoder{
		Encoder: NewSequential(
			NewDense(rng, "enc1", inputDim, hidden),
			&Tanh{},
			NewDense(rng, "enc2", hidden, code),
		),
		Decoder: NewSequential(
			NewDense(rng, "dec1", code, hidden),
			&Tanh{},
			NewDense(rng, "dec2", hidden, inputDim),
		),
	}
}

// Forward runs encode+decode.
func (a *Autoencoder) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return a.Decoder.Forward(a.Encoder.Forward(x, train), train)
}

// Backward propagates the reconstruction gradient through both halves.
func (a *Autoencoder) Backward(dout *tensor.Tensor) *tensor.Tensor {
	return a.Encoder.Backward(a.Decoder.Backward(dout))
}

// Params returns encoder followed by decoder parameters.
func (a *Autoencoder) Params() []*Param {
	return append(a.Encoder.Params(), a.Decoder.Params()...)
}

// Reconstruct encodes and decodes in eval mode.
func (a *Autoencoder) Reconstruct(x *tensor.Tensor) *tensor.Tensor {
	return a.Decoder.Forward(a.Encoder.Forward(x, false), false)
}

// TrainAutoencoder fits the model to reconstruct x with Adam + MSE for
// the given number of full-batch epochs, returning the final loss.
func TrainAutoencoder(a *Autoencoder, x *tensor.Tensor, epochs int, lr float64) float64 {
	opt := NewAdam()
	loss := MSE{}
	params := a.Params()
	final := 0.0
	for e := 0; e < epochs; e++ {
		for _, p := range params {
			p.ZeroGrad()
		}
		out := a.Forward(x, true)
		var grad *tensor.Tensor
		final, grad = loss.Forward(out, x)
		a.Backward(grad)
		opt.Step(params, lr)
	}
	return final
}
