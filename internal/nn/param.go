// Package nn is a pure-Go neural-network library with explicit
// forward/backward layers, built on internal/tensor. It provides every
// architecture the paper's case studies use: dense networks, ResNet-style
// convolutional networks for the BigEarthNet land-cover and COVID-Net
// chest-X-ray studies, and GRU recurrent networks for the ARDS time-series
// study — plus the losses, optimizers, and learning-rate schedules
// (including the warmup + linear-scaling rule required for large-batch
// distributed training).
//
// Layers are stateful: Forward caches activations that Backward consumes,
// so a model instance belongs to one goroutine. Distributed training
// creates one model per rank and synchronizes parameters by broadcast
// (exactly as Horovod does).
package nn

import (
	"repro/internal/tensor"
)

// Param is one trainable tensor with its accumulated gradient.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
	// NoDecay exempts the parameter from weight decay (biases, norms).
	NoDecay bool
}

// NewParam allocates a parameter with a zeroed gradient of the same shape.
func NewParam(name string, value *tensor.Tensor) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Shape()...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// NumParams sums the element counts of a parameter list.
func NumParams(params []*Param) int {
	n := 0
	for _, p := range params {
		n += p.Value.Size()
	}
	return n
}

// FlattenValues copies all parameter values into one new flat vector in
// list order (a snapshot for comparisons; a bound model's values already
// sit in one slab, see Sequential.BindArena).
func FlattenValues(params []*Param) []float64 {
	out := make([]float64, 0, NumParams(params))
	for _, p := range params {
		out = append(out, p.Value.Data()...)
	}
	return out
}

// Layer is one differentiable stage of a network.
type Layer interface {
	// Forward computes the layer output; train toggles training-only
	// behaviour (dropout, batch-norm statistics).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes dL/dout and returns dL/din, accumulating parameter
	// gradients. It must be called after Forward with the matching input.
	Backward(dout *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
	// Stasher parks the state Forward leaves for Backward per
	// micro-batch, so pipeline schedules can interleave passes.
	Stasher
}
