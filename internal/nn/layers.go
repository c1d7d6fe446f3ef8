package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/tensor"
)

// Dense is a fully connected layer: y = xW + b for x of shape (N, in).
type Dense struct {
	W, B *Param

	base[*tensor.Tensor] // saved: the input
}

// NewDense creates a Dense layer with He-uniform initialization.
func NewDense(rng *rand.Rand, name string, in, out int) *Dense {
	bound := math.Sqrt(6.0 / float64(in))
	return &Dense{
		W: NewParam(name+".W", tensor.RandUniform(rng, -bound, bound, in, out)),
		B: &Param{Name: name + ".b", Value: tensor.New(out), Grad: tensor.New(out), NoDecay: true},
	}
}

// Forward computes xW + b with the bias add fused into the matmul
// epilogue.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	d.saved = x
	y := d.ws.GetUninit(x.Dim(0), d.W.Value.Dim(1)) // the GEMM zeroes it
	tensor.MatMulBiasInto(y, x, d.W.Value, d.B.Value)
	return y
}

// Backward accumulates dW = xᵀ·dout, db = Σ dout and returns dout·Wᵀ.
func (d *Dense) Backward(dout *tensor.Tensor) *tensor.Tensor {
	d.backwardParams(dout)
	din := d.ws.GetUninit(dout.Dim(0), d.W.Value.Dim(0)) // the GEMM zeroes it
	tensor.MatMulTInto(din, dout, d.W.Value)
	return din
}

// backwardParams is Backward without the input gradient
// (Sequential.BackwardParams).
func (d *Dense) backwardParams(dout *tensor.Tensor) {
	tensor.TMatMulAccInto(d.W.Grad, d.saved, dout)
	dB := d.ws.Get(d.B.Value.Shape()...)
	tensor.SumAxis0Into(dB, dout)
	d.B.Grad.AddInPlace(dB)
	d.ws.Put(dB)
}

// Params returns W and b.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// ReLU applies max(0, x) elementwise: v <= 0 writes a literal +0 (so -0
// maps to +0), and anything else — NaN included — passes through. A
// training Forward keeps a pointer to its output, whose sign gates
// Backward; an eval-mode Forward (train false) keeps nothing, so Backward
// must follow a training Forward. After a Conv2D → BatchNorm2D it is
// linked to the conv (see Conv2D), and an eval Forward returns its input,
// which the conv has already rectified.
type ReLU struct {
	base[*tensor.Tensor] // saved: the output

	conv *Conv2D // the conv that applies this layer in eval (evalLinks)
}

// Forward applies the rectifier (tensor.ReLUInto).
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if _, linked := r.conv.evalLinks(); linked == r && !train {
		return x
	}
	out := tensor.ReLUInto(r.ws.GetUninit(x.Shape()...), x)
	if train {
		r.saved = out
	}
	return out
}

// Backward passes the upstream gradient where the output is not <= 0,
// which is exactly where the input was not (tensor.ReLUBackwardInto).
func (r *ReLU) Backward(dout *tensor.Tensor) *tensor.Tensor {
	return tensor.ReLUBackwardInto(r.ws.GetUninit(dout.Shape()...), r.saved, dout)
}

// Params returns nil: ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// Sigmoid applies the logistic function elementwise.
type Sigmoid struct {
	base[*tensor.Tensor] // saved: the output
}

// Forward computes σ(x), caching the output for the backward pass.
func (s *Sigmoid) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	s.saved = tensor.SigmoidInto(s.ws.GetUninit(x.Shape()...), x)
	return s.saved
}

// Backward computes dout · σ(x)(1-σ(x)).
func (s *Sigmoid) Backward(dout *tensor.Tensor) *tensor.Tensor {
	din := cloneInto(s.ws, dout)
	for i, o := range s.saved.Data() {
		din.Data()[i] *= o * (1 - o)
	}
	return din
}

// Params returns nil.
func (s *Sigmoid) Params() []*Param { return nil }

// Tanh applies the hyperbolic tangent elementwise.
type Tanh struct {
	base[*tensor.Tensor] // saved: the output
}

// Forward computes tanh(x).
func (t *Tanh) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	t.saved = tensor.TanhInto(t.ws.GetUninit(x.Shape()...), x)
	return t.saved
}

// Backward computes dout · (1 - tanh²(x)).
func (t *Tanh) Backward(dout *tensor.Tensor) *tensor.Tensor {
	din := cloneInto(t.ws, dout)
	for i, o := range t.saved.Data() {
		din.Data()[i] *= 1 - float64(o*o)
	}
	return din
}

// Params returns nil.
func (t *Tanh) Params() []*Param { return nil }

// Dropout zeroes a fraction Rate of activations during training and
// rescales the survivors by 1/(1-Rate) (inverted dropout), matching the
// Keras behaviour used by the paper's GRU model (dropout 0.2, §IV-B).
type Dropout struct {
	Rate float64
	rng  *rand.Rand

	base[[]float64] // saved: the mask (nil after an eval Forward)
}

// NewDropout creates a dropout layer with its own RNG stream.
func NewDropout(rng *rand.Rand, rate float64) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("nn: dropout rate %f out of [0,1)", rate))
	}
	return &Dropout{Rate: rate, rng: rng}
}

// Forward samples a fresh mask in training mode; identity in eval mode.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || d.Rate == 0 {
		d.saved = nil
		return x
	}
	keep := 1 - d.Rate
	scale := 1 / keep
	if cap(d.saved) < x.Size() {
		d.saved = make([]float64, x.Size())
	}
	d.saved = d.saved[:x.Size()]
	out := d.ws.GetUninit(x.Shape()...)
	// One sweep: draw, record the mask, write the output. The draw order
	// (one rng.Float64 per element, ascending) fixes the mask per seed.
	xd, od, mask, rng := x.Data(), out.Data(), d.saved, d.rng
	for i, v := range xd {
		if rng.Float64() < keep {
			mask[i] = scale
			od[i] = v * scale
		} else {
			mask[i] = 0
			od[i] = 0 // a literal +0, not v·0 (which is -0 for negative v)
		}
	}
	return out
}

// Backward applies the cached mask (identity if eval-mode Forward ran).
func (d *Dropout) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if d.saved == nil {
		return dout
	}
	din := d.ws.GetUninit(dout.Shape()...)
	tensor.VecMulInto(din.Data(), dout.Data(), d.saved)
	return din
}

// Params returns nil.
func (d *Dropout) Params() []*Param { return nil }

// Flatten reshapes (N, ...) to (N, prod(...)).
type Flatten struct {
	base[[]int] // saved: the input shape
}

// Forward flattens all trailing axes.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.saved = append(f.saved[:0], x.Shape()...)
	n := x.Dim(0)
	return x.Reshape(n, -1)
}

// Backward restores the cached input shape.
func (f *Flatten) Backward(dout *tensor.Tensor) *tensor.Tensor {
	return dout.Reshape(f.saved...)
}

// Params returns nil.
func (f *Flatten) Params() []*Param { return nil }

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
	// ws remembers the workspace installed by SetWorkspace (nil means the
	// model allocates plainly).
	ws *tensor.Workspace
	// paramsCache memoizes the flattened parameter list (see Params).
	paramsCache []*Param
	// values and grads are the parameter arena once bound is set (see
	// BindArena).
	values, grads []float64
	bound         bool
}

// NewSequential builds a model from the given layers and links their
// Conv2D → BatchNorm2D (→ ReLU) runs for eval (linkEval).
func NewSequential(layers ...Layer) *Sequential {
	linkEval(layers)
	return &Sequential{Layers: layers}
}

// Add appends a layer, links it as NewSequential would and invalidates
// the cached parameter list. It panics once the parameter arena is bound:
// the arena's layout is fixed.
func (s *Sequential) Add(l Layer) {
	if s.bound {
		panic("nn: Sequential.Add after BindArena: the parameter arena's layout is fixed")
	}
	s.Layers = append(s.Layers, l)
	linkEval(s.Layers)
	s.paramsCache = nil
}

// linkEval links each Conv2D → BatchNorm2D (→ ReLU) run of layers for
// eval (see Conv2D). Each of the three sets its own link from its
// neighbours here, so one that is in no such run here is unlinked, as at
// a pipeline cut. The links live on the layers, so wrappers installed
// later, as a tracer's are, keep them.
func linkEval(layers []Layer) {
	at := func(i int) Layer {
		if i < 0 || i >= len(layers) {
			return nil
		}
		return layers[i]
	}
	for i, l := range layers {
		switch v := l.(type) {
		case *Conv2D:
			v.bn, _ = at(i + 1).(*BatchNorm2D)
			v.relu, _ = at(i + 2).(*ReLU)
		case *BatchNorm2D:
			v.conv, _ = at(i - 1).(*Conv2D)
		case *ReLU:
			v.conv, _ = at(i - 2).(*Conv2D)
		}
	}
}

// Forward runs all layers in order.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs all layers in reverse order.
func (s *Sequential) Backward(dout *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dout = s.Layers[i].Backward(dout)
	}
	return dout
}

// BackwardParams is Backward for a caller that drops the model's input
// gradient: the first layer accumulates its parameter gradients and
// computes no input gradient where it can (Conv2D and Dense); any other
// first layer runs its Backward. Every parameter gradient gets Backward's
// bits.
func (s *Sequential) BackwardParams(dout *tensor.Tensor) {
	for i := len(s.Layers) - 1; i > 0; i-- {
		dout = s.Layers[i].Backward(dout)
	}
	if l, ok := s.Layers[0].(interface{ backwardParams(*tensor.Tensor) }); ok {
		l.backwardParams(dout)
	} else {
		s.Layers[0].Backward(dout)
	}
}

// Params concatenates all layers' parameters in order. The list is cached
// per layer set (Add invalidates it) so per-step callers — ZeroGrads runs
// every training step — stay off the allocator. Callers must not modify
// the returned slice.
func (s *Sequential) Params() []*Param {
	if s.paramsCache == nil {
		for _, l := range s.Layers {
			s.paramsCache = append(s.paramsCache, l.Params()...)
		}
	}
	return s.paramsCache
}

// ZeroGrads clears every parameter gradient in the model. On a bound
// model the gradient views tile the whole gradient slab, so this clears
// the slab.
func (s *Sequential) ZeroGrads() {
	for _, p := range s.Params() {
		p.ZeroGrad()
	}
}

// BindArena gives the model one contiguous value slab and one gradient
// slab, each laid out in Params() order, and returns them. Every
// Param.Value and Param.Grad becomes a view into its slab, holding the
// numbers it held before; layers read p.Value and p.Grad at call time, so
// they run unchanged. Distributed training exchanges the slabs in place:
// the gradient slab is the reduce-scatter or allreduce buffer, the value
// slab the allgather's, and a pipeline chunk is a sub-slice (Span). Binding a bound model only
// returns its slabs, and Add panics afterwards. Parameters must be
// float64.
func (s *Sequential) BindArena() (values, grads []float64) {
	if s.bound {
		return s.values, s.grads
	}
	params := s.Params()
	n := NumParams(params)
	s.values, s.grads = make([]float64, n), make([]float64, n)
	off := 0
	for _, p := range params {
		hi := off + p.Value.Size()
		v, g := s.values[off:hi:hi], s.grads[off:hi:hi]
		copy(v, p.Value.Data())
		copy(g, p.Grad.Data())
		p.Value = tensor.FromSlice(v, p.Value.Shape()...)
		p.Grad = tensor.FromSlice(g, p.Grad.Shape()...)
		off = hi
	}
	s.bound = true
	return s.values, s.grads
}

// Span returns the value and gradient sub-slices of the bound arena that
// hold ps, which must be a contiguous run of Params() in order, such as a
// pipeline chunk. It panics on an unbound model or on a list
// that is not such a run; an empty ps yields empty spans.
func (s *Sequential) Span(ps []*Param) (values, grads []float64) {
	if !s.bound {
		panic("nn: Span on a model without a bound parameter arena (call BindArena)")
	}
	if len(ps) == 0 {
		return nil, nil
	}
	all := s.Params()
	i := slices.Index(all, ps[0])
	if i < 0 || i+len(ps) > len(all) || !slices.Equal(all[i:i+len(ps)], ps) {
		panic("nn: Span params are not a contiguous run of the model's Params()")
	}
	lo := NumParams(all[:i])
	hi := lo + NumParams(ps)
	return s.values[lo:hi:hi], s.grads[lo:hi:hi]
}
