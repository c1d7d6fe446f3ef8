package nn

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over (N, C, H, W) input. Forward, filter
// gradient and input gradient each run one packed-GEMM kernel of the
// tensor convolution engine over the NCHW tensors directly; no im2col
// matrix is built, so between the passes the layer keeps only a pointer
// to its input, as Dense does.
//
// Where a Sequential holds Conv2D → BatchNorm2D (→ ReLU), it links them
// when it is built (linkEval). An eval Forward of the conv then applies
// the batch norm and the rectifier in its tile store, and their own eval
// Forwards return their input: the same bits as three passes, in one.
type Conv2D struct {
	W, B      *Param // W: (C·KH·KW, OutC), B: (OutC)
	InC, OutC int
	KH, KW    int
	Stride    int
	// PadH and PadW pad the two spatial axes independently (Conv1D uses a
	// 1×k kernel padded only along time).
	PadH, PadW int

	base[*tensor.Tensor] // saved: the input

	bn   *BatchNorm2D // eval links (evalLinks)
	relu *ReLU
}

// evalLinks returns the batch norm and rectifier an eval Forward of c
// applies: those linkEval last linked to c and to nothing since.
func (c *Conv2D) evalLinks() (bn *BatchNorm2D, relu *ReLU) {
	if c != nil && c.bn != nil && c.bn.conv == c {
		bn = c.bn
		if c.relu != nil && c.relu.conv == c {
			relu = c.relu
		}
	}
	return bn, relu
}

// NewConv2D creates a convolution with He-normal initialization.
func NewConv2D(rng *rand.Rand, name string, inC, outC, k, stride, pad int) *Conv2D {
	fanIn := inC * k * k
	std := math.Sqrt(2.0 / float64(fanIn))
	return &Conv2D{
		W:   NewParam(name+".W", tensor.Randn(rng, std, fanIn, outC)),
		B:   &Param{Name: name + ".b", Value: tensor.New(outC), Grad: tensor.New(outC), NoDecay: true},
		InC: inC, OutC: outC, KH: k, KW: k, Stride: stride, PadH: pad, PadW: pad,
	}
}

// Forward computes conv(x, W) + b with the fused kernel — the same one in
// training and inference, at every stride — and in eval mode the linked
// batch norm and rectifier too.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	c.saved = x
	oh := tensor.ConvDims(x.Dim(2), c.KH, c.Stride, c.PadH)
	ow := tensor.ConvDims(x.Dim(3), c.KW, c.Stride, c.PadW)
	out := c.ws.GetUninit(x.Dim(0), c.OutC, oh, ow)
	if bn, relu := c.evalLinks(); bn != nil && !train {
		return tensor.Conv2DBiasInto(c.ws, out, x, c.W.Value, c.B.Value, c.KH, c.KW, c.Stride, c.PadH, c.PadW, bn.evalChain(relu != nil))
	}
	return tensor.Conv2DBiasInto(c.ws, out, x, c.W.Value, c.B.Value, c.KH, c.KW, c.Stride, c.PadH, c.PadW)
}

// Backward accumulates the filter and bias gradients from the saved
// input and returns the input gradient.
func (c *Conv2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	c.backwardParams(dout)
	din := c.ws.GetUninit(c.saved.Shape()...)
	return tensor.Conv2DGradInputInto(din, dout, c.W.Value, c.KH, c.KW, c.Stride, c.PadH, c.PadW)
}

// backwardParams is Backward without the input gradient
// (Sequential.BackwardParams).
func (c *Conv2D) backwardParams(dout *tensor.Tensor) {
	tensor.Conv2DGradWeightsInto(c.W.Grad, c.B.Grad, c.saved, dout, c.KH, c.KW, c.Stride, c.PadH, c.PadW)
}

// Params returns W and b.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// MaxPool is a 2-D max-pooling layer over (N, C, H, W). An eval-mode
// Forward (train false) writes only the pooled values and keeps no argmax
// map, so Backward must follow a training Forward.
type MaxPool struct {
	K, Stride int

	base[maxPoolSaved]
}

// maxPoolSaved is what a training Forward of MaxPool leaves for Backward.
type maxPoolSaved struct {
	arg   []int // argmax positions, regrown only on batch-shape change
	shape []int // the input shape
}

// NewMaxPool creates a pooling layer with window k and stride.
func NewMaxPool(k, stride int) *MaxPool { return &MaxPool{K: k, Stride: stride} }

// Forward applies max pooling; in training mode it also records the
// argmax positions and the input shape for Backward.
func (m *MaxPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	oh := tensor.ConvDims(x.Dim(2), m.K, m.Stride, 0)
	ow := tensor.ConvDims(x.Dim(3), m.K, m.Stride, 0)
	out := m.ws.GetUninit(x.Dim(0), x.Dim(1), oh, ow) // the pool writes every element
	if !train {
		tensor.MaxPool2DInto(out, nil, x, m.K, m.Stride)
		return out
	}
	s := &m.saved
	s.shape = append(s.shape[:0], x.Shape()...)
	if cap(s.arg) < out.Size() {
		s.arg = make([]int, out.Size())
	}
	s.arg = s.arg[:out.Size()]
	tensor.MaxPool2DInto(out, s.arg, x, m.K, m.Stride)
	return out
}

// Backward routes gradients to the argmax positions.
func (m *MaxPool) Backward(dout *tensor.Tensor) *tensor.Tensor {
	return tensor.MaxPool2DBackwardInto(m.ws.GetUninit(m.saved.shape...), dout, m.saved.arg) // zeroes din itself
}

// Params returns nil.
func (m *MaxPool) Params() []*Param { return nil }

// GlobalAvgPool2D reduces (N,C,H,W) to (N,C).
type GlobalAvgPool2D struct {
	base[[2]int] // saved: the input's (H, W)
}

// Forward averages each feature map.
func (g *GlobalAvgPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	g.saved = [2]int{x.Dim(2), x.Dim(3)}
	return tensor.GlobalAvgPoolInto(g.ws.GetUninit(x.Dim(0), x.Dim(1)), x)
}

// Backward broadcasts the gradient uniformly over each map.
func (g *GlobalAvgPool2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	return tensor.GlobalAvgPoolBackwardInto(g.ws.GetUninit(dout.Dim(0), dout.Dim(1), g.saved[0], g.saved[1]), dout)
}

// Params returns nil.
func (g *GlobalAvgPool2D) Params() []*Param { return nil }

// BatchNorm2D normalizes each channel of (N,C,H,W) over the batch and
// spatial axes, with learnable scale/shift and running statistics for
// inference. An eval-mode Forward (train false) writes only its output and
// keeps no xhat or statistics, so Backward must follow a training Forward;
// linked to the Conv2D before it (see Conv2D), it returns its input, which
// the conv has already normalized. The arithmetic runs in tensor's
// batch-norm kernels.
type BatchNorm2D struct {
	Gamma, Beta *Param
	RunMean     *tensor.Tensor
	RunVar      *tensor.Tensor
	Momentum    float64
	Eps         float64
	C           int

	base[bnSaved]

	meanBuf, varBuf []float64 // per-channel scratch of one call (scratch)
	conv            *Conv2D   // the conv that applies this layer in eval (evalLinks)
}

// bnSaved is what a training Forward of BatchNorm2D leaves for Backward.
// The running statistics are not in it: they are parameters of the step,
// not per-micro-batch state.
type bnSaved struct {
	xhat   *tensor.Tensor
	invStd []float64
	shape  []int // the input shape
}

// NewBatchNorm2D creates a batch-norm layer for c channels.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	return &BatchNorm2D{
		Gamma:   &Param{Name: name + ".gamma", Value: tensor.Ones(c), Grad: tensor.New(c), NoDecay: true},
		Beta:    &Param{Name: name + ".beta", Value: tensor.New(c), Grad: tensor.New(c), NoDecay: true},
		RunMean: tensor.New(c), RunVar: tensor.Ones(c),
		Momentum: 0.9, Eps: 1e-5, C: c,
	}
}

// scratch returns the two per-channel scratch slices, c long: the batch
// statistics in a training Forward, 1/√(var+ε) in an eval one (evalChain),
// and the gradient sums in Backward.
func (b *BatchNorm2D) scratch(c int) (s1, s2 []float64) {
	if cap(b.meanBuf) < c {
		b.meanBuf = make([]float64, c)
		b.varBuf = make([]float64, c)
	}
	return b.meanBuf[:c], b.varBuf[:c]
}

// Forward normalizes per channel. In training mode it uses batch
// statistics, updates the running averages and keeps xhat for Backward;
// in eval mode it normalizes with the running statistics in one pass, or
// returns x when its linked conv has done so (see Conv2D). Both round
// g*((v-m)*inv) + bt the same way, so an eval output equals the training
// formula applied to the running statistics bit for bit.
func (b *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	c := x.Dim(1)
	gamma, beta := b.Gamma.Value.Data(), b.Beta.Value.Data()
	runMean, runVar := b.RunMean.Data(), b.RunVar.Data()
	if !train {
		if linked, _ := b.conv.evalLinks(); linked == b {
			return x
		}
		e := b.evalChain(false)
		out := b.ws.GetUninit(x.Shape()...) // the kernel writes every element
		return tensor.BatchNormNormalizeInto(out, nil, x, e.Mean, e.Inv, e.Gamma, e.Beta)
	}
	s := &b.saved
	s.shape = append(s.shape[:0], x.Shape()...)
	if cap(s.invStd) < c {
		s.invStd = make([]float64, c)
	}
	invStd := s.invStd[:c]
	s.invStd = invStd
	mean, variance := b.scratch(c)
	tensor.BatchNormStats(mean, variance, x)
	for ch, m := range mean {
		runMean[ch] = float64(b.Momentum*runMean[ch]) + float64((1-b.Momentum)*m)
		runVar[ch] = float64(b.Momentum*runVar[ch]) + float64((1-b.Momentum)*variance[ch])
		invStd[ch] = 1 / math.Sqrt(variance[ch]+b.Eps)
	}
	// xhat and out are written in full by the kernel.
	s.xhat = b.ws.GetUninit(x.Shape()...)
	out := b.ws.GetUninit(x.Shape()...)
	return tensor.BatchNormNormalizeInto(out, s.xhat, x, mean, invStd, gamma, beta)
}

// evalChain returns the eval normalisation over the running statistics,
// with 1/√(var+ε) in the layer's scratch; relu adds the rectifier.
func (b *BatchNorm2D) evalChain(relu bool) tensor.BNReLU {
	_, inv := b.scratch(b.RunVar.Size())
	for ch, v := range b.RunVar.Data() {
		inv[ch] = 1 / math.Sqrt(v+b.Eps)
	}
	return tensor.BNReLU{Mean: b.RunMean.Data(), Inv: inv, Gamma: b.Gamma.Value.Data(), Beta: b.Beta.Value.Data(), ReLU: relu}
}

// Backward implements the standard batch-norm gradient.
func (b *BatchNorm2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	s := &b.saved
	sumDy, sumDyXhat := b.scratch(s.shape[1])
	din := b.ws.GetUninit(s.shape...) // written in full by the kernel
	tensor.BatchNormBackwardInto(din, dout, s.xhat, b.Gamma.Value.Data(), s.invStd, sumDy, sumDyXhat)
	dGamma, dBeta := b.Gamma.Grad.Data(), b.Beta.Grad.Data()
	for ch := range sumDy {
		dBeta[ch] += sumDy[ch]
		dGamma[ch] += sumDyXhat[ch]
	}
	return din
}

// Params returns gamma and beta.
func (b *BatchNorm2D) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

// Residual is a ResNet basic block: out = ReLU(F(x) + shortcut(x)) where F
// is conv-bn-relu-conv-bn and shortcut is identity or a strided 1×1
// projection (He et al. [17], the network family of the RS case study).
type Residual struct {
	Main     *Sequential
	Shortcut *Sequential // nil for identity
	relu     ReLU        // the join's rectifier; Backward reads its saved output
	ws       *tensor.Workspace
}

// SetWorkspace routes the block's temporaries (and both sub-paths')
// through ws.
func (r *Residual) SetWorkspace(ws *tensor.Workspace) {
	r.ws = ws
	r.relu.SetWorkspace(ws)
	r.Main.SetWorkspace(ws)
	if r.Shortcut != nil {
		r.Shortcut.SetWorkspace(ws)
	}
}

// NewResidual builds a basic block with inC→outC channels and the given
// stride on the first conv; a projection shortcut is added when shape
// changes.
func NewResidual(rng *rand.Rand, name string, inC, outC, stride int) *Residual {
	main := NewSequential(
		NewConv2D(rng, name+".conv1", inC, outC, 3, stride, 1),
		NewBatchNorm2D(name+".bn1", outC),
		&ReLU{},
		NewConv2D(rng, name+".conv2", outC, outC, 3, 1, 1),
		NewBatchNorm2D(name+".bn2", outC),
	)
	var shortcut *Sequential
	if stride != 1 || inC != outC {
		shortcut = NewSequential(
			NewConv2D(rng, name+".proj", inC, outC, 1, stride, 0),
			NewBatchNorm2D(name+".bnp", outC),
		)
	}
	return &Residual{Main: main, Shortcut: shortcut}
}

// Forward computes ReLU(F(x) + shortcut(x)) in one pass (no sum tensor).
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f := r.Main.Forward(x, train)
	var s *tensor.Tensor
	if r.Shortcut != nil {
		s = r.Shortcut.Forward(x, train)
	} else {
		s = x
	}
	out := tensor.AddReLUInto(r.ws.GetUninit(f.Shape()...), f, s)
	if train {
		r.relu.saved = out
	}
	return out
}

// Backward splits the gradient across the main path and the shortcut.
func (r *Residual) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dsum := r.relu.Backward(dout)
	dmain := r.Main.Backward(dsum)
	var dshort *tensor.Tensor
	if r.Shortcut != nil {
		dshort = r.Shortcut.Backward(dsum)
	} else {
		dshort = dsum
	}
	return tensor.AddInto(r.ws.GetUninit(dmain.Shape()...), dmain, dshort)
}

// Params returns parameters of both paths.
func (r *Residual) Params() []*Param {
	out := r.Main.Params()
	if r.Shortcut != nil {
		out = append(out, r.Shortcut.Params()...)
	}
	return out
}
