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
type Conv2D struct {
	W, B      *Param // W: (C·KH·KW, OutC), B: (OutC)
	InC, OutC int
	KH, KW    int
	Stride    int
	// PadH and PadW pad the two spatial axes independently (Conv1D uses a
	// 1×k kernel padded only along time).
	PadH, PadW int
	x          *tensor.Tensor // cached input
	ws         *tensor.Workspace
	stash      []*tensor.Tensor // per-micro-batch input stash (stash.go)
}

// SetWorkspace routes the layer's output and input-gradient tensors
// through ws.
func (c *Conv2D) SetWorkspace(ws *tensor.Workspace) { c.ws = ws }

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
// training and inference, at every stride.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	c.x = x
	oh := tensor.ConvDims(x.Dim(2), c.KH, c.Stride, c.PadH)
	ow := tensor.ConvDims(x.Dim(3), c.KW, c.Stride, c.PadW)
	out := c.ws.GetUninit(x.Dim(0), c.OutC, oh, ow)
	return tensor.Conv2DBiasInto(c.ws, out, x, c.W.Value, c.B.Value, c.KH, c.KW, c.Stride, c.PadH, c.PadW)
}

// Backward accumulates the filter and bias gradients from the cached
// input and returns the input gradient.
func (c *Conv2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	tensor.Conv2DGradWeightsInto(c.W.Grad, c.B.Grad, c.x, dout, c.KH, c.KW, c.Stride, c.PadH, c.PadW)
	din := c.ws.GetUninit(c.x.Shape()...)
	return tensor.Conv2DGradInputInto(din, dout, c.W.Value, c.KH, c.KW, c.Stride, c.PadH, c.PadW)
}

// Params returns W and b.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// MaxPool is a 2-D max-pooling layer over (N, C, H, W). An eval-mode
// Forward (train false) writes only the pooled values and keeps no argmax
// map, so Backward must follow a training Forward.
type MaxPool struct {
	K, Stride int
	arg       []int // persistent argmax scratch, regrown only on batch-shape change
	inShape   []int
	ws        *tensor.Workspace
	stash     []maxPoolStash // per-micro-batch cache stash (stash.go)
}

// NewMaxPool creates a pooling layer with window k and stride.
func NewMaxPool(k, stride int) *MaxPool { return &MaxPool{K: k, Stride: stride} }

// SetWorkspace routes the layer's temporaries through ws.
func (m *MaxPool) SetWorkspace(ws *tensor.Workspace) { m.ws = ws }

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
	m.inShape = append(m.inShape[:0], x.Shape()...)
	if cap(m.arg) < out.Size() {
		m.arg = make([]int, out.Size())
	}
	m.arg = m.arg[:out.Size()]
	tensor.MaxPool2DInto(out, m.arg, x, m.K, m.Stride)
	return out
}

// Backward routes gradients to the argmax positions.
func (m *MaxPool) Backward(dout *tensor.Tensor) *tensor.Tensor {
	return tensor.MaxPool2DBackwardInto(m.ws.Get(m.inShape...), dout, m.arg)
}

// Params returns nil.
func (m *MaxPool) Params() []*Param { return nil }

// GlobalAvgPool2D reduces (N,C,H,W) to (N,C).
type GlobalAvgPool2D struct {
	h, w  int
	ws    *tensor.Workspace
	stash [][2]int // per-micro-batch (h, w) stash (stash.go)
}

// SetWorkspace routes the layer's temporaries through ws.
func (g *GlobalAvgPool2D) SetWorkspace(ws *tensor.Workspace) { g.ws = ws }

// Forward averages each feature map.
func (g *GlobalAvgPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	g.h, g.w = x.Dim(2), x.Dim(3)
	return tensor.GlobalAvgPoolInto(g.ws.Get(x.Dim(0), x.Dim(1)), x)
}

// Backward broadcasts the gradient uniformly over each map.
func (g *GlobalAvgPool2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	return tensor.GlobalAvgPoolBackwardInto(g.ws.Get(dout.Dim(0), dout.Dim(1), g.h, g.w), dout)
}

// Params returns nil.
func (g *GlobalAvgPool2D) Params() []*Param { return nil }

// BatchNorm2D normalizes each channel of (N,C,H,W) over the batch and
// spatial axes, with learnable scale/shift and running statistics for
// inference. An eval-mode Forward (train false) writes only its output and
// keeps no xhat or statistics, so Backward must follow a training Forward.
type BatchNorm2D struct {
	Gamma, Beta  *Param
	RunMean      *tensor.Tensor
	RunVar       *tensor.Tensor
	Momentum     float64
	Eps          float64
	C            int
	xhat         *tensor.Tensor
	invStd       []float64
	meanBuf      []float64 // persistent per-channel stat scratch
	varBuf       []float64
	inShape      []int
	countPerChan float64
	ws           *tensor.Workspace
	stash        []bnStash // per-micro-batch cache stash (stash.go)
}

// SetWorkspace routes the layer's temporaries through ws.
func (b *BatchNorm2D) SetWorkspace(ws *tensor.Workspace) { b.ws = ws }

// NewBatchNorm2D creates a batch-norm layer for c channels.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	return &BatchNorm2D{
		Gamma:   &Param{Name: name + ".gamma", Value: tensor.Ones(c), Grad: tensor.New(c), NoDecay: true},
		Beta:    &Param{Name: name + ".beta", Value: tensor.New(c), Grad: tensor.New(c), NoDecay: true},
		RunMean: tensor.New(c), RunVar: tensor.Ones(c),
		Momentum: 0.9, Eps: 1e-5, C: c,
	}
}

// Forward normalizes per channel. In training mode it uses batch
// statistics, updates the running averages and keeps xhat for Backward;
// in eval mode it normalizes with the running statistics in one pass.
// Both round g*((v-m)*inv) + bt the same way, so an eval output equals the
// training formula applied to the running statistics bit for bit.
func (b *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train {
		return b.forwardEval(x)
	}
	n, c, hw := x.Dim(0), x.Dim(1), x.Dim(2)*x.Dim(3)
	b.inShape = append(b.inShape[:0], x.Shape()...)
	cnt := float64(n * hw)
	b.countPerChan = cnt
	if cap(b.meanBuf) < c {
		b.meanBuf = make([]float64, c)
		b.varBuf = make([]float64, c)
	}
	if cap(b.invStd) < c {
		b.invStd = make([]float64, c)
	}
	mean, variance, invStd := b.meanBuf[:c], b.varBuf[:c], b.invStd[:c]
	b.invStd = invStd
	xd := x.Data()
	runMean, runVar := b.RunMean.Data(), b.RunVar.Data()
	for ch := 0; ch < c; ch++ {
		s := 0.0
		for bi := 0; bi < n; bi++ {
			for _, v := range xd[(bi*c+ch)*hw:][:hw] {
				s += v
			}
		}
		mean[ch] = s / cnt
	}
	for ch := 0; ch < c; ch++ {
		s, m := 0.0, mean[ch]
		for bi := 0; bi < n; bi++ {
			for _, v := range xd[(bi*c+ch)*hw:][:hw] {
				d := v - m
				s += d * d
			}
		}
		variance[ch] = s / cnt
		runMean[ch] = b.Momentum*runMean[ch] + (1-b.Momentum)*m
		runVar[ch] = b.Momentum*runVar[ch] + (1-b.Momentum)*variance[ch]
	}
	for ch := 0; ch < c; ch++ {
		invStd[ch] = 1 / math.Sqrt(variance[ch]+b.Eps)
	}
	// xhat and out are written in full below.
	b.xhat = b.ws.GetUninit(x.Shape()...)
	out := b.ws.GetUninit(x.Shape()...)
	xhd, od := b.xhat.Data(), out.Data()
	gamma, beta := b.Gamma.Value.Data(), b.Beta.Value.Data()
	for bi := 0; bi < n; bi++ {
		for ch := 0; ch < c; ch++ {
			base := (bi*c + ch) * hw
			xh, o := xhd[base:][:hw], od[base:][:hw]
			m, inv, g, bt := mean[ch], invStd[ch], gamma[ch], beta[ch]
			for i, v := range xd[base:][:hw] {
				t := (v - m) * inv
				xh[i] = t
				o[i] = g*t + bt
			}
		}
	}
	return out
}

// forwardEval normalizes x with the running statistics, writing only the
// output.
func (b *BatchNorm2D) forwardEval(x *tensor.Tensor) *tensor.Tensor {
	n, c, hw := x.Dim(0), x.Dim(1), x.Dim(2)*x.Dim(3)
	out := b.ws.GetUninit(x.Shape()...) // written in full below
	xd, od := x.Data(), out.Data()
	runMean, runVar := b.RunMean.Data(), b.RunVar.Data()
	gamma, beta := b.Gamma.Value.Data(), b.Beta.Value.Data()
	for ch := 0; ch < c; ch++ {
		m, inv, g, bt := runMean[ch], 1/math.Sqrt(runVar[ch]+b.Eps), gamma[ch], beta[ch]
		for bi := 0; bi < n; bi++ {
			base := (bi*c + ch) * hw
			o := od[base:][:hw]
			for i, v := range xd[base:][:hw] {
				o[i] = g*((v-m)*inv) + bt
			}
		}
	}
	return out
}

// Backward implements the standard batch-norm gradient.
func (b *BatchNorm2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	n, c, hw := b.inShape[0], b.inShape[1], b.inShape[2]*b.inShape[3]
	din := b.ws.GetUninit(b.inShape...) // written in full below
	dd, xhd, dind := dout.Data(), b.xhat.Data(), din.Data()
	gamma, dGamma, dBeta := b.Gamma.Value.Data(), b.Gamma.Grad.Data(), b.Beta.Grad.Data()
	cnt := b.countPerChan
	for ch := 0; ch < c; ch++ {
		// Accumulate per-channel sums.
		var sumDy, sumDyXhat float64
		for bi := 0; bi < n; bi++ {
			base := (bi*c + ch) * hw
			xh := xhd[base:][:hw]
			for i, dy := range dd[base:][:hw] {
				sumDy += dy
				sumDyXhat += dy * xh[i]
			}
		}
		dBeta[ch] += sumDy
		dGamma[ch] += sumDyXhat
		scale := gamma[ch] * b.invStd[ch] / cnt
		for bi := 0; bi < n; bi++ {
			base := (bi*c + ch) * hw
			xh, di := xhd[base:][:hw], dind[base:][:hw]
			for i, dy := range dd[base:][:hw] {
				di[i] = scale * (cnt*dy - sumDy - xh[i]*sumDyXhat)
			}
		}
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
	relu     ReLU
	x        *tensor.Tensor
	sum      *tensor.Tensor
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

// Forward computes ReLU(F(x) + shortcut(x)).
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.x = x
	f := r.Main.Forward(x, train)
	var s *tensor.Tensor
	if r.Shortcut != nil {
		s = r.Shortcut.Forward(x, train)
	} else {
		s = x
	}
	r.sum = tensor.AddInto(r.ws.Get(f.Shape()...), f, s)
	return r.relu.Forward(r.sum, train)
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
	return tensor.AddInto(r.ws.Get(dmain.Shape()...), dmain, dshort)
}

// Params returns parameters of both paths.
func (r *Residual) Params() []*Param {
	out := r.Main.Params()
	if r.Shortcut != nil {
		out = append(out, r.Shortcut.Params()...)
	}
	return out
}
