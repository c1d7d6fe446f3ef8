package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// The code these layers ran before the convolution engine and the
// single-sweep BatchNorm2D/ReLU rewrites, kept as references: the new
// layers must reproduce them bit for bit.

// refConvLowered is the im2col Conv2D: Forward lowers the input to the
// column matrix, multiplies and scatters to NCHW; Backward gathers dout,
// multiplies twice and scatters through col2im.
type refConvLowered struct {
	W, B                     *Param
	inC, outC, kh, kw        int
	stride, padH, padW       int
	cols                     *tensor.Tensor
	inShape                  []int
	outH, outW, batchSize, k int
}

// newRefConvLowered copies c's geometry and parameter values (gradients
// start at zero, as c's do).
func newRefConvLowered(c *Conv2D) *refConvLowered {
	return &refConvLowered{
		W:   NewParam(c.W.Name, c.W.Value.Clone()),
		B:   &Param{Name: c.B.Name, Value: c.B.Value.Clone(), Grad: tensor.New(c.OutC)},
		inC: c.InC, outC: c.OutC, kh: c.KH, kw: c.KW,
		stride: c.Stride, padH: c.PadH, padW: c.PadW, k: c.InC * c.KH * c.KW,
	}
}

func (c *refConvLowered) Forward(x *tensor.Tensor) *tensor.Tensor {
	c.inShape = append(c.inShape[:0], x.Shape()...)
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	c.batchSize = n
	c.outH = tensor.ConvDims(h, c.kh, c.stride, c.padH)
	c.outW = tensor.ConvDims(w, c.kw, c.stride, c.padW)
	rows := n * c.outH * c.outW
	c.cols = tensor.Im2ColInto(tensor.New(rows, c.k), x, c.kh, c.kw, c.stride, c.padH, c.padW)
	flat := tensor.New(rows, c.outC)
	tensor.MatMulBiasInto(flat, c.cols, c.W.Value, c.B.Value)
	out := tensor.New(n, c.outC, c.outH, c.outW)
	c.eachNCHW(func(nchw, nhwc int) { out.Data()[nchw] = flat.Data()[nhwc] })
	return out
}

func (c *refConvLowered) Backward(dout *tensor.Tensor) *tensor.Tensor {
	rows := c.batchSize * c.outH * c.outW
	dflat := tensor.New(rows, c.outC)
	c.eachNCHW(func(nchw, nhwc int) { dflat.Data()[nhwc] = dout.Data()[nchw] })
	tensor.TMatMulAccInto(c.W.Grad, c.cols, dflat)
	dB := tensor.New(c.outC)
	tensor.SumAxis0Into(dB, dflat)
	c.B.Grad.AddInPlace(dB)
	dcols := tensor.New(rows, c.k)
	tensor.MatMulTInto(dcols, dflat, c.W.Value)
	din := tensor.New(c.inShape...)
	col2im(din, dcols, c.kh, c.kw, c.stride, c.padH, c.padW)
	return din
}

// col2im zeroes din (N, C, H, W) and scatters dcols into it by plain
// adds in the lowering's order: the adjoint of tensor.Im2ColInto.
func col2im(din, dcols *tensor.Tensor, kh, kw, stride, padH, padW int) {
	n, c, h, w := din.Dim(0), din.Dim(1), din.Dim(2), din.Dim(3)
	oh, ow := tensor.ConvDims(h, kh, stride, padH), tensor.ConvDims(w, kw, stride, padW)
	d, src, i := din.Data(), dcols.Data(), 0
	clear(d)
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for ch := 0; ch < c; ch++ {
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							if iy, ix := oy*stride-padH+ky, ox*stride-padW+kx; iy >= 0 && iy < h && ix >= 0 && ix < w {
								d[((b*c+ch)*h+iy)*w+ix] += src[i]
							}
							i++
						}
					}
				}
			}
		}
	}
}

// eachNCHW visits every output element with its offset in the (N, OutC,
// OH, OW) image layout and in the (N·OH·OW, OutC) matmul layout.
func (c *refConvLowered) eachNCHW(fn func(nchw, nhwc int)) {
	for b := 0; b < c.batchSize; b++ {
		for ch := 0; ch < c.outC; ch++ {
			for y := 0; y < c.outH; y++ {
				for x := 0; x < c.outW; x++ {
					fn(((b*c.outC+ch)*c.outH+y)*c.outW+x, ((b*c.outH+y)*c.outW+x)*c.outC+ch)
				}
			}
		}
	}
}

// TestConv2DMatchesLowering: Forward in training and inference mode and
// two accumulating Backward passes equal the im2col layer bit for bit —
// stride 1 and 2, a point kernel, asymmetric padding, odd planes — with
// and without a workspace.
func TestConv2DMatchesLowering(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, tc := range []struct{ n, inC, outC, h, w, k, stride, padH, padW int }{
		{3, 3, 5, 9, 7, 3, 1, 1, 1},
		{2, 4, 8, 8, 8, 3, 2, 1, 1},
		{2, 4, 8, 8, 8, 1, 2, 0, 0},
		{16, 8, 8, 16, 16, 3, 1, 1, 1},
		{3, 2, 3, 13, 11, 5, 3, 2, 0},
		{1, 1, 16, 12, 12, 3, 1, 0, 2},
	} {
		for _, ws := range []*tensor.Workspace{nil, tensor.NewWorkspace()} {
			conv := NewConv2D(rng, "c", tc.inC, tc.outC, tc.k, tc.stride, tc.padH)
			conv.PadW = tc.padW
			conv.B.Value = tensor.Randn(rng, 1, tc.outC)
			conv.SetWorkspace(ws)
			ref := newRefConvLowered(conv)
			x := tensor.Randn(rng, 1, tc.n, tc.inC, tc.h, tc.w)
			name := fmt.Sprintf("%+v", tc)
			want := ref.Forward(x)
			requireSameBits(t, name+" inference forward", conv.Forward(x, false), want)
			for pass := 0; pass < 2; pass++ {
				requireSameBits(t, name+" training forward", conv.Forward(x, true), want)
				dout := tensor.Randn(rng, 1, want.Shape()...)
				requireSameBits(t, name+" dx", conv.Backward(dout), ref.Backward(dout))
				requireSameBits(t, name+" dW", conv.W.Grad, ref.W.Grad)
				requireSameBits(t, name+" dB", conv.B.Grad, ref.B.Grad)
			}
		}
	}
}

// TestConv1DMatchesLowering runs Conv1D against the im2col layer behind
// the same (N,T,D) ↔ (N,D,1,T) layout conversions.
func TestConv1DMatchesLowering(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, tc := range []struct{ n, steps, d, f, k, stride, pad int }{
		{4, 32, 6, 32, 5, 1, 2},
		{3, 13, 3, 5, 3, 2, 1},
	} {
		layer := NewConv1D(rng, "c", tc.d, tc.f, tc.k, tc.stride, tc.pad)
		ref := newRefConvLowered(layer.conv)
		x := tensor.Randn(rng, 1, tc.n, tc.steps, tc.d)
		img := toNCHW1(tensor.New(tc.n, tc.d, 1, tc.steps), x)
		wantImg := ref.Forward(img)
		want := fromNCHW1(tensor.New(tc.n, wantImg.Dim(3), tc.f), wantImg)
		name := fmt.Sprintf("%+v", tc)
		for _, train := range []bool{false, true} {
			requireSameBits(t, fmt.Sprintf("%s forward (train %v)", name, train), layer.Forward(x, train), want)
		}
		dout := tensor.Randn(rng, 1, want.Shape()...)
		dimg := toNCHW1(tensor.New(tc.n, tc.f, 1, want.Dim(1)), dout)
		wantImgX := ref.Backward(dimg)
		wantX := fromNCHW1(tensor.New(tc.n, tc.steps, tc.d), wantImgX)
		requireSameBits(t, name+" dx", layer.Backward(dout), wantX)
		requireSameBits(t, name+" dW", layer.conv.W.Grad, ref.W.Grad)
		requireSameBits(t, name+" dB", layer.conv.B.Grad, ref.B.Grad)
	}
}

// TestConvStashOneFOneB holds three forwards outstanding before their
// backwards run (the 1F1B steady state of a pipeline stage): with the
// input pointer stashed per micro-batch, parameter and input gradients
// are those of the sequential forward/backward order.
func TestConvStashOneFOneB(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	build := func() *Conv2D { return NewConv2D(rand.New(rand.NewSource(34)), "c", 3, 6, 3, 2, 1) }
	var xs, douts []*tensor.Tensor
	for m := 0; m < 3; m++ {
		xs = append(xs, tensor.Randn(rng, 1, 2, 3, 9, 9))
		douts = append(douts, tensor.Randn(rng, 1, 2, 6, 5, 5))
	}
	seq := build()
	var wantX []*tensor.Tensor
	for m := range xs {
		seq.Forward(xs[m], true)
		wantX = append(wantX, seq.Backward(douts[m]))
	}

	got := build()
	ws := tensor.NewWorkspace()
	got.SetWorkspace(ws)
	got.EnsureStash(3)
	for m := range xs {
		got.Forward(xs[m], true)
		got.Stash(m)
	}
	for m := range xs {
		got.Stash(m)
		requireSameBits(t, fmt.Sprintf("micro-batch %d stashed dx vs sequential order", m), got.Backward(douts[m]), wantX[m])
	}
	requireSameBits(t, "stashed dW vs sequential order", got.W.Grad, seq.W.Grad)
	requireSameBits(t, "stashed dB vs sequential order", got.B.Grad, seq.B.Grad)
}

// TestConvForwardKeepsNoColumns: after a training forward the workspace
// holds the output and nothing else — no rows×(C·KH·KW) column matrix is
// parked for Backward, which reads the layer's input instead.
func TestConvForwardKeepsNoColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	ws := tensor.NewWorkspace()
	conv := NewConv2D(rng, "c", 8, 8, 3, 1, 1)
	conv.SetWorkspace(ws)
	x := tensor.Randn(rng, 1, 4, 8, 16, 16)
	out := conv.Forward(x, true)
	if ws.InUse() != 1 {
		t.Fatalf("workspace holds %d tensors after Forward(train), want 1 (the output)", ws.InUse())
	}
	ws.Put(out) // panics unless out is that one tensor
	if conv.saved != x {
		t.Fatal("Conv2D must keep a pointer to its input, not a copy")
	}
}

// refBNForward and refBNBackward are BatchNorm2D's former loops (Data()
// accessors inside the innermost loops, zero-filled temporaries, one
// channel at a time). The float64(…) conversions keep every product
// rounded before its add, as the layer's contract does on every
// architecture (arm64 would otherwise fuse them).
func refBNForward(b *BatchNorm2D, x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	b.saved.shape = append(b.saved.shape[:0], x.Shape()...)
	cnt := float64(n * h * w)
	mean, variance := make([]float64, c), make([]float64, c)
	if train {
		for ch := 0; ch < c; ch++ {
			s := 0.0
			for bi := 0; bi < n; bi++ {
				base := ((bi*c + ch) * h) * w
				for i := 0; i < h*w; i++ {
					s += x.Data()[base+i]
				}
			}
			mean[ch] = s / cnt
		}
		for ch := 0; ch < c; ch++ {
			s := 0.0
			for bi := 0; bi < n; bi++ {
				base := ((bi*c + ch) * h) * w
				for i := 0; i < h*w; i++ {
					d := x.Data()[base+i] - mean[ch]
					s += float64(d * d)
				}
			}
			variance[ch] = s / cnt
			b.RunMean.Data()[ch] = float64(bnMomentum*b.RunMean.Data()[ch]) + float64((1-bnMomentum)*mean[ch])
			b.RunVar.Data()[ch] = float64(bnMomentum*b.RunVar.Data()[ch]) + float64((1-bnMomentum)*variance[ch])
		}
	} else {
		copy(mean, b.RunMean.Data())
		copy(variance, b.RunVar.Data())
	}
	b.saved.invStd = make([]float64, c)
	for ch := 0; ch < c; ch++ {
		b.saved.invStd[ch] = 1 / math.Sqrt(variance[ch]+bnEps)
	}
	b.saved.xhat = tensor.New(x.Shape()...)
	out := tensor.New(x.Shape()...)
	for bi := 0; bi < n; bi++ {
		for ch := 0; ch < c; ch++ {
			base := ((bi*c + ch) * h) * w
			g := b.Gamma.Value.Data()[ch]
			bt := b.Beta.Value.Data()[ch]
			for i := 0; i < h*w; i++ {
				xh := (x.Data()[base+i] - mean[ch]) * b.saved.invStd[ch]
				b.saved.xhat.Data()[base+i] = xh
				out.Data()[base+i] = float64(g*xh) + bt
			}
		}
	}
	return out
}

func refBNBackward(b *BatchNorm2D, dout *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := b.saved.shape[0], b.saved.shape[1], b.saved.shape[2], b.saved.shape[3]
	din := tensor.New(b.saved.shape...)
	cnt := float64(n * h * w)
	for ch := 0; ch < c; ch++ {
		var sumDy, sumDyXhat float64
		for bi := 0; bi < n; bi++ {
			base := ((bi*c + ch) * h) * w
			for i := 0; i < h*w; i++ {
				dy := dout.Data()[base+i]
				sumDy += dy
				sumDyXhat += float64(dy * b.saved.xhat.Data()[base+i])
			}
		}
		b.Beta.Grad.Data()[ch] += sumDy
		b.Gamma.Grad.Data()[ch] += sumDyXhat
		g := b.Gamma.Value.Data()[ch]
		inv := b.saved.invStd[ch]
		for bi := 0; bi < n; bi++ {
			base := ((bi*c + ch) * h) * w
			for i := 0; i < h*w; i++ {
				dy := dout.Data()[base+i]
				xh := b.saved.xhat.Data()[base+i]
				din.Data()[base+i] = g * inv / cnt * (float64(cnt*dy) - sumDy - float64(xh*sumDyXhat))
			}
		}
	}
	return din
}

// TestBatchNorm2DMatchesFormerLoops: output, xhat, running statistics,
// dGamma, dBeta (on top of a non-zero prior) and din equal the former
// loops bit for bit over two training steps and an inference forward,
// through a workspace whose recycled buffers are dirty. The channel
// counts cover a channel tail after one lane group (5), whole groups (8,
// 16), and the 7×6 planes a pixel tail.
func TestBatchNorm2DMatchesFormerLoops(t *testing.T) {
	for _, c := range []int{5, 8, 16} {
		t.Run(fmt.Sprintf("c=%d", c), func(t *testing.T) {
			rng := rand.New(rand.NewSource(36))
			build := func() *BatchNorm2D {
				b := NewBatchNorm2D("bn", c)
				r := rand.New(rand.NewSource(37))
				b.Gamma.Value, b.Beta.Value = tensor.Randn(r, 1, c), tensor.Randn(r, 1, c)
				b.Gamma.Grad, b.Beta.Grad = tensor.Randn(r, 1, c), tensor.Randn(r, 1, c)
				return b
			}
			got, ref := build(), build()
			ws := tensor.NewWorkspace()
			got.SetWorkspace(ws)
			for step := 0; step < 2; step++ {
				for i := 0; i < 3; i++ {
					ws.GetUninit(3, c, 7, 6).Fill(math.NaN())
				}
				ws.ReleaseAll()
				x := tensor.Randn(rng, 2, 3, c, 7, 6)
				dout := tensor.Randn(rng, 1, 3, c, 7, 6)
				name := fmt.Sprintf("step %d ", step)
				requireSameBits(t, name+"training output", got.Forward(x, true), refBNForward(ref, x, true))
				requireSameBits(t, name+"xhat", got.saved.xhat, ref.saved.xhat)
				requireSameBits(t, name+"running mean", got.RunMean, ref.RunMean)
				requireSameBits(t, name+"running variance", got.RunVar, ref.RunVar)
				requireSameBits(t, name+"din", got.Backward(dout), refBNBackward(ref, dout))
				requireSameBits(t, name+"dGamma", got.Gamma.Grad, ref.Gamma.Grad)
				requireSameBits(t, name+"dBeta", got.Beta.Grad, ref.Beta.Grad)
			}
			x := tensor.Randn(rng, 1, 2, c, 4, 4)
			requireSameBits(t, "inference output", got.Forward(x, false), refBNForward(ref, x, false))
			requireSameBits(t, "running mean after inference", got.RunMean, ref.RunMean)
			requireSameBits(t, "running variance after inference", got.RunVar, ref.RunVar)
		})
	}
}

// TestReLUMatchesFormerLoops pins the output-gated ReLU against the
// former copy-then-fix-up loops and their input mask on the values where
// a rectifier can go wrong: -0 and +0 (both give a literal +0, gate
// closed), NaN (passes through, gate open) and the infinities. Backward
// reads its gate from the output, so the din check pins every gated slot
// against the input mask.
func TestReLUMatchesFormerLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	special := []float64{math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1), -1e-310, 1e-310}
	x := tensor.Randn(rng, 1, 4, 33)
	dout := tensor.Randn(rng, 1, 4, 33)
	copy(x.Data(), special)
	copy(dout.Data()[3:], special) // so masked and unmasked slots both meet the specials

	wantOut, wantMask := x.Clone(), make([]bool, x.Size())
	for i, v := range wantOut.Data() {
		if v <= 0 {
			wantOut.Data()[i] = 0
			wantMask[i] = false
		} else {
			wantMask[i] = true
		}
	}
	wantDin := dout.Clone()
	for i := range wantDin.Data() {
		if !wantMask[i] {
			wantDin.Data()[i] = 0
		}
	}

	ws := tensor.NewWorkspace()
	ws.GetUninit(4, 33).Fill(math.NaN())
	ws.GetUninit(4, 33).Fill(math.NaN())
	ws.ReleaseAll()
	r := &ReLU{}
	r.SetWorkspace(ws)
	requireSameBits(t, "ReLU output", r.Forward(x, true), wantOut)
	for i, o := range r.saved.Data() {
		if gate := !(o <= 0); gate != wantMask[i] {
			t.Fatalf("ReLU output gate[%d] = %v for input %v, want the input mask %v", i, gate, x.Data()[i], wantMask[i])
		}
	}
	requireSameBits(t, "ReLU din", r.Backward(dout), wantDin)
}
