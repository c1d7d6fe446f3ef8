package nn

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// GRU is a gated recurrent unit layer over sequences shaped (N, T, D),
// producing the full hidden-state sequence (N, T, H). It implements the
// architecture of the paper's ARDS case study (§IV-B): two stacked GRU
// layers of 32 units feeding a Dense(1) head.
//
// Gate equations (update z, reset r, candidate h̃):
//
//	z_t = σ(x_t·Wxz + h_{t-1}·Whz + bz)
//	r_t = σ(x_t·Wxr + h_{t-1}·Whr + br)
//	h̃_t = tanh(x_t·Wxh + (r_t ⊙ h_{t-1})·Whh + bh)
//	h_t = (1-z_t) ⊙ h̃_t + z_t ⊙ h_{t-1}
//
// Execution (DESIGN.md "Recurrent layers"): the layer works on time-major
// copies — row t·N+n is sample n at step t — so one step of any batch row
// range is a contiguous block. The input projections X·[Wxz|Wxr] and
// X·Wxh are two (T·N)×D GEMMs before the time loop; the loop keeps only
// h·[Whz|Whr] and (r⊙h)·Whh, accumulated on top of the hoisted rows with
// the bias and gate activation in the epilogue. Backward mirrors it: the
// loop carries only the dh recurrence, and the nine parameter gradients
// and dx are a handful of K = T·N GEMMs and two column sums after it.
// Batch rows never interact inside the recurrence, so both loops split N
// into contiguous row blocks under one parallel-for and each block runs
// all T steps with serial kernels and no per-step synchronisation; the
// parameter gradients are four independent serial tasks under a second
// one. Nothing is allocated, and no job is dispatched, per timestep.
//
// Floating-point contract: every output element, every dx element and
// the dh chain are the same FMA chains, in the same order, as one fused
// matmul per gate and step (hoisted input part first, then the recurrent
// part, bias with a plain + after, activation last; dx accumulates h̃,
// then z, then r; dh accumulates z, then r) — so they do not depend on
// the block split or the worker count. Each weight gradient is one chain
// over (t, n) ascending seeded from the prior gradient; each bias
// gradient is the column sum over (t, n) ascending, added to the prior
// gradient. gru_test.go pins all of it bitwise against a per-step
// reference.
type GRU struct {
	D, H int
	Wxz, Whz, Bz,
	Wxr, Whr, Br,
	Wxh, Whh, Bh *Param

	base[gruSaved]

	// pass is what the parallel parts of the running pass share; it is
	// cleared when they return.
	pass gruPass
}

// gruSaved is the time-major state Forward leaves for Backward, which
// consumes it in place and puts every buffer back to the workspace, so a
// stacked GRU's lower layer reuses the upper layer's storage.
type gruSaved struct {
	xT   *tensor.Tensor // (T·N, D) input; Backward reuses it for time-major dx
	zr   *tensor.Tensor // (T·N, 2H) gates z|r; overwritten with daz|dar
	hh   *tensor.Tensor // (T·N, H) candidates h̃; overwritten with r⊙h_{t-1}
	hp   *tensor.Tensor // (T·N, H) block t holds h_{t-1} (block 0 is h_0 = 0)
	n, t int
}

// NewGRU creates a GRU layer with Glorot-uniform input weights and
// orthogonal-ish (scaled normal) recurrent weights.
func NewGRU(rng *rand.Rand, name string, d, h int) *GRU {
	bx := math.Sqrt(6.0 / float64(d+h))
	bh := math.Sqrt(6.0 / float64(h+h))
	mk := func(suffix string, rows, cols int, bound float64) *Param {
		return NewParam(name+"."+suffix, tensor.RandUniform(rng, -bound, bound, rows, cols))
	}
	bias := func(suffix string) *Param {
		return &Param{Name: name + "." + suffix, Value: tensor.New(h), Grad: tensor.New(h), NoDecay: true}
	}
	return &GRU{
		D: d, H: h,
		Wxz: mk("Wxz", d, h, bx), Whz: mk("Whz", h, h, bh), Bz: bias("bz"),
		Wxr: mk("Wxr", d, h, bx), Whr: mk("Whr", h, h, bh), Br: bias("br"),
		Wxh: mk("Wxh", d, h, bx), Whh: mk("Whh", h, h, bh), Bh: bias("bh"),
	}
}

// gruPass is what the parallel parts of one pass share: flat views of the
// time-major buffers, the fused recurrent weights, and scratch.
type gruPass struct {
	blocks     int       // row blocks the batch is split into
	zr, hh, hp []float64 // the saved buffers (see gruSaved)
	whzr, whh  []float64 // [Whz|Whr] (H, 2H) and Whh (H, H)

	// Forward only.
	bzr, bh []float64 // [bz|br] and bh
	hLast   []float64 // (N, H) slot for h_T, which no later step reads
	out     []float64 // (N, T, H) layer output

	// Backward only.
	xT          []float64 // (T·N, D) time-major input
	dah         []float64 // (T·N, H) time-major dout, overwritten with dah
	dh          []float64 // (N, H) dL/dh carried down the recurrence
	drh         []float64 // (N, H) scratch for dah·Whhᵀ
	gxzr, ghzr  []float64 // [Wxz|Wxr] and [Whz|Whr] gradients, joined
	sumH, sumZR []float64 // column sums of dah and of daz|dar
}

// rowBlocks is how many contiguous row blocks the batch splits into:
// min(Workers, N/32), at least one.
func (g *GRU) rowBlocks() int { return max(1, min(tensor.Workers(), g.saved.n/32)) }

// gruRun is a layer and the per-piece body one parallel pass runs.
type gruRun struct {
	g    *GRU
	body func(g *GRU, i int)
}

var gruJobs tensor.Jobs[gruRun]

func runGRUPieces(r gruRun, lo, hi int) {
	for i := lo; i < hi; i++ {
		r.body(r.g, i)
	}
}

// run executes body(g, i) for each of n pieces in parallel, pass p installed.
func (g *GRU) run(p gruPass, n int, body func(g *GRU, i int)) {
	g.pass = p
	gruJobs.For(n, 6*g.saved.t*g.saved.n*g.H*(g.D+g.H)/n, gruRun{g, body}, runGRUPieces)
	g.pass = gruPass{}
}

// Forward runs the recurrence over all T steps and returns (N, T, H).
func (g *GRU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.NDim() != 3 || x.Dim(2) != g.D {
		panic("nn: GRU expects input (N, T, D)")
	}
	n, t, d, h := x.Dim(0), x.Dim(1), g.D, g.H
	s, ws := &g.saved, g.ws
	s.n, s.t = n, t

	// Every buffer below is written in full before it is read, so none
	// needs the pool's zero-fill (h_0 = 0 is the one exception).
	s.xT = ws.GetUninit(t*n, d)
	swapLeadingAxes(s.xT.Data(), x.Data(), n, t, d)

	// Hoisted input projections.
	wxzr := concatCols(ws, g.Wxz.Value, g.Wxr.Value, h)
	s.zr = ws.GetUninit(t*n, 2*h)
	tensor.MatMulInto(s.zr, s.xT, wxzr)
	ws.Put(wxzr)
	s.hh = ws.GetUninit(t*n, h)
	tensor.MatMulInto(s.hh, s.xT, g.Wxh.Value)

	s.hp = ws.GetUninit(t*n, h)
	clear(s.hp.Data()[:n*h])
	whzr := concatCols(ws, g.Whz.Value, g.Whr.Value, h)
	bzr := concatCols(ws, g.Bz.Value, g.Br.Value, h)
	hLast := ws.GetUninit(n, h)
	out := ws.GetUninit(n, t, h)
	blocks := g.rowBlocks()
	g.run(gruPass{
		blocks: blocks,
		zr:     s.zr.Data(), hh: s.hh.Data(), hp: s.hp.Data(),
		whzr: whzr.Data(), whh: g.Whh.Value.Data(),
		bzr: bzr.Data(), bh: g.Bh.Value.Data(),
		hLast: hLast.Data(), out: out.Data(),
	}, blocks, (*GRU).forwardBlock)
	ws.Put(whzr)
	ws.Put(bzr)
	ws.Put(hLast)
	if !train {
		// No Backward follows an eval pass to return the saved buffers.
		for _, buf := range []*tensor.Tensor{s.xT, s.zr, s.hh, s.hp} {
			ws.Put(buf)
		}
		s.xT, s.zr, s.hh, s.hp = nil, nil, nil, nil
	}
	return out
}

// forwardBlock runs all T steps for row block b.
func (g *GRU) forwardBlock(b int) {
	p, n, t, h := &g.pass, g.saved.n, g.saved.t, g.H
	lo, hi := b*n/p.blocks, (b+1)*n/p.blocks
	nb := hi - lo
	for s := 0; s < t; s++ {
		r0, r1 := s*n+lo, s*n+hi
		zr := p.zr[r0*2*h : r1*2*h]
		hh := p.hh[r0*h : r1*h]
		hPrev := p.hp[r0*h : r1*h]
		hNext := p.hLast[lo*h : hi*h]
		if s+1 < t {
			hNext = p.hp[(r0+n)*h : (r1+n)*h]
		}

		tensor.MatMulAccBiasActSerial(zr, hPrev, p.whzr, p.bzr, nb, h, 2*h, tensor.EpSigmoid)
		// r⊙h_{t-1} borrows the h_t slot until the state update fills it.
		for i := 0; i < nb; i++ {
			r := zr[i*2*h+h : (i+1)*2*h]
			hpr := hPrev[i*h : (i+1)*h]
			rh := hNext[i*h : (i+1)*h]
			for j, rv := range r {
				rh[j] = rv * hpr[j]
			}
		}
		tensor.MatMulAccBiasActSerial(hh, hNext, p.whh, p.bh, nb, h, h, tensor.EpTanh)
		for i := 0; i < nb; i++ {
			z := zr[i*2*h : i*2*h+h]
			hhr := hh[i*h : (i+1)*h]
			hpr := hPrev[i*h : (i+1)*h]
			hn := hNext[i*h : (i+1)*h]
			o := p.out[((lo+i)*t+s)*h : ((lo+i)*t+s+1)*h]
			for j, zv := range z {
				v := float64((1-zv)*hhr[j]) + float64(zv*hpr[j])
				hn[j] = v
				o[j] = v
			}
		}
	}
}

// Backward backpropagates through time given dout of shape (N, T, H) and
// returns dx of shape (N, T, D). It consumes what the preceding Forward
// saved: one Backward per training Forward.
func (g *GRU) Backward(dout *tensor.Tensor) *tensor.Tensor {
	s, ws := &g.saved, g.ws
	if s.xT == nil {
		panic("nn: GRU.Backward without a preceding Forward")
	}
	n, t, d, h := s.n, s.t, g.D, g.H

	dah := ws.GetUninit(t*n, h)
	swapLeadingAxes(dah.Data(), dout.Data(), n, t, h)
	whzr := concatCols(ws, g.Whz.Value, g.Whr.Value, h)
	dh := ws.Get(n, h) // no carry into step T-1
	drh := ws.GetUninit(n, h)
	// The z and r halves of a weight gradient are joined so that each is
	// one GEMM against daz|dar whose chains start from the prior gradient.
	gxzr := concatCols(ws, g.Wxz.Grad, g.Wxr.Grad, h)
	ghzr := concatCols(ws, g.Whz.Grad, g.Whr.Grad, h)
	sumH, sumZR := ws.GetUninit(h), ws.GetUninit(2*h)
	blocks := g.rowBlocks()
	pass := gruPass{
		blocks: blocks,
		zr:     s.zr.Data(), hh: s.hh.Data(), hp: s.hp.Data(),
		whzr: whzr.Data(), whh: g.Whh.Value.Data(),
		xT: s.xT.Data(), dah: dah.Data(), dh: dh.Data(), drh: drh.Data(),
		gxzr: gxzr.Data(), ghzr: ghzr.Data(), sumH: sumH.Data(), sumZR: sumZR.Data(),
	}
	g.run(pass, blocks, (*GRU).backwardBlock)
	// The saved buffers now hold daz|dar (zr), r⊙h_{t-1} (hh) and dah: every
	// parameter gradient is one GEMM, or one column sum, over all T·N rows.
	g.run(pass, gruGradTasks, (*GRU).gradTask)
	splitCols(gxzr.Data(), g.Wxz.Grad.Data(), g.Wxr.Grad.Data(), h)
	splitCols(ghzr.Data(), g.Whz.Grad.Data(), g.Whr.Grad.Data(), h)
	tensor.VecAddInto(g.Bh.Grad.Data(), g.Bh.Grad.Data(), sumH.Data())
	tensor.VecAddInto(g.Bz.Grad.Data(), g.Bz.Grad.Data(), sumZR.Data()[:h])
	tensor.VecAddInto(g.Br.Grad.Data(), g.Br.Grad.Data(), sumZR.Data()[h:])

	// dx, time-major, into the now dead input copy: h̃ columns first, then
	// z, then r.
	dxT := s.xT
	tensor.MatMulTInto(dxT, dah, g.Wxh.Value)
	wxzr := concatCols(ws, g.Wxz.Value, g.Wxr.Value, h)
	tensor.MatMulTAccInto(dxT, s.zr, wxzr)
	ws.Put(wxzr)
	dx := ws.GetUninit(n, t, d)
	swapLeadingAxes(dx.Data(), dxT.Data(), t, n, d)

	for _, buf := range []*tensor.Tensor{whzr, dh, drh, gxzr, ghzr, sumH, sumZR, dah, s.xT, s.zr, s.hh, s.hp} {
		ws.Put(buf)
	}
	s.xT, s.zr, s.hh, s.hp = nil, nil, nil, nil
	return dx
}

// gruGradTasks is the number of independent pieces gradTask splits the
// parameter gradients into.
const gruGradTasks = 4

// gradTask computes piece i of the parameter gradients from the finished
// saved buffers, serially: a K = T·N GEMM (the pair against daz|dar costs
// twice the one against dah, so the order pairs a heavy piece with a light
// one) and, where the operand is already streaming through, its column
// sums.
func (g *GRU) gradTask(i int) {
	p, k, d, h := &g.pass, g.saved.t*g.saved.n, g.D, g.H
	switch i {
	case 0:
		tensor.TMatMulAccSerial(p.gxzr, p.xT, p.zr, d, k, 2*h)
		colSums(p.sumZR, p.zr)
	case 1:
		tensor.TMatMulAccSerial(g.Wxh.Grad.Data(), p.xT, p.dah, d, k, h)
	case 2:
		tensor.TMatMulAccSerial(p.ghzr, p.hp, p.zr, h, k, 2*h)
	case 3:
		tensor.TMatMulAccSerial(g.Whh.Grad.Data(), p.hh, p.dah, h, k, h)
		colSums(p.sumH, p.dah)
	}
}

// backwardBlock runs the dh recurrence from step T-1 down to 0 for row
// block b, leaving dah, daz|dar and r⊙h_{t-1} in the saved buffers.
func (g *GRU) backwardBlock(b int) {
	p, n, t, h := &g.pass, g.saved.n, g.saved.t, g.H
	lo, hi := b*n/p.blocks, (b+1)*n/p.blocks
	nb := hi - lo
	dh := p.dh[lo*h : hi*h]
	drh := p.drh[lo*h : hi*h]
	for s := t - 1; s >= 0; s-- {
		r0, r1 := s*n+lo, s*n+hi
		zr := p.zr[r0*2*h : r1*2*h]
		hh := p.hh[r0*h : r1*h]
		hPrev := p.hp[r0*h : r1*h]
		dah := p.dah[r0*h : r1*h]

		// h = (1-z)·h̃ + z·hPrev, with dL/dh = dout_t + the carry from
		// step t+1. daz takes z's slot, dah takes dout's, and the carry
		// restarts as dh·z.
		for i := 0; i < nb; i++ {
			z := zr[i*2*h : i*2*h+h]
			hhr := hh[i*h : (i+1)*h]
			hpr := hPrev[i*h : (i+1)*h]
			da := dah[i*h : (i+1)*h]
			dhr := dh[i*h : (i+1)*h]
			for j, zv := range z {
				dhv := da[j] + dhr[j]
				hhv := hhr[j]
				dz := dhv * (hpr[j] - hhv)
				dhh := dhv * (1 - zv)
				dhr[j] = dhv * zv
				da[j] = dhh * (1 - float64(hhv*hhv))
				z[j] = dz * zv * (1 - zv)
			}
		}
		tensor.MatMulTSerial(drh, dah, p.whh, nb, h, h, false)
		// r⊙hPrev splits: dar takes r's slot, and the dead h̃ slot gets
		// r⊙hPrev back for the Whh gradient.
		for i := 0; i < nb; i++ {
			r := zr[i*2*h+h : (i+1)*2*h]
			hhr := hh[i*h : (i+1)*h]
			hpr := hPrev[i*h : (i+1)*h]
			dr := drh[i*h : (i+1)*h]
			dhr := dh[i*h : (i+1)*h]
			for j, rv := range r {
				hpv, dv := hpr[j], dr[j]
				hhr[j] = rv * hpv
				dhr[j] += float64(dv * rv)
				r[j] = dv * hpv * rv * (1 - rv)
			}
		}
		tensor.MatMulTSerial(dh, zr, p.whzr, nb, 2*h, h, true)
	}
}

// colSums sets dst to the column sums of the row-major matrix a with
// len(dst) columns: rows ascending, starting from zero.
func colSums(dst, a []float64) {
	clear(dst)
	for c := len(dst); len(a) >= c && c > 0; a = a[c:] {
		tensor.VecAddInto(dst, dst, a[:c])
	}
}

// concatCols borrows [a | b]: (rows, 2·cols) for two (rows, cols)
// matrices, (2·cols) for two biases of length cols.
func concatCols(ws *tensor.Workspace, a, b *tensor.Tensor, cols int) *tensor.Tensor {
	var out *tensor.Tensor
	if a.NDim() == 1 {
		out = ws.GetUninit(2 * cols)
	} else {
		out = ws.GetUninit(a.Dim(0), 2*cols)
	}
	od, ad, bd := out.Data(), a.Data(), b.Data()
	for i := 0; i*cols < len(ad); i++ {
		copy(od[i*2*cols:i*2*cols+cols], ad[i*cols:(i+1)*cols])
		copy(od[i*2*cols+cols:(i+1)*2*cols], bd[i*cols:(i+1)*cols])
	}
	return out
}

// splitCols is concatCols' inverse on flat data.
func splitCols(src, a, b []float64, cols int) {
	for i := 0; i*cols < len(a); i++ {
		copy(a[i*cols:(i+1)*cols], src[i*2*cols:i*2*cols+cols])
		copy(b[i*cols:(i+1)*cols], src[i*2*cols+cols:(i+1)*2*cols])
	}
}

// swapLeadingAxes copies row-major (A, B, D) data into (B, A, D) order:
// batch-major (N, T, D) to time-major (T·N, D) with (A, B) = (N, T), and
// back with (A, B) = (T, N). The A rows split over the tensor pool.
func swapLeadingAxes(dst, src []float64, a, b, d int) {
	swapJobs.For(a, b*d, swapArgs{dst, src, a, b, d}, swapRows)
}

type swapArgs struct {
	dst, src []float64
	a, b, d  int
}

var swapJobs tensor.Jobs[swapArgs]

// swapRows copies source rows [lo, hi) of swapLeadingAxes.
func swapRows(v swapArgs, lo, hi int) {
	a, b, d := v.a, v.b, v.d
	for i := lo; i < hi; i++ {
		for j := 0; j < b; j++ {
			copy(v.dst[(j*a+i)*d:(j*a+i+1)*d], v.src[(i*b+j)*d:(i*b+j+1)*d])
		}
	}
}

// Params returns all nine weight/bias tensors.
func (g *GRU) Params() []*Param {
	return []*Param{g.Wxz, g.Whz, g.Bz, g.Wxr, g.Whr, g.Br, g.Wxh, g.Whh, g.Bh}
}

// sliceTimeInto extracts timestep `step` of an (N, T, D) tensor into the
// caller-provided (N, D) out.
func sliceTimeInto(out, x *tensor.Tensor, step int) *tensor.Tensor {
	n, t, d := x.Dim(0), x.Dim(1), x.Dim(2)
	for b := 0; b < n; b++ {
		src := x.Data()[(b*t+step)*d : (b*t+step+1)*d]
		copy(out.Data()[b*d:(b+1)*d], src)
	}
	return out
}

// copyIntoTime writes an (N, D) slice into timestep `step` of (N, T, D).
func copyIntoTime(dst *tensor.Tensor, step int, src *tensor.Tensor) {
	n, t, d := dst.Dim(0), dst.Dim(1), dst.Dim(2)
	for b := 0; b < n; b++ {
		copy(dst.Data()[(b*t+step)*d:(b*t+step+1)*d], src.Data()[b*d:(b+1)*d])
	}
}

// TimeDistributed applies an inner layer independently at every timestep
// of an (N, T, D) sequence by folding time into the batch axis. The
// paper's GRU model ends in a TimeDistributed Dense(1) that emits one
// prediction per timestep.
type TimeDistributed struct {
	Inner Layer
}

// NewTimeDistributed wraps a layer for per-timestep application.
func NewTimeDistributed(inner Layer) *TimeDistributed { return &TimeDistributed{Inner: inner} }

// SetWorkspace forwards the workspace to the inner layer (the fold/unfold
// reshapes themselves share storage and allocate only slice headers).
func (td *TimeDistributed) SetWorkspace(ws *tensor.Workspace) {
	if wl, ok := td.Inner.(WorkspaceSetter); ok {
		wl.SetWorkspace(ws)
	}
}

// Forward folds (N,T,D) to (N·T,D), applies the inner layer, and unfolds.
func (td *TimeDistributed) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, t := x.Dim(0), x.Dim(1)
	out := td.Inner.Forward(x.Reshape(n*t, x.Dim(2)), train)
	return out.Reshape(n, t, out.Dim(1))
}

// Backward folds the (N, T, ·) gradient the same way and delegates.
func (td *TimeDistributed) Backward(dout *tensor.Tensor) *tensor.Tensor {
	n, t := dout.Dim(0), dout.Dim(1)
	din := td.Inner.Backward(dout.Reshape(n*t, dout.Dim(2)))
	return din.Reshape(n, t, din.Dim(1))
}

// Params returns the inner layer's parameters.
func (td *TimeDistributed) Params() []*Param { return td.Inner.Params() }

// LastTimestep reduces (N, T, H) to the final step's hidden state (N, H);
// used when a recurrent encoder feeds a classification head.
type LastTimestep struct {
	base[[3]int] // saved: the input shape (N, T, H)
}

// Forward extracts the last timestep.
func (l *LastTimestep) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.saved = [3]int{x.Dim(0), x.Dim(1), x.Dim(2)}
	return sliceTimeInto(l.ws.Get(x.Dim(0), x.Dim(2)), x, x.Dim(1)-1)
}

// Backward scatters the gradient into the last timestep slot.
func (l *LastTimestep) Backward(dout *tensor.Tensor) *tensor.Tensor {
	n, t, h := l.saved[0], l.saved[1], l.saved[2]
	din := l.ws.Get(n, t, h)
	copyIntoTime(din, t-1, dout)
	return din
}

// Params returns nil.
func (l *LastTimestep) Params() []*Param { return nil }

// Conv1D applies a 1-D convolution over (N, T, D) sequences (channels
// last), producing (N, T', F). It is implemented by treating the sequence
// as an (N, D, 1, T) image and reusing the 2-D machinery; it backs the
// paper's 1-D CNN baseline for the ARDS study.
type Conv1D struct {
	conv *Conv2D
}

// SetWorkspace routes the inner convolution's temporaries, and the layout
// conversions', through ws.
func (c *Conv1D) SetWorkspace(ws *tensor.Workspace) { c.conv.SetWorkspace(ws) }

// NewConv1D creates a 1-D convolution with kernel size k.
func NewConv1D(rng *rand.Rand, name string, inD, outF, k, stride, pad int) *Conv1D {
	c := NewConv2D(rng, name, inD, outF, 1, 1, 0)
	// Overwrite kernel geometry to 1×k so the spatial axis is time.
	fanIn := inD * k
	std := math.Sqrt(2.0 / float64(fanIn))
	c.W = NewParam(name+".W", tensor.Randn(rng, std, fanIn, outF))
	c.KH, c.KW = 1, k
	c.Stride = stride
	c.PadH, c.PadW = 0, pad // pad only the time axis
	return &Conv1D{conv: c}
}

// Forward reshapes (N,T,D) → (N,D,1,T), convolves, and restores layout.
func (c *Conv1D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	ws := c.conv.ws
	img := toNCHW1(ws.Get(x.Dim(0), x.Dim(2), 1, x.Dim(1)), x)
	out := c.conv.Forward(img, train) // (N, F, 1, T')
	return fromNCHW1(ws.Get(out.Dim(0), out.Dim(3), out.Dim(1)), out)
}

// Backward mirrors the layout conversions.
func (c *Conv1D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	ws := c.conv.ws
	dimg := toNCHW1(ws.Get(dout.Dim(0), dout.Dim(2), 1, dout.Dim(1)), dout)
	din := c.conv.Backward(dimg) // (N, D, 1, T)
	return fromNCHW1(ws.Get(din.Dim(0), din.Dim(3), din.Dim(1)), din)
}

// Params returns the kernel parameters.
func (c *Conv1D) Params() []*Param { return c.conv.Params() }

// toNCHW1 converts (N,T,D) channels-last into the provided (N,D,1,T) out.
func toNCHW1(out, x *tensor.Tensor) *tensor.Tensor {
	n, t, d := x.Dim(0), x.Dim(1), x.Dim(2)
	xd, od := x.Data(), out.Data()
	for b := 0; b < n; b++ {
		for step := 0; step < t; step++ {
			for ch := 0; ch < d; ch++ {
				od[(b*d+ch)*t+step] = xd[(b*t+step)*d+ch]
			}
		}
	}
	return out
}

// fromNCHW1 converts (N,F,1,T) back into the provided (N,T,F) out.
func fromNCHW1(out, img *tensor.Tensor) *tensor.Tensor {
	n, f, t := img.Dim(0), img.Dim(1), img.Dim(3)
	id, od := img.Data(), out.Data()
	for b := 0; b < n; b++ {
		for step := 0; step < t; step++ {
			for ch := 0; ch < f; ch++ {
				od[(b*t+step)*f+ch] = id[(b*f+ch)*t+step]
			}
		}
	}
	return out
}
