package tensor

import (
	"fmt"
	"math"
	"slices"
)

// ConvDims computes output spatial size for a convolution/pooling window.
func ConvDims(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}

// Im2ColInto lowers an image batch img of shape (N, C, H, W) into the
// caller-provided column matrix cols of shape (N*OH*OW, C*KH*KW), so that
// convolution becomes a single matmul against a (C*KH*KW, OutC) filter
// matrix. cols is fully overwritten; out-of-bounds (padding) samples are
// zero.
//
// Im2ColInto and its adjoint col2im (conv_test.go) are the reference
// lowering, not the training path: the convolution engine below computes
// the same products without building this matrix, and its tests compose
// them with the matmul family to state what every result must equal, bit
// for bit.
func Im2ColInto(cols, img *Tensor, kh, kw, stride, padH, padW int) *Tensor {
	if len(img.shape) != 4 {
		panic("tensor: Im2ColInto requires (N,C,H,W)")
	}
	n, c, h, w := img.shape[0], img.shape[1], img.shape[2], img.shape[3]
	oh := ConvDims(h, kh, stride, padH)
	ow := ConvDims(w, kw, stride, padW)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Im2ColInto degenerate output %dx%d", oh, ow))
	}
	if len(cols.shape) != 2 || cols.shape[0] != n*oh*ow || cols.shape[1] != c*kh*kw {
		panic(fmt.Sprintf("tensor: Im2ColInto output shape %v, want (%d,%d)", cols.shape, n*oh*ow, c*kh*kw))
	}
	g := convGeom{c: c, h: h, w: w, oh: oh, ow: ow, kh: kh, kw: kw, stride: stride, padH: padH, padW: padW}
	convJobs.For(n*oh*ow, 2*c*kh*kw, convArgs{out: cols.data, x: img.data, g: g}, im2colRows)
	return cols
}

// im2colRows lowers column-matrix rows [lo,hi). Each row is fully
// overwritten (padding cells written as explicit zeros), so rows are
// independent and a recycled buffer matches a fresh one exactly.
func im2colRows(v convArgs, lo, hi int) {
	cols, img, g := v.out, v.x, v.g
	c, h, w, oh, ow, kh, kw, stride, padH, padW := g.c, g.h, g.w, g.oh, g.ow, g.kh, g.kw, g.stride, g.padH, g.padW
	for colRow := lo; colRow < hi; colRow++ {
		b := colRow / (oh * ow)
		rem := colRow % (oh * ow)
		iy0 := (rem/ow)*stride - padH
		ix0 := (rem%ow)*stride - padW
		dst := cols[colRow*c*kh*kw : (colRow+1)*c*kh*kw]
		di := 0
		for ch := 0; ch < c; ch++ {
			base := ((b*c + ch) * h) * w
			for ky := 0; ky < kh; ky++ {
				iy := iy0 + ky
				if iy < 0 || iy >= h {
					for kx := 0; kx < kw; kx++ {
						dst[di] = 0
						di++
					}
					continue
				}
				rowBase := base + iy*w
				for kx := 0; kx < kw; kx++ {
					ix := ix0 + kx
					if ix >= 0 && ix < w {
						dst[di] = img[rowBase+ix]
					} else {
						dst[di] = 0
					}
					di++
				}
			}
		}
	}
}

// The convolution engine: forward, filter gradient and input gradient as
// three packed-GEMM kernels over the NCHW tensors themselves. With
// K = C·KH·KW (reduction index p = (c, ky, kx), the filter matrix's row)
// and P = OH·OW (pixel index (oy, ox) within one output plane), the
// lowered matrix cols (N·P × K) is never built: the micro-kernels read
// their panels in place from the tensors or from zero-bordered,
// phase-split copies of the input (pack.go), where the lowering wrote
// cols to memory, packed panels out of it three times and scattered the
// last product back through col2im.
//
// Floating-point contract — the lowering's, element for element, so every
// result is bitwise what Im2ColInto + the matmul family + col2im give
// (conv_test.go keeps that composition as the reference):
//
//   - forward: out[b,oc,oy,ox] is the FMA chain over ascending p seeded
//     from +0, padding taps entering as explicit zero factors, the bias
//     added with a plain + after the chain.
//   - filter gradient: dw[p,oc] continues its FMA chain from its prior
//     value over ascending (image, pixel); db[oc] += the sum of
//     dout[·,oc,·,·] taken from +0 in that same order by plain adds.
//   - input gradient: per kernel tap one zero-seeded FMA chain over
//     ascending oc, and the per-tap values reach dx[b,c,iy,ix], from +0,
//     by plain adds in ascending output-pixel order. For a fixed input
//     pixel that is descending (ky, kx) order, because oy = (iy+padH-ky)/
//     stride falls as ky rises (and likewise ox against kx); a tap whose
//     output pixel is clipped or off the stride adds nothing.

// convGeom is one convolution's geometry.
type convGeom struct {
	n, c, h, w         int // input batch (N, C, H, W)
	outC, oh, ow       int // output planes (N, OutC, OH, OW)
	kh, kw             int
	stride, padH, padW int
}

// convArgs is what the convolution and lowering kernels take for a range
// of their parallel units: the slices they write and read, the packed
// operand, the forward's tile-store operands and mode (packConvEpilogue),
// the tap offsets (tapOffsets) or lists (gatherTaps), and the geometry.
type convArgs struct {
	out, x, a, ep []float64
	offs          []int
	mode          int
	g             convGeom
}

var convJobs Jobs[convArgs]

func (g *convGeom) k() int { return g.c * g.kh * g.kw }
func (g *convGeom) p() int { return g.oh * g.ow }

// The forward and filter-gradient kernels read the input from a
// zero-bordered copy split by stride phase (packConvPhases64): phase
// (fy, fx) is an hq × wq plane of the bordered pixels (y·stride+fy,
// x·stride+fx), and tap (ky, kx) of output pixel (oy, ox) is its pixel
// (oy+ky/stride, ox+kx/stride) for fy, fx = ky, kx mod stride: a tap's
// pixels along an output row are consecutive at every stride.
func (g *convGeom) hq() int     { return g.oh + (g.kh-1)/g.stride }
func (g *convGeom) wq() int     { return g.ow + (g.kw-1)/g.stride }
func (g *convGeom) phases() int { return min(g.stride, g.kh) * min(g.stride, g.kw) }

// phaseOf returns the phase plane and the offset within it of tap
// (ky, kx) for output pixel (0, 0).
func (g *convGeom) phaseOf(ky, kx int) (plane, off int) {
	s := g.stride
	return ky%s*min(s, g.kw) + kx%s, ky/s*g.wq() + kx/s
}

// tapOffsets fills offs[p] for p < K with row p's offset within one
// image's phase planes (one channel per plane set) from the output pixel
// (0, 0), and offs[K] with the largest of them.
func (g *convGeom) tapOffsets(offs []int) {
	k, taps, chans := g.k(), g.kh*g.kw, g.phases()*g.hq()*g.wq()
	for t := range taps {
		ph, off := g.phaseOf(t/g.kw, t%g.kw)
		offs[t] = ph*g.hq()*g.wq() + off
	}
	offs[k] = slices.Max(offs[:taps]) + (g.c-1)*chans
	for p := taps; p < k; p++ {
		offs[p] = offs[p-taps] + chans
	}
}

// convGeometry validates a convolution's operands — img (N,C,H,W), planes
// (N,OutC,OH,OW) and the (C·KH·KW, OutC) filter matrix w — and returns
// its geometry.
func convGeometry(op string, img, planes, w *Tensor, kh, kw, stride, padH, padW int) convGeom {
	if len(img.shape) != 4 || len(planes.shape) != 4 || len(w.shape) != 2 {
		panic("tensor: " + op + " requires (N,C,H,W) tensors and a 2-D filter matrix")
	}
	if kh < 1 || kw < 1 || stride < 1 || padH < 0 || padW < 0 {
		panic("tensor: " + op + " kernel, stride or padding out of range")
	}
	g := convGeom{
		n: img.shape[0], c: img.shape[1], h: img.shape[2], w: img.shape[3],
		outC: w.shape[1], kh: kh, kw: kw, stride: stride, padH: padH, padW: padW,
	}
	g.oh = ConvDims(g.h, kh, stride, padH)
	g.ow = ConvDims(g.w, kw, stride, padW)
	if g.oh <= 0 || g.ow <= 0 {
		panic(fmt.Sprintf("tensor: %s degenerate output %dx%d", op, g.oh, g.ow))
	}
	if w.shape[0] != g.k() {
		panic("tensor: " + op + " filter shape mismatch")
	}
	if planes.shape[0] != g.n || planes.shape[1] != g.outC || planes.shape[2] != g.oh || planes.shape[3] != g.ow {
		panic("tensor: " + op + " output shape mismatch")
	}
	return g
}

// BNReLU is the eval chain Conv2DBiasInto can apply as it stores each
// tile, after the bias: BatchNormNormalizeInto's eval expression
// float64(g·((v−m)·iv)) + bt with the channel's Mean, Inv, Gamma and Beta
// entries, then, with ReLU set, ReLUInto's gate. Every step rounds as the
// separate pass rounds it, so the output is theirs bit for bit.
type BNReLU struct {
	Mean, Inv, Gamma, Beta []float64
	ReLU                   bool
}

// Tile-store modes (convStore): apply the eval batch norm after the bias,
// and then the rectifier.
const (
	epBN = 1 << iota
	epReLU
)

// Conv2DBiasInto computes the convolution forward pass with the bias add
// fused: out = conv(img, w) + bias as channel-major (N, OutC, OH, OW)
// images, every element overwritten. img is (N, C, H, W), w the
// (C·KH·KW, OutC) filter matrix, bias (length OutC) may be nil. An eval
// chain ev (at most one) is applied to each value after the bias, in the
// same store.
//
// Per image it is the product Wᵀ (OutC×K) · colsᵀ (K×P) on the packed
// micro-kernel with output pixels as the 8-wide panel dimension: Wᵀ is
// packed once per call, the input is read in place or copied once into
// zero-bordered phase planes so that row p of a pixel panel is the
// panel's origin plus a fixed offset per (c, ky, kx) with no tap out of
// range, and the finished 4×8 tiles go straight to the NCHW planes
// through one epilogue (convStore). One kernel serves training and
// inference at every stride. The scratch is the packing pool's; ws is not
// used.
func Conv2DBiasInto(ws *Workspace, out, img, w, bias *Tensor, kh, kw, stride, padH, padW int, ev ...BNReLU) *Tensor {
	g := convGeometry("Conv2DBiasInto", img, out, w, kh, kw, stride, padH, padW)
	var bd []float64
	if bias != nil {
		if bias.Size() != g.outC {
			panic("tensor: Conv2DBiasInto bias length mismatch")
		}
		bd = bias.data
	}
	k := g.k()
	ocBlocks := (g.outC + 3) / 4
	apP := getScratch(ocBlocks*(k*4+20) + k + 1)
	ap, ep := (*apP)[:ocBlocks*k*4], (*apP)[ocBlocks*k*4:ocBlocks*(k*4+20)]
	offs := intView((*apP)[ocBlocks*(k*4+20):])
	for ob := 0; ob < ocBlocks; ob++ {
		packACols64(ap[ob*k*4:(ob+1)*k*4], w.data, g.outC, ob*4, min(4, g.outC-ob*4), 0, k)
	}
	mode := packConvEpilogue(ep, bd, ev, g.outC)
	g.tapOffsets(offs)
	xp, xpP := img.data, (*[]float64)(nil)
	if g.stride > 1 || g.hq() != g.h || g.wq() != g.w {
		xpP = getScratch(g.n * g.c * g.phases() * g.hq() * g.wq())
		xp = *xpP
		packConvPhases64(xp, img.data, g, 1)
	}
	convJobs.For(g.n*((g.p()+7)/8), 16*k*g.outC, convArgs{out: out.data, x: xp, a: ap, ep: ep, offs: offs, mode: mode, g: g}, convForwardPanels)
	if xpP != nil {
		putScratch(xpP)
	}
	putScratch(apP)
	return out
}

// packConvEpilogue lays out the tile store's per-channel operands, 20 per
// 4-channel block: bias, mean, inv, gamma and beta, four of each. A nil
// bias is −0, which x + (−0) leaves as x bit for bit (+0 would turn −0
// into +0).
func packConvEpilogue(ep, bias []float64, ev []BNReLU, outC int) (mode int) {
	cols := [5][]float64{bias}
	for _, e := range ev {
		if min(len(e.Mean), len(e.Inv), len(e.Gamma), len(e.Beta)) < outC {
			panic("tensor: Conv2DBiasInto per-channel slice shorter than OutC")
		}
		cols[1], cols[2], cols[3], cols[4] = e.Mean, e.Inv, e.Gamma, e.Beta
		mode = epBN
		if e.ReLU {
			mode = epBN | epReLU
		}
	}
	for i := range ep {
		ep[i] = math.Copysign(0, -1)
	}
	for i, col := range cols {
		for oc := range min(len(col), outC) {
			ep[oc/4*20+i*4+oc%4] = col[oc]
		}
	}
	return mode
}

// convForwardPanels computes units [lo,hi), unit = image·panels + pixel
// panel: every 4-channel block of the packed Wᵀ against the unit's K×8
// panel into a zero-seeded tile, stored through the epilogue. Eight
// pixels of one output row are read in place from the phase planes
// (conv4x8 at stride 1, conv4x8Taps strided); partial and row-straddling
// panels are gathered into bp first, taken from the scratch pool at the
// range's first such panel, so a range of in-place panels takes no lock.
func convForwardPanels(v convArgs, lo, hi int) {
	out, xp, ap, g := v.out, v.x, v.a, v.g
	k, p := g.k(), g.p()
	panels := (p + 7) / 8
	wq := g.wq()
	plane := g.hq() * wq
	image := g.c * g.phases() * plane
	var bpP *[]float64
	var bp []float64
	var tile [32]float64
	for u := lo; u < hi; u++ {
		b, pix0 := u/panels, u%panels*8
		wv := min(8, p-pix0)
		xpB := xp[b*image : (b+1)*image]
		oy, ox0 := pix0/g.ow, pix0%g.ow
		inPlace := wv == 8 && ox0+8 <= g.ow
		if !inPlace {
			if bpP == nil {
				bpP = getScratch(k * 8)
				bp = *bpP
			}
			packConvPixels64(bp, xpB, v.offs[:k], &g, pix0)
		}
		for oc0 := 0; oc0 < g.outC; oc0 += 4 {
			switch {
			case inPlace && g.stride == 1:
				conv4x8(ap[oc0*k:], xpB[oy*wq+ox0:], g.c, g.kh, g.kw, plane, wq, &tile)
			case inPlace:
				conv4x8Taps(ap[oc0*k:], xpB[oy*wq+ox0:], v.offs, &tile)
			default:
				tile = [32]float64{}
				gemm4x8(k, ap[oc0*k:], 1, 4, bp, 8, tile[:], 8)
			}
			convStore(out[(b*g.outC+oc0)*p+pix0:], p, &tile, (*[20]float64)(v.ep[oc0*5:]), v.mode, min(4, g.outC-oc0), wv)
		}
	}
	if bpP != nil {
		putScratch(bpP)
	}
}

// convStoreGo stores rows r < rows and lanes j < wv of a conv tile (row
// stride 8) at dst[r·p+j], adding the bias and then, by mode, the eval
// batch norm and the rectifier, each rounded as bnNormGo and vecReLUGo
// round them. convStoreAVX does the same to whole tiles.
func convStoreGo(dst []float64, p int, tile *[32]float64, ep *[20]float64, mode, rows, wv int) {
	for r := 0; r < rows; r++ {
		for j, v := range tile[r*8 : r*8+wv] {
			v += ep[r]
			if mode&epBN != 0 {
				v = float64(ep[12+r]*((v-ep[4+r])*ep[8+r])) + ep[16+r]
			}
			if mode&epReLU != 0 {
				v = keepIf(v, !(v <= 0))
			}
			dst[r*p+j] = v
		}
	}
}

// Conv2DGradWeightsInto accumulates a convolution's parameter gradients:
// dw (C·KH·KW, OutC) += colsᵀ·dout and db (length OutC, may be nil)
// += Σ dout, from the saved forward input img (N, C, H, W) and the
// upstream gradient dout (N, OutC, OH, OW).
//
// It is the TN product dw (K×OutC) += A·B with the reduction over all
// N·P pixels. Both operands are repacked once per call: dout into
// 8-channel p-major panels, the input into its phase planes with four
// channels interleaved per pixel (packConvPhases64). A 4-row block of K
// is then four consecutive channels at one kernel tap — rows
// (c·KH+ky)·KW+kx of dw, KH·KW rows apart — and its A panel over an
// output row is one contiguous run of the interleaved input, the next
// row's run wq pixels on, which the micro-kernel reads in place. Blocks
// accumulate over ascending (image, pixel), so every dw element keeps the
// lowering's chain. The db sums run in channel lanes (chanSums).
func Conv2DGradWeightsInto(dw, db, img, dout *Tensor, kh, kw, stride, padH, padW int) {
	g := convGeometry("Conv2DGradWeightsInto", img, dout, dw, kh, kw, stride, padH, padW)
	if db != nil && db.Size() != g.outC {
		panic("tensor: Conv2DGradWeightsInto bias gradient length mismatch")
	}
	np := g.n * g.p()
	bpP := getScratch((g.outC+7)/8*np*8 + g.outC)
	bp := *bpP
	packConvGrad64(bp, dout.data, g.n, g.outC, g.p())
	if db != nil {
		sums := bp[len(bp)-g.outC:]
		chanSums(sums, nil, dout.data, nil, nil, g.n, g.outC, g.p())
		for oc, v := range sums {
			db.data[oc] += v
		}
	}
	cBlocks := (g.c + 3) / 4
	xtP := getScratch(g.n * cBlocks * g.phases() * g.hq() * g.wq() * 4)
	xt := *xtP
	packConvPhases64(xt, img.data, g, 4)
	convJobs.For(cBlocks*kh*kw, 8*np*g.outC, convArgs{out: dw.data, x: xt, a: bp, g: g}, convFilterRows)
	putScratch(xtP)
	putScratch(bpP)
}

// convFilterRows accumulates 4-row blocks [lo,hi) of dw, block =
// channel-block·KH·KW + tap. The reduction runs in chunks of whole output
// rows of one image (about kc pixels), so the A rows a chunk's 8-column
// blocks share stay cache-resident; dw carries the chain from chunk to
// chunk exactly as the blocked matmul carries it across kc.
func convFilterRows(v convArgs, lo, hi int) {
	dw, xt, bp, g := v.out, v.x, v.a, v.g
	p, taps := g.p(), g.kh*g.kw
	np := g.n * p
	cBlocks := (g.c + 3) / 4
	wq := g.wq()
	plane := g.hq() * wq * 4
	chunkRows := min(g.oh, max(1, kc/g.ow))
	var tile [32]float64
	for u := lo; u < hi; u++ {
		cb, tap := u/taps, u%taps
		ph, off := g.phaseOf(tap/g.kw, tap%g.kw)
		mb := min(4, g.c-cb*4)
		ldc := taps * g.outC // dw rows of consecutive channels at one tap
		c0 := (cb*4*taps + tap) * g.outC
		for b := 0; b < g.n; b++ {
			xtB := xt[((b*cBlocks+cb)*g.phases()+ph)*plane+off*4:]
			for oy0 := 0; oy0 < g.oh; oy0 += chunkRows {
				rows := min(chunkRows, g.oh-oy0)
				a := xtB[oy0*wq*4:]
				q0 := b*p + oy0*g.ow
				for jc := 0; jc < g.outC; jc += 8 {
					bpanel := bp[jc*np+q0*8:][:rows*g.ow*8]
					w8 := min(8, g.outC-jc)
					c := dw[c0+jc:]
					if mb == 4 && w8 == 8 {
						gemm4x8Rows(g.ow, rows, a, wq*4, bpanel, c, ldc)
						continue
					}
					loadTile(&tile, c, ldc, mb, w8)
					gemm4x8Rows(g.ow, rows, a, wq*4, bpanel, tile[:], 8)
					storeTile(c, ldc, &tile, mb, w8)
				}
			}
		}
	}
}

// Conv2DGradInputInto computes a convolution's input gradient
// dx (N, C, H, W) from dout (N, OutC, OH, OW) and the filter matrix w,
// overwriting every element of dx.
//
// It is a gather: each dx tile (four channels × eight input pixels)
// takes, tap by tap in descending order, the zero-seeded product
// W_tap (4×OutC) · dout (OutC×8) read in place at the tap's output
// pixels, and adds it into a running tile that starts at +0
// (convGather). For a fixed dx element the descending taps are its output
// pixels in ascending order, the order col2im scatters in. A tile's lanes
// share a row and a column phase (ix mod stride), so at every stride a
// tap reads consecutive dout pixels; lanes whose output pixel a tap clips
// are masked. The taps' 4-channel A panels and every tile position's tap
// list are built once per call, and the split is over images.
func Conv2DGradInputInto(dx, dout, w *Tensor, kh, kw, stride, padH, padW int) *Tensor {
	g := convGeometry("Conv2DGradInputInto", dx, dout, w, kh, kw, stride, padH, padW)
	taps := kh * kw
	cBlocks := (g.c + 3) / 4
	tiles := g.gatherTiles()
	apP := getScratch(cBlocks*taps*g.outC*4 + tiles + 1 + tiles*taps*4)
	ap := (*apP)[:cBlocks*taps*g.outC*4]
	for cb := 0; cb < cBlocks; cb++ {
		for tap := 0; tap < taps; tap++ {
			packARows64(ap[(cb*taps+tap)*g.outC*4:][:g.outC*4], w.data[tap*g.outC:], taps*g.outC, cb*4, min(4, g.c-cb*4), 0, g.outC)
		}
	}
	list := intView((*apP)[len(ap):])
	g.gatherTaps(list[:tiles+1], list[tiles+1:])
	convJobs.For(g.n, 2*g.p()*g.k()*g.outC, convArgs{out: dx.data, x: dout.data, a: ap, offs: list, g: g}, convInputImages)
	putScratch(apP)
	return dx
}

// gatherTiles bounds the number of dx tiles: along a row, eight pixels
// of one column phase each, at most W/8 + stride of them.
func (g *convGeom) gatherTiles() int { return g.h * (g.w/8 + g.stride) }

// gatherTaps lists the taps of every dx tile, row by row and in a row by
// phase and position: tile t's taps are taps[start[t]·4 : start[t+1]·4],
// four ints each, {a, d, lo, hi} (convGather4x8AVX), in descending tap
// order. A tap reaches a tile where its output row and column are whole
// and in range, for the lanes [lo, hi) whose output column is.
func (g *convGeom) gatherTaps(start, taps []int) {
	s, n, t := g.stride, 0, 0
	for iy := 0; iy < g.h; iy++ {
		for fx := 0; fx < min(s, g.w); fx++ {
			for ix0 := fx; ix0 < g.w; ix0 += 8 * s {
				start[t] = n
				t++
				for ky := g.kh - 1; ky >= 0; ky-- {
					ty := iy + g.padH - ky
					if ty < 0 || ty%s != 0 || ty/s >= g.oh {
						continue
					}
					for kx := g.kw - 1; kx >= 0; kx-- {
						tx := ix0 + g.padW - kx
						if tx%s != 0 {
							continue
						}
						ox := tx / s
						if lo, hi := max(0, -ox), min(8, g.ow-ox); lo < hi {
							*(*[4]int)(taps[n*4:]) = [4]int{(ky*g.kw + kx) * g.outC * 4, ty/s*g.ow + ox, lo, hi}
							n++
						}
					}
				}
			}
		}
	}
	start[t] = n
}

// convInputImages computes dx for images [lo,hi), tile by tile in
// gatherTaps' order (see Conv2DGradInputInto and DESIGN §Convolution).
func convInputImages(v convArgs, lo, hi int) {
	dx, dout, ap, g := v.out, v.x, v.a, v.g
	s, p, hw, taps := g.stride, g.p(), g.h*g.w, g.kh*g.kw
	cBlocks := (g.c + 3) / 4
	tiles := g.gatherTiles()
	start, list := v.offs[:tiles+1], v.offs[tiles+1:]
	var tile [32]float64
	for b := lo; b < hi; b++ {
		if s > 1 {
			clear(dx[b*g.c*hw : (b+1)*g.c*hw])
		}
		doutB := dout[b*g.outC*p : (b+1)*g.outC*p]
		t := 0
		for iy := 0; iy < g.h; iy++ {
			for fx := 0; fx < min(s, g.w); fx++ {
				for ix0 := fx; ix0 < g.w; ix0 += 8 * s {
					tl, wv := list[start[t]*4:start[t+1]*4], min(8, (g.w-ix0+s-1)/s)
					t++
					if s > 1 && len(tl) == 0 {
						continue
					}
					for cb := 0; cb < cBlocks; cb++ {
						d, rows, apB := dx[(b*g.c+cb*4)*hw+iy*g.w+ix0:], min(4, g.c-cb*4), ap[cb*taps*g.outC*4:]
						if s == 1 && wv == 8 && rows == 4 {
							convGather(apB, doutB, tl, g.outC, p, d, hw)
							continue
						}
						convGather(apB, doutB, tl, g.outC, p, tile[:], 8)
						for r := 0; r < rows; r++ {
							for j, v := range tile[r*8 : r*8+wv] {
								d[r*hw+j*s] = v
							}
						}
					}
				}
			}
		}
	}
}

// MaxPool2DInto performs max pooling into the caller-provided out tensor
// (shape (N,C,OH,OW)), which it overwrites. Each window folds its taps in
// row-major order, seeded from the first tap: a later tap replaces the
// running maximum only when strictly greater, so NaN and ±0 ties keep the
// earlier value: a window whose first tap is NaN yields NaN, a NaN later
// in a window is passed over, and a window of all −Inf yields its first
// tap. With arg non-nil (len out.Size()) the flat input index of each
// maximum is recorded for MaxPool2DBackwardInto; with arg nil only values
// are written, by maxPoolPlane or, at k = 2, stride = 2, by pool2x2,
// which gives the same bits.
func MaxPool2DInto(out *Tensor, arg []int, img *Tensor, k, stride int) {
	if len(img.shape) != 4 {
		panic("tensor: MaxPool2DInto requires (N,C,H,W)")
	}
	n, c, h, w := img.shape[0], img.shape[1], img.shape[2], img.shape[3]
	oh := ConvDims(h, k, stride, 0)
	ow := ConvDims(w, k, stride, 0)
	if out.Size() != n*c*oh*ow || (arg != nil && len(arg) != out.Size()) {
		panic("tensor: MaxPool2DInto output size mismatch")
	}
	for p := 0; p < n*c; p++ {
		src, dst := img.data[p*h*w:][:h*w], out.data[p*oh*ow:][:oh*ow]
		switch {
		case arg != nil:
			maxPoolArgPlane(dst, arg[p*oh*ow:][:oh*ow], src, p*h*w, w, ow, k, stride)
		case k == 2 && stride == 2:
			pool2x2(dst, src, oh, ow, w)
		default:
			maxPoolPlane(dst, src, w, ow, k, stride)
		}
	}
}

// maxPoolArgPlane pools one input plane (flat offset base in the batch)
// and records the flat input index of every maximum.
func maxPoolArgPlane(dst []float64, arg []int, src []float64, base, w, ow, k, stride int) {
	o := 0
	for y0 := 0; o < len(dst); y0 += stride {
		for x0 := 0; x0 < ow*stride; x0 += stride {
			bi := y0*w + x0
			best := src[bi]
			for ky := 0; ky < k; ky++ {
				row := (y0+ky)*w + x0
				for kx := 0; kx < k; kx++ {
					if v := src[row+kx]; v > best {
						best, bi = v, row+kx
					}
				}
			}
			dst[o], arg[o] = best, base+bi
			o++
		}
	}
}

// maxPoolPlane is maxPoolArgPlane's values with no argmax, folded without
// a data-dependent branch: pooled activations rise and fall at random, so
// a v > best branch mispredicts often. It is the Go fallback of pool2x2
// (re-folding the seed is harmless: maxGT(best, best) is best, NaN too).
func maxPoolPlane(dst, src []float64, w, ow, k, stride int) {
	o := 0
	for y0 := 0; o < len(dst); y0 += stride {
		for x0 := 0; x0 < ow*stride; x0 += stride {
			best := src[y0*w+x0]
			for ky := 0; ky < k; ky++ {
				for _, v := range src[(y0+ky)*w+x0:][:k] {
					best = maxGT(best, v)
				}
			}
			dst[o] = best
			o++
		}
	}
}

// MaxPool2DBackwardInto scatters upstream gradients through the argmax map
// into the caller-provided din, which is zeroed first.
func MaxPool2DBackwardInto(din, dout *Tensor, arg []int) *Tensor {
	din.Zero()
	for i, g := range dout.data {
		din.data[arg[i]] += g
	}
	return din
}

// GlobalAvgPoolInto reduces (N,C,H,W) into the caller-provided (N,C) out.
func GlobalAvgPoolInto(out, img *Tensor) *Tensor {
	if len(img.shape) != 4 {
		panic("tensor: GlobalAvgPoolInto requires (N,C,H,W)")
	}
	n, c, h, w := img.shape[0], img.shape[1], img.shape[2], img.shape[3]
	if out.Size() != n*c {
		panic("tensor: GlobalAvgPoolInto output size mismatch")
	}
	area := float64(h * w)
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			base := ((b*c + ch) * h) * w
			s := 0.0
			for i := 0; i < h*w; i++ {
				s += img.data[base+i]
			}
			out.data[b*c+ch] = s / area
		}
	}
	return out
}

// GlobalAvgPoolBackwardInto broadcasts (N,C) gradients into the
// caller-provided (N,C,H,W) din, overwriting it.
func GlobalAvgPoolBackwardInto(din, dout *Tensor) *Tensor {
	if len(din.shape) != 4 {
		panic("tensor: GlobalAvgPoolBackwardInto requires (N,C,H,W) output")
	}
	n, c, h, w := din.shape[0], din.shape[1], din.shape[2], din.shape[3]
	if dout.Size() != n*c {
		panic("tensor: GlobalAvgPoolBackwardInto gradient size mismatch")
	}
	inv := 1 / float64(h*w)
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			g := dout.data[b*c+ch] * inv
			base := ((b*c + ch) * h) * w
			for i := 0; i < h*w; i++ {
				din.data[base+i] = g
			}
		}
	}
	return din
}
