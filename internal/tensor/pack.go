package tensor

import (
	"math/bits"
	"sync"
	"unsafe"
)

// Panel packing for the blocked matmul (kernel.go). B column strips are
// packed once per (kc×nc) block into 8-wide p-major panels and shared by
// every row chunk; each chunk packs its own 4-row A panel. Packing is
// pure data movement, so it never changes results — the micro-kernel still
// accumulates each output element in ascending p order.
//
// Which products pack what:
//
//   - m > smallM (any kind) and every TN product pack both operands as
//     above.
//   - NN and NT with m ≤ smallM (gemmSmallM64) pack only what is
//     small or ragged: the A rows (NN: 4-row panels; NT: Aᵀ as one 8-wide
//     panel through packBCols64) and B's edge panel (NN: the last n % 8
//     columns, packBRows64; NT: the last n % 4 rows of b, packARows64).
//     Whole B panels are read in place by the strided micro-kernel.
//   - The convolution engine packs its own operands (below).
//
// Layouts:
//
//	B scratch: panel j8 = columns [8*j8, 8*j8+8) of the strip, laid out
//	           dst[j8*kb*8 + p*8 + j], zero-padded on the right edge.
//	A scratch: dst[p*4 + r] for block rows r, zero-padded past mb.
//
// Zero padding is what lets edge tiles reuse the full 4×8 kernel: padded
// rows/columns accumulate exact zeros into tile lanes that are never
// stored back.

// The scratch free lists recycle packing buffers across calls and
// goroutines, bucketed by power-of-two capacity class so a get never
// pops a buffer too small for its request (a single mixed-size pool
// would drop undersized buffers and re-allocate every call when A-panel
// and B-panel scratch interleave). A plain mutex-guarded stack — not
// sync.Pool, whose race-mode Put randomly drops buffers and would break
// the steady-state zero-allocation gates under -race — with a small
// per-class retention bound. The critical section is a pointer push/pop,
// negligible next to the packed matmuls that call it.
var (
	scratchMu   sync.Mutex
	scratchFree [48][]*[]float64
)

const scratchPerClass = 8

func getScratch(n int) *[]float64 {
	c := 0
	if n > 1 {
		c = bits.Len(uint(n - 1))
	}
	scratchMu.Lock()
	if l := scratchFree[c]; len(l) > 0 {
		p := l[len(l)-1]
		l[len(l)-1] = nil
		scratchFree[c] = l[:len(l)-1]
		scratchMu.Unlock()
		*p = (*p)[:n]
		return p
	}
	scratchMu.Unlock()
	s := make([]float64, n, 1<<c)
	return &s
}

func putScratch(p *[]float64) {
	c := 0
	if cap(*p) > 1 {
		c = bits.Len(uint(cap(*p) - 1))
	}
	scratchMu.Lock()
	if len(scratchFree[c]) < scratchPerClass {
		scratchFree[c] = append(scratchFree[c], p)
	}
	scratchMu.Unlock()
}

// packBRows64 packs B strip rows [p0,p0+kb) × cols [j0,j0+nb) from a
// (·,ldb) row-major matrix (the NN and TN cases, where B is b itself).
func packBRows64(dst, b []float64, ldb, p0, kb, j0, nb int) {
	panels := (nb + 7) / 8
	for j8 := 0; j8 < panels; j8++ {
		jc := j0 + j8*8
		w := nb - j8*8
		if w > 8 {
			w = 8
		}
		out := dst[j8*kb*8 : (j8+1)*kb*8]
		if w == 8 {
			// Full panel: element moves through registers; a copy() of 8
			// elements pays a memmove call per row.
			for p := 0; p < kb; p++ {
				s := (*[8]float64)(b[(p0+p)*ldb+jc:])
				d := (*[8]float64)(out[p*8:])
				d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
			}
			continue
		}
		for p := 0; p < kb; p++ {
			src := b[(p0+p)*ldb+jc : (p0+p)*ldb+jc+w]
			d := out[p*8 : p*8+8]
			copy(d, src)
			for x := w; x < 8; x++ {
				d[x] = 0
			}
		}
	}
}

// packBCols64 packs B = bᵀ for the NT case: b is (n,k) row-major and
// B[p][j] = b[(j0+j)*ldb + p0+p]. Each packed column is a contiguous
// run of a b row, so the copy streams.
func packBCols64(dst, b []float64, ldb, p0, kb, j0, nb int) {
	panels := (nb + 7) / 8
	for j8 := 0; j8 < panels; j8++ {
		jc := j0 + j8*8
		w := nb - j8*8
		if w > 8 {
			w = 8
		}
		out := dst[j8*kb*8 : (j8+1)*kb*8]
		for x := 0; x < 8; x++ {
			if x >= w {
				for p := 0; p < kb; p++ {
					out[p*8+x] = 0
				}
				continue
			}
			src := b[(jc+x)*ldb+p0 : (jc+x)*ldb+p0+kb]
			for p, v := range src {
				out[p*8+x] = v
			}
		}
	}
}

// packARows64 packs a 4-row A block (rows [i0,i0+mb) × cols [p0,p0+kb))
// from a (·,lda) row-major matrix (NN and NT cases).
func packARows64(dst, a []float64, lda, i0, mb, p0, kb int) {
	if mb == 4 { // full block: one pass, four read streams, contiguous writes
		a0 := a[i0*lda+p0:][:kb]
		a1 := a[(i0+1)*lda+p0:][:kb]
		a2 := a[(i0+2)*lda+p0:][:kb]
		a3 := a[(i0+3)*lda+p0:][:kb]
		dst = dst[:4*kb]
		for p := range a0 {
			d := (*[4]float64)(dst[p*4:])
			d[0], d[1], d[2], d[3] = a0[p], a1[p], a2[p], a3[p]
		}
		return
	}
	for r := 0; r < 4; r++ {
		if r >= mb {
			for p := 0; p < kb; p++ {
				dst[p*4+r] = 0
			}
			continue
		}
		src := a[(i0+r)*lda+p0 : (i0+r)*lda+p0+kb]
		for p, v := range src {
			dst[p*4+r] = v
		}
	}
}

// packACols64 packs A = aᵀ for the TN case: a is (k,m) row-major and
// A[i][p] = a[(p0+p)*lda + i0+i].
func packACols64(dst, a []float64, lda, i0, mb, p0, kb int) {
	if mb == 4 { // full block: register moves, as in packBRows64
		for p := 0; p < kb; p++ {
			s := (*[4]float64)(a[(p0+p)*lda+i0:])
			d := (*[4]float64)(dst[p*4:])
			d[0], d[1], d[2], d[3] = s[0], s[1], s[2], s[3]
		}
		return
	}
	for p := 0; p < kb; p++ {
		src := a[(p0+p)*lda+i0 : (p0+p)*lda+i0+mb]
		d := dst[p*4 : p*4+4]
		copy(d, src)
		for r := mb; r < 4; r++ {
			d[r] = 0
		}
	}
}

// Convolution packers (conv.go): the copies that stand in for the im2col
// matrix cols (N·P × K). They are data movement only — padding cells
// become the same explicit zeros Im2ColInto writes — so the micro-kernels
// see exactly the panels the lowering would have packed out of cols.

// packConvPhases64 copies the input batch img (N, C, H, W) into the
// zero-bordered phase planes (convGeom.hq): for each image, group of
// lanes channels (lanes is 1 or 4), and phase (fy, fx), an hq × wq plane
// with the group's channels interleaved per pixel,
//
//	dst[(((b·groups+cg)·phases + fy·min(stride,KW)+fx)·hq·wq + y·wq + x)·lanes + r]
//	  = img[b][cg·lanes+r][y·stride+fy−padH][x·stride+fx−padW],
//
// zero outside the image and for channels past C.
func packConvPhases64(dst, img []float64, g convGeom, lanes int) {
	s, hq, wq, hw := g.stride, g.hq(), g.wq(), g.h*g.w
	row, groups := wq*lanes, (g.c+lanes-1)/lanes
	// inside returns [lo, hi): the plane coordinates t < n whose image
	// coordinate t·s + f − pad lies in [0, size) (f < s, so the divisions
	// round up).
	inside := func(n, f, pad, size int) (lo, hi int) {
		lo = min(n, max(0, (pad-f+s-1)/s))
		return lo, max(lo, min(n, (size+pad-f+s-1)/s))
	}
	for fy := 0; fy < min(s, g.kh); fy++ {
		ylo, yhi := inside(hq, fy, g.padH, g.h)
		for fx := 0; fx < min(s, g.kw); fx++ {
			xlo, xhi := inside(wq, fx, g.padW, g.w)
			ph := fy*min(s, g.kw) + fx
			for bg, phases := 0, g.phases(); bg < g.n*groups; bg++ {
				d := dst[(bg*phases+ph)*hq*row:][:hq*row]
				if ylo > 0 || yhi < hq || xlo > 0 || xhi < wq {
					clear(d) // the border; the image rows are written over
				}
				c0 := bg % groups * lanes
				chans := img[(bg/groups*g.c+c0)*hw:]
				for y := ylo; y < yhi && xlo < xhi; y++ {
					packPhaseRow(d[y*row+xlo*lanes:y*row+xhi*lanes], chans[(y*s+fy-g.padH)*g.w+xlo*s+fx-g.padW:], xhi-xlo, hw, s, min(lanes, g.c-c0))
				}
			}
		}
	}
}

// packPhaseRow copies n pixels of one phase-plane row, len(d)/n (1 or 4)
// channels interleaved: pixel x of channel r is src[r·hw + x·s], and
// channels from mb on are zero.
func packPhaseRow(d, src []float64, n, hw, s, mb int) {
	switch {
	case len(d) == n && s == 1:
		copy(d, src[:n])
	case len(d) == n:
		for x := range d {
			d[x] = src[x*s]
		}
	case s == 1:
		packARows64(d, src, hw, 0, mb, 0, n)
	case mb == 4:
		a0, a1, a2, a3 := src, src[hw:], src[2*hw:], src[3*hw:]
		for x := 0; x < n; x++ {
			q, xs := (*[4]float64)(d[x*4:]), x*s
			q[0], q[1], q[2], q[3] = a0[xs], a1[xs], a2[xs], a3[xs]
		}
	default:
		for i := range d {
			d[i] = 0
			if i%4 < mb {
				d[i] = src[i%4*hw+i/4*s]
			}
		}
	}
}

// packConvPixels64 packs the forward B panel of one image from its phase
// planes xp: dst[p*8+j] = cols[pix0+j][p] = xp[offs[p] + lane j's output
// pixel in a plane], zero past the last pixel. Panels within one output
// row are read in place instead.
func packConvPixels64(dst, xp []float64, offs []int, g *convGeom, pix0 int) {
	wq := g.wq()
	var org [8]int
	wv := min(8, g.p()-pix0)
	for j, oy, ox := 0, pix0/g.ow, pix0%g.ow; j < wv; j++ {
		org[j] = oy*wq + ox
		if ox++; ox == g.ow {
			oy, ox = oy+1, 0
		}
	}
	for p, off := range offs {
		d := (*[8]float64)(dst[p*8:])
		src := xp[off:]
		for j := 0; j < wv; j++ {
			d[j] = src[org[j]]
		}
		clear(d[wv:])
	}
}

// packConvGrad64 packs dout (N, OutC, P) as the filter-gradient B operand:
// 8-channel panels over all N·P pixels, dst[jc·N·P + q*8 + j] =
// dout[b][jc+j][pix] with q = b·P+pix, zero-padded past OutC.
func packConvGrad64(dst, dout []float64, n, outC, p int) {
	np := n * p
	for jc := 0; jc < outC; jc += 8 {
		panel := dst[jc*np:][:np*8]
		w8 := min(8, outC-jc)
		j := 0
		for ; j+4 <= w8; j += 4 {
			for b := 0; b < n; b++ {
				src := dout[(b*outC+jc+j)*p:][:4*p]
				a0, a1, a2, a3 := src[:p], src[p:2*p], src[2*p:3*p], src[3*p:]
				d := panel[b*p*8+j:]
				for pix, v0 := range a0 {
					q := (*[4]float64)(d[pix*8:])
					q[0], q[1], q[2], q[3] = v0, a1[pix], a2[pix], a3[pix]
				}
			}
		}
		for ; j < 8; j++ {
			for q := 0; q < np; q++ {
				panel[q*8+j] = 0
				if j < w8 {
					panel[q*8+j] = dout[(q/p*outC+jc+j)*p+q%p]
				}
			}
		}
	}
}

// intView reuses a packing-scratch buffer for ints, which are no wider
// than a float64 on every target.
func intView(s []float64) []int {
	return unsafe.Slice((*int)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}
