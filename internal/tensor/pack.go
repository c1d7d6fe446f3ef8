package tensor

import (
	"math/bits"
	"sync"
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

// Convolution packers (conv.go): the gathers that stand in for the im2col
// matrix cols (N·P × K). They are data movement only — padding cells
// become the same explicit zeros Im2ColInto writes — so the micro-kernel
// sees exactly the panels the lowering would have packed out of cols.

// padConvPlanes64 copies planes (h×w) of src to (hp×wp) planes of dst with
// the image at row padH, column padW and zeros around it.
func padConvPlanes64(dst, src []float64, planes int, g convGeom) {
	hp, wp := g.hp(), g.wp()
	for pl := 0; pl < planes; pl++ {
		d := dst[pl*hp*wp : (pl+1)*hp*wp]
		clear(d[:g.padH*wp])
		for y := 0; y < g.h; y++ {
			row := d[(g.padH+y)*wp:][:wp]
			clear(row[:g.padW])
			copy(row[g.padW:g.padW+g.w], src[(pl*g.h+y)*g.w:])
			clear(row[g.padW+g.w:])
		}
		clear(d[(g.padH+g.h)*wp:])
	}
}

// packConvPixels64 packs the forward B panel of one image, given as its
// zero-bordered planes xp (C × hp × wp): dst[p*8+j] = cols[pix0+j][p] for
// the K rows p = (c, ky, kx), zero past the last pixel. The border makes
// every tap an in-range read, so an entry is lane j's window origin plus
// one offset per (c, ky, kx). This is the gather for strided, partial and
// row-straddling panels; the others need no packing (conv4x8).
func packConvPixels64(dst, xp []float64, g *convGeom, pix0 int) {
	s, wp := g.stride, g.wp()
	plane := g.hp() * wp
	var org [8]int // window origin of each lane within a bordered plane
	wv := min(8, g.p()-pix0)
	for j, oy, ox := 0, pix0/g.ow, pix0%g.ow; j < wv; j++ {
		org[j] = (oy*wp + ox) * s
		if ox++; ox == g.ow {
			oy, ox = oy+1, 0
		}
	}
	di := 0
	for ch := 0; ch < g.c; ch++ {
		for ky := 0; ky < g.kh; ky++ {
			for kx := 0; kx < g.kw; kx++ {
				d := (*[8]float64)(dst[di:])
				di += 8
				src := xp[ch*plane+ky*wp+kx:]
				for j := 0; j < wv; j++ {
					d[j] = src[org[j]]
				}
				clear(d[wv:])
			}
		}
	}
}

// packConvInput64 packs the input batch as the filter-gradient A operand:
// zero-bordered (hp×wp) planes with four channels interleaved per pixel,
// dst[((b·cBlocks+cb)·hp·wp + y·wp + x)*4 + r] = img[b][cb*4+r][y-padH][x-padW],
// zero in the border and for channels past C. In this layout the A panel
// of channels cb*4..cb*4+3 at tap (ky, kx) over output row oy is the
// contiguous run starting at pixel (oy·stride+ky, kx) — cols is never
// transposed element by element.
func packConvInput64(dst, img []float64, g convGeom) {
	hp, wp, hw := g.hp(), g.wp(), g.h*g.w
	cBlocks := (g.c + 3) / 4
	if hp != g.h || wp != g.w {
		clear(dst[:g.n*cBlocks*hp*wp*4]) // the border
	}
	for b := 0; b < g.n; b++ {
		for cb := 0; cb < cBlocks; cb++ {
			d := dst[(b*cBlocks+cb)*hp*wp*4:][:hp*wp*4]
			src := img[(b*g.c+cb*4)*hw:]
			for y := 0; y < g.h; y++ {
				packARows64(d[((y+g.padH)*wp+g.padW)*4:], src[y*g.w:], hw, 0, min(4, g.c-cb*4), 0, g.w)
			}
		}
	}
}

// packConvGrad64 packs dout (N, OutC, P) as the filter-gradient B operand
// — 8-channel panels over all N·P pixels, dst[jc·N·P + q*8 + j] =
// dout[b][jc+j][pix] with q = b·P+pix, zero-padded past OutC — and, when
// db is not nil, adds each channel's sum into db[oc]. A sum runs from +0
// over ascending (image, pixel) with plain adds before it meets db, the
// order SumAxis0Into takes over the lowered matrix; four channels go at
// a time so the four dependent add chains overlap.
func packConvGrad64(dst, db, dout []float64, n, outC, p int) {
	np := n * p
	for jc := 0; jc < outC; jc += 8 {
		panel := dst[jc*np:][:np*8]
		w8 := min(8, outC-jc)
		j := 0
		for ; j+4 <= w8; j += 4 {
			var s0, s1, s2, s3 float64
			for b := 0; b < n; b++ {
				src := dout[(b*outC+jc+j)*p:][:4*p]
				a0, a1, a2, a3 := src[:p], src[p:2*p], src[2*p:3*p], src[3*p:]
				d := panel[b*p*8+j:]
				for pix, v0 := range a0 {
					v1, v2, v3 := a1[pix], a2[pix], a3[pix]
					q := (*[4]float64)(d[pix*8:])
					q[0], q[1], q[2], q[3] = v0, v1, v2, v3
					s0, s1, s2, s3 = s0+v0, s1+v1, s2+v2, s3+v3
				}
			}
			if db != nil {
				db[jc+j] += s0
				db[jc+j+1] += s1
				db[jc+j+2] += s2
				db[jc+j+3] += s3
			}
		}
		for ; j < w8; j++ {
			sum := 0.0
			for b := 0; b < n; b++ {
				d := panel[b*p*8+j:]
				for pix, v := range dout[(b*outC+jc+j)*p:][:p] {
					d[pix*8] = v
					sum += v
				}
			}
			if db != nil {
				db[jc+j] += sum
			}
		}
		for ; j < 8; j++ {
			for q := 0; q < np; q++ {
				panel[q*8+j] = 0
			}
		}
	}
}
