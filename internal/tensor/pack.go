package tensor

import (
	"math/bits"
	"sync"
)

// Panel packing for the blocked matmul (kernel.go). B column strips are
// packed once per (kc×nc) block into 8-wide p-major panels and shared by
// every row chunk; each chunk packs its own 4-row A panel. Packing is
// pure data movement (plus float32→float64 widening on the float32
// storage path), so it never changes results — the micro-kernel still
// accumulates each output element in ascending p order.
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

// float32 variants: identical layouts, widening on the fly so the same
// float64 micro-kernel serves float32 storage with float64 accumulation.

func packBRows32(dst []float64, b []float32, ldb, p0, kb, j0, nb int) {
	panels := (nb + 7) / 8
	for j8 := 0; j8 < panels; j8++ {
		jc := j0 + j8*8
		w := nb - j8*8
		if w > 8 {
			w = 8
		}
		out := dst[j8*kb*8 : (j8+1)*kb*8]
		for p := 0; p < kb; p++ {
			src := b[(p0+p)*ldb+jc : (p0+p)*ldb+jc+w]
			d := out[p*8 : p*8+8]
			for x, v := range src {
				d[x] = float64(v)
			}
			for x := w; x < 8; x++ {
				d[x] = 0
			}
		}
	}
}

func packBCols32(dst []float64, b []float32, ldb, p0, kb, j0, nb int) {
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
				out[p*8+x] = float64(v)
			}
		}
	}
}

func packARows32(dst []float64, a []float32, lda, i0, mb, p0, kb int) {
	for r := 0; r < 4; r++ {
		if r >= mb {
			for p := 0; p < kb; p++ {
				dst[p*4+r] = 0
			}
			continue
		}
		src := a[(i0+r)*lda+p0 : (i0+r)*lda+p0+kb]
		for p, v := range src {
			dst[p*4+r] = float64(v)
		}
	}
}

func packACols32(dst []float64, a []float32, lda, i0, mb, p0, kb int) {
	for p := 0; p < kb; p++ {
		src := a[(p0+p)*lda+i0 : (p0+p)*lda+i0+mb]
		d := dst[p*4 : p*4+4]
		for r, v := range src {
			d[r] = float64(v)
		}
		for r := mb; r < 4; r++ {
			d[r] = 0
		}
	}
}
