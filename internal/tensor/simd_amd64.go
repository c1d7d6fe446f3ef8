//go:build amd64

package tensor

import "os"

//go:noescape
func gemm4x8Asm(k int, a *float64, ars, aps int, b *float64, bps int, c *float64, ldc int)

//go:noescape
func conv4x8AVX(ap, xp *float64, c, kh, kw, plane, wp int, tile *float64)

//go:noescape
func convStoreAVX(dst *float64, p int, tile, ep *float64, mode int)

//go:noescape
func gemm4x8AddAVX(k int, ap, bp, c *float64, off, ldc int, mask *int64)

//go:noescape
func axpyAVX(alpha float64, x, y *float64, n int)

//go:noescape
func pool2x2AVX(dst, src *float64, oh, ow, w int)

//go:noescape
func vecAddAVX(dst, a, b *float64, n int)

//go:noescape
func vecMulAVX(dst, a, b *float64, n int)

//go:noescape
func vecMaxAVX(dst, a, b *float64, n int)

//go:noescape
func vecMinAVX(dst, a, b *float64, n int)

//go:noescape
func vecScaleAVX(dst, a *float64, s float64, n int)

//go:noescape
func vecAxpyPlainAVX(alpha float64, x, y *float64, n int)

//go:noescape
func vecReLUAVX(dst, gate, a *float64, n int)

//go:noescape
func chanSums4AVX(s *[8]float64, a, b *float64, m *[4]float64, n, stride, hw int)

//go:noescape
func bnNormAVX(out, xhat, x, mean, inv, gamma, beta *float64, n, c, hw int)

//go:noescape
func bnBackAVX(din, dy, xhat, gamma, inv, sumDy, sumDyXhat *float64, cnt float64, n, c, hw int)

//go:noescape
func sigmoidAVX(dst, a *float64, n int) int

//go:noescape
func tanhAVX(dst, a *float64, n int)

func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbvAsm() (eax, edx uint32)

// useAVX gates the assembly kernels on AVX2+FMA with OS-enabled YMM
// state. Tests flip it to cross-check the assembly against the portable
// math.FMA fallbacks bit for bit; setting MSA_NO_AVX=1 forces the
// pure-Go path for a whole process (CI runs the collective race suite
// both ways).
var useAVX = os.Getenv("MSA_NO_AVX") == "" && detectAVX2FMA()

func detectAVX2FMA() bool {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuidAsm(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if c1&fmaBit == 0 || c1&osxsaveBit == 0 || c1&avxBit == 0 {
		return false
	}
	if xlo, _ := xgetbvAsm(); xlo&0x6 != 0x6 { // XMM+YMM state enabled
		return false
	}
	_, b7, _, _ := cpuidAsm(7, 0)
	return b7&(1<<5) != 0 // AVX2
}

// gemm4x8 accumulates a 4×8 C tile (row stride ldc) over k steps:
// c[r*ldc+j] += Σ_p a[r*ars+p*aps] · b[p*bps+j]. Packed panels pass
// (ars, aps, bps) = (1, 4, 8); see kernel.go for the in-place strides.
func gemm4x8(k int, a []float64, ars, aps int, b []float64, bps int, c []float64, ldc int) {
	if useAVX {
		last := max(k-1, 0)
		_, _, _ = a[3*ars+last*aps], b[last*bps+7], c[3*ldc+7]
		gemm4x8Asm(k, &a[0], ars, aps, &b[0], bps, &c[0], ldc)
		return
	}
	gemm4x8FMA(k, a, ars, aps, b, bps, c, ldc)
}

// conv4x8 overwrites tile (row stride 8) with the zero-seeded 4×8 product
// of the packed panel ap and a B panel read in place from bordered input
// planes: row p = (ch, ky, kx) of B is xp[ch*plane+ky*wp+kx ..+8), for
// ch < c, ky < kh, kx < kw in ascending p.
func conv4x8(ap, xp []float64, c, kh, kw, plane, wp int, tile *[32]float64) {
	if useAVX {
		_, _ = ap[c*kh*kw*4-1], xp[(c-1)*plane+(kh-1)*wp+kw+6]
		conv4x8AVX(&ap[0], &xp[0], c, kh, kw, plane, wp, &tile[0])
		return
	}
	conv4x8Go(ap, xp, c, kh, kw, plane, wp, tile)
}

// convStore stores a finished conv tile through the epilogue
// (convStoreGo); the AVX2 kernel takes whole 4×8 tiles.
func convStore(dst []float64, p int, tile *[32]float64, ep *[20]float64, mode, rows, wv int) {
	if useAVX && rows == 4 && wv == 8 {
		_ = dst[3*p+7]
		convStoreAVX(&dst[0], p, &tile[0], &ep[0], mode)
		return
	}
	convStoreGo(dst, p, tile, ep, mode, rows, wv)
}

// gemm4x8Add adds the zero-seeded 4×8 product of the packed panels ap and
// bp (k steps) to c: lane j of row r joins c[off+r*ldc+j] for jlo <= j <
// jhi; the other lanes are dropped, and off+r*ldc+j may lie outside c for
// them.
func gemm4x8Add(k int, ap, bp, c []float64, off, ldc, jlo, jhi int) {
	if useAVX {
		_, _, _, _ = ap[k*4-1], bp[k*8-1], c[off+jlo], c[off+3*ldc+jhi-1]
		gemm4x8AddAVX(k, &ap[0], &bp[0], &c[0], off, ldc, &laneMasks[jlo][jhi][0])
		return
	}
	gemm4x8AddGo(k, ap, bp, c, off, ldc, jlo, jhi)
}

// laneMasks[jlo][jhi] is the VMASKMOVPD mask selecting lanes [jlo,jhi).
var laneMasks = func() (m [9][9][8]int64) {
	for jlo := range m {
		for jhi := range m[jlo] {
			for j := jlo; j < jhi; j++ {
				m[jlo][jhi][j] = -1
			}
		}
	}
	return
}()

// axpyFMA performs y[i] = fma(alpha, x[i], y[i]) elementwise.
func axpyFMA(alpha float64, x, y []float64) {
	if len(y) == 0 {
		return
	}
	if useAVX {
		axpyAVX(alpha, &x[0], &y[0], len(y))
		return
	}
	axpyFMAGo(alpha, x, y)
}

// pool2x2 writes the 2×2, stride-2 max pool of one input plane (row
// length w) into dst, oh rows of ow values: dst[oy*ow+ox] folds the taps
// at rows 2oy, 2oy+1 and columns 2ox, 2ox+1 in maxPoolPlane's order,
// which pool2x2AVX keeps bit for bit.
func pool2x2(dst, src []float64, oh, ow, w int) {
	if useAVX && oh > 0 && ow > 0 {
		_, _ = dst[oh*ow-1], src[(2*oh-1)*w+2*ow-1]
		pool2x2AVX(&dst[0], &src[0], oh, ow, w)
		return
	}
	maxPoolPlane(dst, src, w, ow, 2, 2)
}

// Slice-level dispatchers for the vector-op layer. Callers (vec.go)
// guarantee len(a), len(b) >= len(dst).

func vecAdd(dst, a, b []float64) {
	if len(dst) == 0 {
		return
	}
	if useAVX {
		vecAddAVX(&dst[0], &a[0], &b[0], len(dst))
		return
	}
	vecAddGo(dst, a, b)
}

func vecMul(dst, a, b []float64) {
	if len(dst) == 0 {
		return
	}
	if useAVX {
		vecMulAVX(&dst[0], &a[0], &b[0], len(dst))
		return
	}
	vecMulGo(dst, a, b)
}

func vecMax(dst, a, b []float64) {
	if len(dst) == 0 {
		return
	}
	if useAVX {
		vecMaxAVX(&dst[0], &a[0], &b[0], len(dst))
		return
	}
	vecMaxGo(dst, a, b)
}

func vecMin(dst, a, b []float64) {
	if len(dst) == 0 {
		return
	}
	if useAVX {
		vecMinAVX(&dst[0], &a[0], &b[0], len(dst))
		return
	}
	vecMinGo(dst, a, b)
}

func vecScale(dst, a []float64, s float64) {
	if len(dst) == 0 {
		return
	}
	if useAVX {
		vecScaleAVX(&dst[0], &a[0], s, len(dst))
		return
	}
	vecScaleGo(dst, a, s)
}

func vecAxpyPlain(alpha float64, x, y []float64) {
	if len(y) == 0 {
		return
	}
	if useAVX {
		vecAxpyPlainAVX(alpha, &x[0], &y[0], len(y))
		return
	}
	vecAxpyPlainGo(alpha, x, y)
}

func vecReLU(dst, gate, a []float64) {
	if len(dst) == 0 {
		return
	}
	if useAVX {
		vecReLUAVX(&dst[0], &gate[0], &a[0], len(dst))
		return
	}
	vecReLUGo(dst, gate, a)
}

// chanSums4 runs chanSumsGo's chains for k channels; the AVX2 kernel
// takes whole groups of four.
func chanSums4(s *[8]float64, a, b []float64, m *[4]float64, k, n, stride, hw int) {
	if !useAVX || k < 4 || n == 0 || hw == 0 {
		chanSumsGo(s, a, b, m, k, n, stride, hw)
		return
	}
	last := (n-1)*stride + 4*hw - 1
	_ = a[last]
	var bp *float64
	if b != nil {
		_ = b[last]
		bp = &b[0]
	}
	chanSums4AVX(s, &a[0], bp, m, n, stride, hw)
}

// bnNorm and bnBack run the element passes (bn.go) for n, c, hw >= 1.
func bnNorm(out, xhat, x, mean, inv, gamma, beta []float64, n, c, hw int) {
	if !useAVX {
		bnNormGo(out, xhat, x, mean, inv, gamma, beta, n, c, hw)
		return
	}
	last := n*c*hw - 1
	_, _, _, _, _, _ = out[last], x[last], mean[c-1], inv[c-1], gamma[c-1], beta[c-1]
	var xh *float64
	if xhat != nil {
		_ = xhat[last]
		xh = &xhat[0]
	}
	bnNormAVX(&out[0], xh, &x[0], &mean[0], &inv[0], &gamma[0], &beta[0], n, c, hw)
}

func bnBack(din, dy, xhat, gamma, inv, sumDy, sumDyXhat []float64, cnt float64, n, c, hw int) {
	if !useAVX {
		bnBackGo(din, dy, xhat, gamma, inv, sumDy, sumDyXhat, cnt, n, c, hw)
		return
	}
	last := n*c*hw - 1
	_, _, _ = din[last], dy[last], xhat[last]
	_, _, _, _ = gamma[c-1], inv[c-1], sumDy[c-1], sumDyXhat[c-1]
	bnBackAVX(&din[0], &dy[0], &xhat[0], &gamma[0], &inv[0], &sumDy[0], &sumDyXhat[0], cnt, n, c, hw)
}

// sigmoidKernel runs Sigmoid over the leading groups of four whose inputs
// all lie in the kernel's fast range and returns how many elements it
// wrote: a multiple of 4, stopping at the first group that needs the
// scalar code (exp.go) or at the tail.
func sigmoidKernel(dst, a []float64) int {
	if !useAVX || len(dst) < 4 {
		return 0
	}
	return sigmoidAVX(&dst[0], &a[0], len(dst))
}

// tanhKernel runs Tanh over the leading len(dst)&^3 elements and returns
// that count.
func tanhKernel(dst, a []float64) int {
	n := len(dst) &^ 3
	if !useAVX || n == 0 {
		return 0
	}
	tanhAVX(&dst[0], &a[0], n)
	return n
}
