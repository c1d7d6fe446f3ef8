//go:build !amd64

package tensor

// useAVX is false off amd64; the portable math.FMA kernels (exactly
// rounded everywhere, with a software fallback where the hardware lacks
// FMA) keep results bit-identical across architectures.
var useAVX = false

func gemm4x8(k int, a []float64, ars, aps int, b []float64, bps int, c []float64, ldc int) {
	gemm4x8FMA(k, a, ars, aps, b, bps, c, ldc)
}

func conv4x8(ap, xp []float64, c, kh, kw, plane, wp int, tile *[32]float64) {
	conv4x8Go(ap, xp, c, kh, kw, plane, wp, tile)
}

func convStore(dst []float64, p int, tile *[32]float64, ep *[20]float64, mode, rows, wv int) {
	convStoreGo(dst, p, tile, ep, mode, rows, wv)
}

func conv4x8Taps(ap, xp []float64, offs []int, tile *[32]float64) {
	conv4x8TapsGo(ap, xp, offs[:len(offs)-1], tile)
}

func gemm4x8Rows(k, rows int, a []float64, arow int, b, c []float64, ldc int) {
	gemm4x8RowsGo(k, rows, a, arow, b, c, ldc)
}

func convGather(ap, dout []float64, taps []int, outC, p int, dst []float64, ldd int) {
	convGatherGo(ap, dout, taps, outC, p, dst, ldd)
}

func axpyFMA(alpha float64, x, y []float64) {
	axpyFMAGo(alpha, x, y)
}

func vecAdd(dst, a, b []float64)                 { vecAddGo(dst, a, b) }
func vecMul(dst, a, b []float64)                 { vecMulGo(dst, a, b) }
func vecMax(dst, a, b []float64)                 { vecMaxGo(dst, a, b) }
func vecMin(dst, a, b []float64)                 { vecMinGo(dst, a, b) }
func vecScale(dst, a []float64, s float64)       { vecScaleGo(dst, a, s) }
func vecAxpyPlain(alpha float64, x, y []float64) { vecAxpyPlainGo(alpha, x, y) }
func vecReLU(dst, gate, a []float64)             { vecReLUGo(dst, gate, a) }
func pool2x2(dst, src []float64, oh, ow, w int)  { maxPoolPlane(dst, src, w, ow, 2, 2) }
func sigmoidKernel(dst, a []float64) int         { return 0 }
func tanhKernel(dst, a []float64) int            { return 0 }

func chanSums4(s *[8]float64, a, b []float64, m *[4]float64, k, n, stride, hw int) {
	chanSumsGo(s, a, b, m, k, n, stride, hw)
}

func bnNorm(out, xhat, x, mean, inv, gamma, beta []float64, n, c, hw int) {
	bnNormGo(out, xhat, x, mean, inv, gamma, beta, n, c, hw)
}

func bnBack(din, dy, xhat, gamma, inv, sumDy, sumDyXhat []float64, cnt float64, n, c, hw int) {
	bnBackGo(din, dy, xhat, gamma, inv, sumDy, sumDyXhat, cnt, n, c, hw)
}
