package tensor

import "math"

// Portable fallbacks for the SIMD kernels. math.FMA is exactly rounded
// (the software path included), so these produce bit-identical results
// to the AVX2 assembly on any architecture — the property the
// cross-check tests pin.

// gemm4x8FMA is the strided 4×8 micro-kernel's mirror (gemm4x8Asm).
func gemm4x8FMA(k int, a []float64, ars, aps int, b []float64, bps int, c []float64, ldc int) {
	for r := 0; r < 4; r++ {
		crow := c[r*ldc : r*ldc+8]
		for j := 0; j < 8; j++ {
			acc := crow[j]
			for p := 0; p < k; p++ {
				acc = math.FMA(a[r*ars+p*aps], b[p*bps+j], acc)
			}
			crow[j] = acc
		}
	}
}

func conv4x8Go(ap, xp []float64, c, kh, kw, plane, wp int, tile *[32]float64) {
	for r := 0; r < 4; r++ {
		for j := 0; j < 8; j++ {
			acc, p := 0.0, 0
			for ch := 0; ch < c; ch++ {
				for ky := 0; ky < kh; ky++ {
					for kx := 0; kx < kw; kx++ {
						acc = math.FMA(ap[p*4+r], xp[ch*plane+ky*wp+kx+j], acc)
						p++
					}
				}
			}
			tile[r*8+j] = acc
		}
	}
}

func gemm4x8AddGo(k int, ap, bp, c []float64, off, ldc, jlo, jhi int) {
	for r := 0; r < 4; r++ {
		for j := jlo; j < jhi; j++ {
			acc := 0.0
			for p := 0; p < k; p++ {
				acc = math.FMA(ap[p*4+r], bp[p*8+j], acc)
			}
			c[off+r*ldc+j] += acc
		}
	}
}

func axpyFMAGo(alpha float64, x, y []float64) {
	if len(x) < len(y) {
		panic("tensor: axpy length mismatch")
	}
	for i := range y {
		y[i] = math.FMA(alpha, x[i], y[i])
	}
}

// Scalar references for the vector-op layer (vec.go). Unlike the FMA
// kernels above, these are plain one-rounding-per-operation loops: the
// AVX2 versions execute the same IEEE operation per element, so scalar
// and vector results are bit-identical by construction (including NaN
// propagation and signed zeros — see the VMAXPD/VCMPPD notes in
// vec_amd64.s).

func vecAddGo(dst, a, b []float64) {
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

func vecMulGo(dst, a, b []float64) {
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

// vecMaxGo is the max-combine update: b wins only on a strict >, so NaN
// and equal-magnitude ties keep a — the semantics mpi.OpMax has always
// had (`if src > dst { dst = src }`).
func vecMaxGo(dst, a, b []float64) {
	for i := range dst {
		av, bv := a[i], b[i]
		if bv > av {
			dst[i] = bv
		} else {
			dst[i] = av
		}
	}
}

func vecMinGo(dst, a, b []float64) {
	for i := range dst {
		av, bv := a[i], b[i]
		if bv < av {
			dst[i] = bv
		} else {
			dst[i] = av
		}
	}
}

func vecScaleGo(dst, a []float64, s float64) {
	for i := range dst {
		dst[i] = a[i] * s
	}
}

// vecAxpyPlainGo is y += alpha*x with two roundings (multiply, then
// add) — deliberately NOT math.FMA, so it matches the historical scalar
// Tensor.Axpy loop bit for bit.
func vecAxpyPlainGo(alpha float64, x, y []float64) {
	for i := range y {
		y[i] += float64(alpha * x[i])
	}
}

// vecReLUGo keeps the scalar rectifier's exact branch on the gate: where
// gate[i] <= 0 it writes a literal +0 (so -0 maps to +0), anywhere else —
// a NaN gate included — a[i] passes through. The rectifier is gate = a.
func vecReLUGo(dst, gate, a []float64) {
	for i := range dst {
		dst[i] = keepIf(a[i], !(gate[i] <= 0))
	}
}

// keepIf returns v when keep is set and a literal +0 otherwise, without
// branching (the compiler turns the if into a conditional move):
// activation signs are close to coin flips, and a mispredicted branch per
// element costs more than the select.
func keepIf(v float64, keep bool) float64 {
	var bits uint64
	if keep {
		bits = ^uint64(0)
	}
	return math.Float64frombits(math.Float64bits(v) & bits)
}

// maxGT returns v when v > best and best otherwise — the max-pool fold's
// "replace only when strictly greater" rule, so NaN and ±0 ties keep
// best. It selects the bits through an integer mask, which the compiler
// turns into a conditional move rather than a branch.
func maxGT(best, v float64) float64 {
	var m uint64
	if v > best {
		m = ^uint64(0)
	}
	b := math.Float64bits(best)
	return math.Float64frombits(b ^ (b^math.Float64bits(v))&m)
}
