package tensor

// The shared SIMD vector-op layer: flat []float64 kernels used by the
// tensor elementwise ops and, through mpi.ReduceOp, by every collective's
// combine phase. Each op has one slice-level entry point that dispatches
// to AVX2 assembly when the host supports it (useAVX, simd_amd64.go) and
// to a pure-Go loop otherwise, parallelized through the Jobs.For runtime
// above the grain threshold.
//
// Bitwise contract: vectorization never changes results. The elementwise
// ops perform exactly the per-index operations of their scalar loops (one
// IEEE add/mul/compare per element, in the same operand order), so the
// assembly, the Go fallback, and any worker count produce bit-identical
// outputs — the property the mpi collectives' equivalence guarantees
// rest on, pinned by the property tests in vec_test.go.
//
// dst may alias an input exactly (dst == a or dst == b); partial overlap
// is undefined. Inputs may be longer than dst; extra elements are
// ignored, which lets mpi combine a received chunk into a window of the
// accumulator without reslicing.

// vecCost is the approximate scalar-op cost per index of the arithmetic
// vector ops (shared with the ewRange elementwise kernels).
const vecCost = 1

// checkVec2 panics unless a and b cover dst, returning them clipped to
// dst's length.
func checkVec2(op string, dst, a, b []float64) ([]float64, []float64) {
	if len(a) < len(dst) || len(b) < len(dst) {
		panic("tensor: " + op + " input shorter than dst")
	}
	return a[:len(dst)], b[:len(dst)]
}

// vecArgs carries a slice-level vector op and its operands through the
// pool; the range functions below apply the op to one chunk.
type vecArgs struct {
	dst, a, b []float64
	s         float64
	bin       func(dst, a, b []float64)
	un        func(dst, a []float64)
}

var vecJobs Jobs[vecArgs]

func binRange(v vecArgs, lo, hi int)   { v.bin(v.dst[lo:hi], v.a[lo:hi], v.b[lo:hi]) }
func unRange(v vecArgs, lo, hi int)    { v.un(v.dst[lo:hi], v.a[lo:hi]) }
func scaleRange(v vecArgs, lo, hi int) { vecScale(v.dst[lo:hi], v.a[lo:hi], v.s) }
func axpyRange(v vecArgs, lo, hi int)  { vecAxpyPlain(v.s, v.a[lo:hi], v.dst[lo:hi]) }

// VecAddInto sets dst[i] = a[i] + b[i]. dst may alias a or b.
func VecAddInto(dst, a, b []float64) {
	a, b = checkVec2("VecAddInto", dst, a, b)
	vecJobs.For(len(dst), vecCost, vecArgs{dst: dst, a: a, b: b, bin: vecAdd}, binRange)
}

// VecMulInto sets dst[i] = a[i] * b[i]. dst may alias a or b.
func VecMulInto(dst, a, b []float64) {
	a, b = checkVec2("VecMulInto", dst, a, b)
	vecJobs.For(len(dst), vecCost, vecArgs{dst: dst, a: a, b: b, bin: vecMul}, binRange)
}

// VecMaxInto sets dst[i] = b[i] if b[i] > a[i], else a[i] — exactly the
// `if src > dst { dst = src }` update of a max-reduction combine, so NaNs
// and signed zeros in a win ties. dst may alias a or b.
func VecMaxInto(dst, a, b []float64) {
	a, b = checkVec2("VecMaxInto", dst, a, b)
	vecJobs.For(len(dst), vecCost, vecArgs{dst: dst, a: a, b: b, bin: vecMax}, binRange)
}

// VecMinInto sets dst[i] = b[i] if b[i] < a[i], else a[i] (the min-combine
// mirror of VecMaxInto). dst may alias a or b.
func VecMinInto(dst, a, b []float64) {
	a, b = checkVec2("VecMinInto", dst, a, b)
	vecJobs.For(len(dst), vecCost, vecArgs{dst: dst, a: a, b: b, bin: vecMin}, binRange)
}

// VecScaleInto sets dst[i] = a[i] * s. dst may alias a.
func VecScaleInto(dst, a []float64, s float64) {
	if len(a) < len(dst) {
		panic("tensor: VecScaleInto input shorter than dst")
	}
	vecJobs.For(len(dst), vecCost, vecArgs{dst: dst, a: a[:len(dst)], s: s}, scaleRange)
}

// AxpyInto performs dst[i] += alpha * x[i] with a separately rounded
// multiply and add (NOT fused), matching the scalar `dst += alpha*x` loop
// bit for bit. The matmul kernels use the exactly-rounded FMA chain
// instead; this op exists for the optimizer/gradient update idiom.
func AxpyInto(dst []float64, alpha float64, x []float64) {
	if len(x) < len(dst) {
		panic("tensor: AxpyInto input shorter than dst")
	}
	vecJobs.For(len(dst), vecCost*2, vecArgs{dst: dst, a: x[:len(dst)], s: alpha}, axpyRange)
}

// sgdArgs carries one parameter's fused SGD update through the pool.
type sgdArgs struct {
	w, v, g           []float64
	mu, decay, negLR  float64
	momentum, decayed bool
}

var sgdJobs Jobs[sgdArgs]

// SGDStep applies one SGD update to the parameter w in a single pass, with
// per element exactly the separately rounded operations, in the order, of
// the three-sweep sequence VecScaleInto(v, v, momentum); VecAddInto(v, v,
// g); AxpyInto(w, −lr·wd, w); AxpyInto(w, −lr, v):
//
//	v = v·momentum; v = v + g        (when momentum > 0; else v is unused
//	                                  and g is the step direction)
//	w = w + (−lr·wd)·w                (when wd > 0, −lr·wd formed once)
//	w = w + (−lr)·v                   (or ·g without momentum)
//
// so its results are bit-identical to that sequence at any worker count,
// under the vec layer's NaN rule: where both operands of an add are NaN,
// which payload survives is the compiler's operand order, so only
// NaN-ness is pinned there. The explicit float64 conversions forbid
// fusing a multiply and an add.
func SGDStep(w, v, g []float64, momentum, wd, lr float64) {
	if len(g) < len(w) || momentum > 0 && len(v) < len(w) {
		panic("tensor: SGDStep input shorter than w")
	}
	a := sgdArgs{w: w, v: v, g: g, mu: momentum, decay: -lr * wd, negLR: -lr,
		momentum: momentum > 0, decayed: wd > 0}
	sgdJobs.For(len(w), 4*vecCost, a, sgdRange)
}

func sgdRange(a sgdArgs, lo, hi int) {
	w, g := a.w[lo:hi], a.g[lo:hi]
	g = g[:len(w)]
	decayed, decay, negLR := a.decayed, a.decay, a.negLR
	if !a.momentum {
		for i := range w {
			if decayed {
				w[i] += float64(decay * w[i])
			}
			w[i] += float64(negLR * g[i])
		}
		return
	}
	v, mu := a.v[lo:hi], a.mu
	v = v[:len(w)]
	for i := range w {
		d := float64(v[i]*mu) + g[i]
		v[i] = d
		if decayed {
			w[i] += float64(decay * w[i])
		}
		w[i] += float64(negLR * d)
	}
}

// activationCost mirrors ApplyInto's parallelization threshold for
// function-call-heavy elementwise loops.
const activationCost = 16

// SigmoidInto sets out = Sigmoid(a) elementwise, bit-identical to
// ApplyInto with Sigmoid: its AVX2 kernel (exp.go) performs the scalar
// operations exactly, four lanes at a time. out may alias a.
func SigmoidInto(out, a *Tensor) *Tensor {
	checkSame("SigmoidInto", out, a)
	vecJobs.For(len(out.data), activationCost, vecArgs{dst: out.data, a: a.data, un: vecSigmoid}, unRange)
	return out
}

// TanhInto sets out = Tanh(a) elementwise, bit-identical to ApplyInto
// with Tanh, through the same kind of kernel. out may alias a.
func TanhInto(out, a *Tensor) *Tensor {
	checkSame("TanhInto", out, a)
	vecJobs.For(len(out.data), activationCost, vecArgs{dst: out.data, a: a.data, un: vecTanh}, unRange)
	return out
}

// ReLUInto sets out[i] = a[i] unless a[i] <= 0, in which case +0 — the
// exact branch semantics of the scalar rectifier (NaN passes through,
// -0 maps to +0), vectorized as a compare+mask. out may alias a.
func ReLUInto(out, a *Tensor) *Tensor {
	checkSame("ReLUInto", out, a)
	vecJobs.For(len(out.data), vecCost, vecArgs{dst: out.data, a: a.data, un: vecReLU}, unRange)
	return out
}
