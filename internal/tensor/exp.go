package tensor

import "math"

// The repository's own transcendentals. math.Exp is different code on
// each port (amd64 assembly with an FMA branch, arm64 assembly, pure Go
// elsewhere), so its bits depend on where it runs. Exp below is Go's
// portable math/exp.go algorithm — Cody–Waite reduction x = k·ln2 + r,
// the P1–P5 rational approximation, then y·2^k — and Tanh is
// math/tanh.go's three branches over it. Every product that feeds an
// add or subtract is wrapped in a float64 conversion, which the Go spec
// says forbids fusing it into an FMA, so each operation rounds once on
// every architecture and the results are bitwise portable.
//
// The AVX2 kernels (vec_amd64.s) run exactly these operations on four
// lanes, never FMA. Sigmoid handles groups of four whose inputs all lie
// in |x| ∈ [2⁻²⁸, 708], where the reduction's k keeps y·2^k a normal
// number; at the first group that leaves that range the kernel returns,
// and vecSigmoid runs the group through the scalar code and resumes. Tanh computes its branches on every lane and blends them,
// skipping the exp branch in a group with no lane at |x| >= 0.625.

const (
	expLn2Hi     = 6.93147180369123816490e-01
	expLn2Lo     = 1.90821492927058770002e-10
	expLog2e     = 1.44269504088896338700e+00
	expOverflow  = 7.09782712893383973096e+02
	expUnderflow = -7.45133219101941108420e+02
	expNearZero  = 1.0 / (1 << 28)

	expP1 = 1.66666666666666657415e-01
	expP2 = -2.77777777770155933842e-03
	expP3 = 6.61375632143793436117e-05
	expP4 = -1.65339022054652515390e-06
	expP5 = 4.13813679705723846039e-08

	tanhBig = 0.5 * 8.8029691931113054295988e+01 // ½·log(2¹²⁷)
	tanhP0  = -9.64399179425052238628e-1
	tanhP1  = -9.92877231001918586564e1
	tanhP2  = -1.61468768441708447952e3
	tanhQ0  = 1.12811678491632931402e2
	tanhQ1  = 2.23548839060100448583e3
	tanhQ2  = 4.84406305325125486048e3
)

// Exp returns e**x with math.Exp's special cases: Exp(+Inf) = +Inf,
// Exp(-Inf) = 0, Exp(NaN) = NaN; very large values overflow to +Inf and
// very small ones to 0. The error is below 1 ulp.
func Exp(x float64) float64 {
	switch {
	case x != x:
		return x
	case x > expOverflow:
		return math.Inf(1)
	case x < expUnderflow:
		return 0
	case -expNearZero < x && x < expNearZero:
		return 1 + x
	}
	k := int(float64(expLog2e*x) + math.Copysign(0.5, x))
	kf := float64(k)
	hi := x - float64(kf*expLn2Hi)
	lo := float64(kf * expLn2Lo)
	r := hi - lo
	t := r * r
	c := r - float64(t*(expP1+float64(t*(expP2+float64(t*(expP3+float64(t*(expP4+float64(t*expP5)))))))))
	y := 1 - ((lo - r*c/(2-c)) - hi)
	return math.Ldexp(y, k)
}

// Sigmoid returns 1/(1+Exp(-x)).
func Sigmoid(x float64) float64 { return 1 / (1 + Exp(-x)) }

// Tanh returns the hyperbolic tangent of x, with Tanh(±0) = ±0,
// Tanh(±Inf) = ±1 and Tanh(NaN) = NaN.
func Tanh(x float64) float64 {
	z := math.Abs(x)
	switch {
	case z > tanhBig:
		return math.Copysign(1, x)
	case z >= 0.625:
		s := Exp(2 * z)
		return math.Copysign(1-2/(s+1), x)
	case x == 0:
		return x
	}
	s := float64(x * x)
	num := float64(float64(float64(tanhP0*s)+tanhP1)*s) + tanhP2
	den := float64(float64(float64((s+tanhQ0)*s)+tanhQ1)*s) + tanhQ2
	return x + x*s*num/den
}

// vecSigmoid sets dst[i] = Sigmoid(a[i]) and vecTanh dst[i] = Tanh(a[i]).
// dst may alias a.
func vecSigmoid(dst, a []float64) {
	for len(dst) > 0 {
		i, n := sigmoidKernel(dst, a), len(dst)
		if useAVX {
			n = min(i+4, n) // the group that left the fast range
		}
		for j := i; j < n; j++ {
			dst[j] = Sigmoid(a[j])
		}
		dst, a = dst[n:], a[n:]
	}
}

func vecTanh(dst, a []float64) {
	for i := tanhKernel(dst, a); i < len(dst); i++ {
		dst[i] = Tanh(a[i])
	}
}
