package tensor

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// transcSpecials is the special input set of the transcendental tests:
// ±0, ±Inf, NaN, and each edge the scalar code or the kernels branch on
// (the exp fast range's 2⁻²⁸ and 708, exp's overflow and underflow
// thresholds, tanh's 0.625 and ½·log(2¹²⁷)) with both neighbours, in
// both signs, plus inputs whose exp or sigmoid is subnormal.
var transcSpecials = func() []float64 {
	xs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	for _, b := range []float64{0x1p-28, 708, expOverflow, -expUnderflow, 0.625, tanhBig,
		709, 710, 720, 740, 745, 1, 5e-324, 1e-300} {
		for _, v := range []float64{b, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1))} {
			xs = append(xs, v, -v)
		}
	}
	return xs
}()

// transcFuncs pairs each vector kernel with its scalar definition.
var transcFuncs = []struct {
	name   string
	vec    func(dst, a []float64)
	scalar func(float64) float64
}{
	{"Sigmoid", vecSigmoid, Sigmoid},
	{"Tanh", vecTanh, Tanh},
}

func checkTranscVsScalar(t *testing.T, x []float64) {
	t.Helper()
	got := make([]float64, len(x))
	for _, f := range transcFuncs {
		f.vec(got, x)
		for i, v := range x {
			if want := f.scalar(v); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("%s kernel at [%d] of %d: f(%v) = %v (%#x), scalar %v (%#x)",
					f.name, i, len(x), v, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
			}
		}
	}
}

// TestExpSigmoidTanhKernelsVsScalar pins the AVX2 sigmoid and tanh
// kernels, and through them the shared exp core, bit for bit against
// Sigmoid and Tanh, with the assembly on and off: every length 0–11 and 1000 at four offsets, with specials
// placed so that groups leave the fast range at each lane and the kernel
// resumes after them; the special set alone; in place; and 2²⁰ seeded
// inputs over [−760, 760], in runs of 16 drawn from [−760, 760], [−20, 20]
// or [−1, 1] (where whole groups of tanh skip the exp branch).
func TestExpSigmoidTanhKernelsVsScalar(t *testing.T) {
	forEachSIMDMode(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(61))
		x := make([]float64, 1<<20)
		for i := range x {
			x[i] = []float64{1520, 40, 2}[i/16%3] * (rng.Float64() - 0.5)
		}
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1000} {
			for off := range 4 {
				seg := append([]float64(nil), x[off:off+n]...)
				for i := off; i < n; i += 5 + off {
					seg[i] = transcSpecials[rng.Intn(len(transcSpecials))]
				}
				checkTranscVsScalar(t, seg)
			}
		}
		checkTranscVsScalar(t, transcSpecials)
		for _, f := range transcFuncs {
			in := append([]float64(nil), transcSpecials...)
			f.vec(in, in)
			for i, v := range transcSpecials {
				if math.Float64bits(in[i]) != math.Float64bits(f.scalar(v)) {
					t.Fatalf("%s in place differs at %v", f.name, v)
				}
			}
		}
		for i := range x {
			if rng.Intn(64) == 0 {
				x[i] = transcSpecials[rng.Intn(len(transcSpecials))]
			}
		}
		checkTranscVsScalar(t, x)
	})
}

// The math/big reference: e^x to refPrec bits as 2^k·(e^(r/2¹⁰))^(2¹⁰)
// with x = k·ln2 + r, the inner exponential a degree-16 Taylor
// polynomial (truncation below 2⁻²⁴⁰ for |r| ≤ ½·ln2).
const refPrec = 192

func newRef() *big.Float { return new(big.Float).SetPrec(refPrec) }

var refLn2, refInvFact = func() (*big.Float, [17]*big.Float) {
	// ln2 = 2·atanh(1/3) = 2·Σ 3^-(2i+1)/(2i+1), at twice refPrec.
	ln2, pow, ninth := new(big.Float).SetPrec(2*refPrec), new(big.Float).SetPrec(2*refPrec), new(big.Float).SetPrec(2*refPrec)
	pow.Quo(big.NewFloat(1).SetPrec(2*refPrec), big.NewFloat(3))
	ninth.Quo(big.NewFloat(1).SetPrec(2*refPrec), big.NewFloat(9))
	for i := 0; i < 130; i++ {
		term := new(big.Float).SetPrec(2*refPrec).Quo(pow, big.NewFloat(float64(2*i+1)))
		ln2.Add(ln2, term)
		pow.Mul(pow, ninth)
	}
	ln2.Mul(ln2, big.NewFloat(2))
	var inv [17]*big.Float
	f := newRef().SetInt64(1)
	for i := range inv {
		if i > 0 {
			f.Mul(f, big.NewFloat(float64(i)))
		}
		inv[i] = newRef().Quo(newRef().SetInt64(1), f)
	}
	return ln2, inv
}()

// refPoly returns Σ_{i≥lo} y^i/i! for i ≤ 16, by Horner.
func refPoly(y *big.Float, lo int) *big.Float {
	p := newRef().Set(refInvFact[16])
	for i := 15; i >= lo; i-- {
		p.Mul(p, y).Add(p, refInvFact[i])
	}
	for range lo {
		p.Mul(p, y)
	}
	return p
}

func refExp(x float64) *big.Float {
	k := math.Round(x / math.Ln2)
	r := newRef().SetFloat64(x)
	r.Sub(r, newRef().Mul(big.NewFloat(k), refLn2))
	p := refPoly(r.SetMantExp(r, -10), 0)
	for range 10 {
		p.Mul(p, p)
	}
	return p.SetMantExp(p, int(k))
}

// refExpm1 returns e^y − 1 without cancellation for small y.
func refExpm1(y float64) *big.Float {
	if math.Abs(y) < 0x1p-10 {
		return refPoly(newRef().SetFloat64(y), 1)
	}
	e := refExp(y)
	return e.Sub(e, newRef().SetInt64(1))
}

func refSigmoid(x float64) *big.Float {
	d := refExp(-x)
	d.Add(d, newRef().SetInt64(1))
	return d.Quo(newRef().SetInt64(1), d)
}

func refTanh(x float64) *big.Float {
	m := refExpm1(2 * math.Abs(x))
	t := newRef().Quo(m, newRef().Add(m, newRef().SetInt64(2)))
	if x < 0 {
		t.Neg(t)
	}
	return t
}

// ulpErr is |got − ref| in units of the last place of the float64
// nearest to ref (2⁻¹⁰⁷⁴ for subnormals).
func ulpErr(got float64, ref *big.Float) float64 {
	if math.IsInf(got, 0) || math.IsNaN(got) {
		return math.Inf(1)
	}
	if ref.Sign() == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	e := max(ref.MantExp(nil)-53, -1074)
	d := newRef().SetFloat64(got)
	d.Sub(d, ref).Abs(d)
	f, _ := d.SetMantExp(d, -e).Float64()
	return f
}

// TestExpSigmoidTanhAccuracy measures Exp, Sigmoid and Tanh against the
// math/big reference on 12 000 deterministic points (a third uniform on
// [−745, 709], a third on [−20, 20], a third of magnitude 2⁻⁴⁰…1) plus
// the finite specials: Exp within 1 ulp, Sigmoid and Tanh within 4.
// Sigmoid is measured where Exp(−x) is finite (x ≥ −709.78); below, its
// true value is subnormal and the definition returns 0. The non-finite
// and overflowing specials are checked exactly.
func TestExpSigmoidTanhAccuracy(t *testing.T) {
	xs := make([]float64, 0, 12000+len(transcSpecials))
	for i := range 4000 {
		u := (float64(i) + 0.5) / 4000
		xs = append(xs, -745+1454*u, -20+40*u, math.Copysign(math.Exp2(-40*u), float64(i%2)-0.5))
	}
	for _, v := range transcSpecials {
		if !math.IsInf(v, 0) && !math.IsNaN(v) {
			xs = append(xs, v)
		}
	}
	var worst [3]float64
	var at [3]float64
	note := func(f int, x, e float64) {
		if e > worst[f] {
			worst[f], at[f] = e, x
		}
	}
	for _, x := range xs {
		if x <= expOverflow {
			note(0, x, ulpErr(Exp(x), refExp(x)))
		} else if !math.IsInf(Exp(x), 1) {
			t.Fatalf("Exp(%v) = %v, want +Inf", x, Exp(x))
		}
		if x >= -expOverflow {
			note(1, x, ulpErr(Sigmoid(x), refSigmoid(x)))
		}
		note(2, x, ulpErr(Tanh(x), refTanh(x)))
	}
	for f, bound := range []float64{1, 4, 4} {
		name := []string{"Exp", "Sigmoid", "Tanh"}[f]
		t.Logf("%s: max error %.3f ulp at %v", name, worst[f], at[f])
		if worst[f] > bound {
			t.Errorf("%s: %.3f ulp at %v, bound %v", name, worst[f], at[f], bound)
		}
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		f       func(float64) float64
		x, want float64
	}{
		{Exp, inf, inf}, {Exp, -inf, 0}, {Exp, nan, nan},
		{Sigmoid, inf, 1}, {Sigmoid, -inf, 0}, {Sigmoid, nan, nan},
		{Tanh, inf, 1}, {Tanh, -inf, -1}, {Tanh, nan, nan},
		{Tanh, math.Copysign(0, -1), math.Copysign(0, -1)}, {Exp, math.Copysign(0, -1), 1},
	} {
		if got := c.f(c.x); math.Float64bits(got) != math.Float64bits(c.want) && !(math.IsNaN(got) && math.IsNaN(c.want)) {
			t.Errorf("f(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

// TestGemmActivationEpilogueSpecials runs the sigmoid and tanh epilogues
// on special pre-activations through the small, packed and small-m paths
// (NN and NT) against refGemm, with the assembly on and off. Every other
// column of b is zero, so there the pre-activation is exactly the bias,
// which cycles through the special set.
func TestGemmActivationEpilogueSpecials(t *testing.T) {
	forEachSIMDMode(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(62))
		for _, s := range [][3]int{{3, 5, 9}, {40, 64, 56}, {5, 600, 45}} {
			m, k, n := s[0], s[1], s[2]
			a, b, bt := randn2(rng, m, k), randn2(rng, k, n), randn2(rng, n, k)
			bias := New(n)
			for j := 0; j < n; j += 2 {
				bias.data[j] = transcSpecials[(j/2+m)%len(transcSpecials)]
				for p := 0; p < k; p++ {
					b.data[p*n+j], bt.data[j*k+p] = 0, 0
				}
			}
			for _, ep := range []Epilogue{EpSigmoid, EpTanh} {
				for _, c := range []struct {
					kind gemmKind
					b    *Tensor
				}{{gemmNN, b}, {gemmNT, bt}} {
					got, want := New(m, n), New(m, n)
					gemmEx(c.kind, got, a, c.b, bias, ep, false)
					refGemm(c.kind, want, a, c.b, bias, ep, false)
					if !bitEqual64(got, want) {
						t.Fatalf("kind %d ep%d %dx%dx%d differs from reference", c.kind, ep, m, k, n)
					}
				}
			}
		}
	})
}

// BenchmarkActivationKernels times the sigmoid and tanh kernels on a GRU
// gate row (64 values in [−4, 4]), per element, against the scalar
// definitions they mirror.
func BenchmarkActivationKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(63))
	x, dst := make([]float64, 64), make([]float64, 64)
	for i := range x {
		x[i] = 8*rng.Float64() - 4
	}
	for _, f := range transcFuncs {
		b.Run(f.name+"/kernel", func(b *testing.B) {
			for range b.N {
				f.vec(dst, x)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(x)), "ns/elem")
		})
		b.Run(f.name+"/scalar", func(b *testing.B) {
			for range b.N {
				for i, v := range x {
					dst[i] = f.scalar(v)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(x)), "ns/elem")
		})
	}
}
