package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// Property tests for the SIMD vector-op layer: every op must be bitwise
// identical to its scalar reference across remainder lengths (the
// loop8/tail4/tail1 edges), special values (NaN, ±Inf, ±0, denormals),
// the asm-vs-Go useAVX flip, and — for the parallelized entry points —
// any worker count.

// vecLens hits every combination of loop8/tail4/tail1 residues plus
// sizes large enough to parallelize at grain 1024.
var vecLens = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 15, 16, 17,
	23, 31, 32, 33, 63, 64, 100, 255, 1024, 4097, 10000}

// fillSpecial fills x with a mix of normal draws and special values, at
// deterministic but varied positions.
func fillSpecial(rng *rand.Rand, x []float64) {
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), 0, 5e-324, -5e-324, 1.5, -1.5,
	}
	for i := range x {
		if rng.Intn(4) == 0 {
			x[i] = specials[rng.Intn(len(specials))]
		} else {
			x[i] = rng.NormFloat64()
		}
	}
}

func bitsEq(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// bitsEqNaN is bitsEq except that any NaN matches any NaN. The
// arithmetic ops (add/mul/scale/axpy/sum) are compared with this: when
// BOTH operands of an IEEE add/mul are NaN the hardware propagates the
// first source's payload, and the Go compiler does not pin operand order
// for `+`/`*` across separately compiled functions — so NaN payload
// identity between two scalar spellings of the same loop is not a
// property even without SIMD. NaN-ness itself (and every non-NaN bit
// pattern, including ±0 and ±Inf) must still match exactly. The
// branch-based ops (max/min/relu) never do NaN arithmetic and are held
// to full bitwise identity.
func bitsEqNaN(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) &&
			!(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return i, false
		}
	}
	return 0, true
}

// scalar references, written as the historical loops (not calls into the
// vec layer) so the test does not depend on what it verifies.
func refAdd(dst, a, b []float64) {
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

func refMul(dst, a, b []float64) {
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

func refMax(dst, a, b []float64) {
	for i := range dst {
		if b[i] > a[i] {
			dst[i] = b[i]
		} else {
			dst[i] = a[i]
		}
	}
}

func refMin(dst, a, b []float64) {
	for i := range dst {
		if b[i] < a[i] {
			dst[i] = b[i]
		} else {
			dst[i] = a[i]
		}
	}
}

func refScale(dst, a []float64, s float64) {
	for i := range dst {
		dst[i] = a[i] * s
	}
}

func refAxpy(dst []float64, alpha float64, x []float64) {
	for i := range dst {
		dst[i] += alpha * x[i]
	}
}

func refReLU(dst, a []float64) {
	for i, v := range a {
		if v <= 0 {
			dst[i] = 0
		} else {
			dst[i] = v
		}
	}
}

// forEachSIMDMode runs fn under both useAVX settings (the flip is a no-op
// off amd64 or on hosts without AVX2, where useAVX is already false).
func forEachSIMDMode(t *testing.T, fn func(t *testing.T)) {
	orig := useAVX
	t.Cleanup(func() { useAVX = orig })
	for _, avx := range []bool{orig, false} {
		useAVX = avx
		t.Run(map[bool]string{true: "avx", false: "go"}[avx], fn)
	}
	useAVX = orig
}

func TestVecOpsBitwiseVsScalar(t *testing.T) {
	w, g := Workers(), loadCfg().grain
	t.Cleanup(func() { Configure(WithWorkers(w), WithGrain(g)) })
	Configure(WithWorkers(4), WithGrain(1024))

	forEachSIMDMode(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for _, n := range vecLens {
			a := make([]float64, n)
			b := make([]float64, n)
			fillSpecial(rng, a)
			fillSpecial(rng, b)
			got, want := make([]float64, n), make([]float64, n)

			type binCase struct {
				name string
				vec  func(dst, a, b []float64)
				ref  func(dst, a, b []float64)
				cmp  func(a, b []float64) (int, bool)
			}
			for _, tc := range []binCase{
				{"VecAddInto", VecAddInto, refAdd, bitsEqNaN},
				{"VecMulInto", VecMulInto, refMul, bitsEqNaN},
				{"VecMaxInto", VecMaxInto, refMax, bitsEq},
				{"VecMinInto", VecMinInto, refMin, bitsEq},
			} {
				tc.vec(got, a, b)
				tc.ref(want, a, b)
				if i, ok := tc.cmp(got, want); !ok {
					t.Fatalf("%s n=%d differs at %d: got %x want %x (a=%v b=%v)",
						tc.name, n, i, math.Float64bits(got[i]), math.Float64bits(want[i]), a[i], b[i])
				}
				// Aliased forms: dst==a and dst==b.
				ga := append([]float64(nil), a...)
				tc.vec(ga, ga, b)
				if i, ok := tc.cmp(ga, want); !ok {
					t.Fatalf("%s n=%d dst==a differs at %d", tc.name, n, i)
				}
				gb := append([]float64(nil), b...)
				tc.vec(gb, a, gb)
				if i, ok := tc.cmp(gb, want); !ok {
					t.Fatalf("%s n=%d dst==b differs at %d", tc.name, n, i)
				}
			}

			for _, s := range []float64{0.25, -1.5, 0, math.NaN()} {
				VecScaleInto(got, a, s)
				refScale(want, a, s)
				if i, ok := bitsEqNaN(got, want); !ok {
					t.Fatalf("VecScaleInto n=%d s=%v differs at %d", n, s, i)
				}
			}

			for _, alpha := range []float64{0.3, -2.25, math.Inf(1)} {
				copy(got, b)
				copy(want, b)
				AxpyInto(got, alpha, a)
				refAxpy(want, alpha, a)
				if i, ok := bitsEqNaN(got, want); !ok {
					t.Fatalf("AxpyInto n=%d alpha=%v differs at %d: got %x want %x",
						n, alpha, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}

			VecReLUSlice(got, a)
			refReLU(want, a)
			if i, ok := bitsEq(got, want); !ok {
				t.Fatalf("relu n=%d differs at %d: a=%v got %v want %v", n, i, a[i], got[i], want[i])
			}
		}
	})
}

// VecReLUSlice adapts the internal slice relu kernel for the test (the
// exported ReLUInto takes tensors).
func VecReLUSlice(dst, a []float64) {
	if len(a) < len(dst) {
		panic("tensor: VecReLUSlice input shorter than dst")
	}
	vecReLU(dst, a[:len(dst)])
}

// TestVecOpsWorkerInvariance pins that the parallelized vector ops return
// bit-identical results at every worker count — the property the mpi
// collectives' bitwise-equivalence guarantees inherit.
func TestVecOpsWorkerInvariance(t *testing.T) {
	w, g := Workers(), loadCfg().grain
	t.Cleanup(func() { Configure(WithWorkers(w), WithGrain(g)) })

	rng := rand.New(rand.NewSource(11))
	const n = 50000
	a := make([]float64, n)
	b := make([]float64, n)
	fillSpecial(rng, a)
	fillSpecial(rng, b)

	type result struct{ add, mul, max, scale, axpy, sigmoid []float64 }
	run := func(workers int) result {
		Configure(WithWorkers(workers), WithGrain(1024))
		r := result{
			add: make([]float64, n), mul: make([]float64, n), max: make([]float64, n),
			scale: make([]float64, n), axpy: make([]float64, n), sigmoid: make([]float64, n),
		}
		VecAddInto(r.add, a, b)
		VecMulInto(r.mul, a, b)
		VecMaxInto(r.max, a, b)
		VecScaleInto(r.scale, a, 0.125)
		copy(r.axpy, b)
		AxpyInto(r.axpy, -0.75, a)
		at := New(n)
		copy(at.Data(), a)
		st := New(n)
		SigmoidInto(st, at)
		copy(r.sigmoid, st.Data())
		return r
	}

	base := run(1)
	for _, workers := range []int{2, 3, 8} {
		got := run(workers)
		for name, pair := range map[string][2][]float64{
			"add": {base.add, got.add}, "mul": {base.mul, got.mul},
			"max": {base.max, got.max}, "scale": {base.scale, got.scale},
			"axpy": {base.axpy, got.axpy}, "sigmoid": {base.sigmoid, got.sigmoid},
		} {
			if i, ok := bitsEq(pair[0], pair[1]); !ok {
				t.Fatalf("%s differs between 1 and %d workers at %d", name, workers, i)
			}
		}
	}
}

// TestSGDStepMatchesThreePass pins the fused SGD update against the
// three-sweep sequence it replaced (scale, add, decay axpy, step axpy),
// bit for bit on w and v under bitsEqNaN: across loop-remainder lengths
// and one long enough to split, special values in w, v and g, momentum on
// and off, decay on and off, a zero learning rate (where the decay term is
// −0·w), worker counts 1, 2, 3 and 8, and both SIMD modes of the
// reference.
func TestSGDStepMatchesThreePass(t *testing.T) {
	w0, g0 := Workers(), loadCfg().grain
	t.Cleanup(func() { Configure(WithWorkers(w0), WithGrain(g0)) })

	forEachSIMDMode(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(17))
		for _, workers := range []int{1, 2, 3, 8} {
			Configure(WithWorkers(workers), WithGrain(1024))
			for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 9, 31, 33, 100003} {
				w, v, g := make([]float64, n), make([]float64, n), make([]float64, n)
				fillSpecial(rng, w)
				fillSpecial(rng, v)
				fillSpecial(rng, g)
				for _, mu := range []float64{0, 0.9} {
					for _, wd := range []float64{0, 1e-4} {
						for _, lr := range []float64{0.05, 0} {
							gotW, gotV := append([]float64(nil), w...), append([]float64(nil), v...)
							wantW, wantV := append([]float64(nil), w...), append([]float64(nil), v...)
							SGDStep(gotW, gotV, g, mu, wd, lr)
							dir := g
							if mu > 0 {
								VecScaleInto(wantV, wantV, mu)
								VecAddInto(wantV, wantV, g)
								dir = wantV
							}
							if wd > 0 {
								AxpyInto(wantW, -lr*wd, wantW)
							}
							AxpyInto(wantW, -lr, dir)
							for name, pair := range map[string][2][]float64{"w": {gotW, wantW}, "v": {gotV, wantV}} {
								if i, ok := bitsEqNaN(pair[0], pair[1]); !ok {
									t.Fatalf("workers=%d n=%d mu=%v wd=%v lr=%v: %s[%d] = %x, three-pass %x",
										workers, n, mu, wd, lr, name, i,
										math.Float64bits(pair[0][i]), math.Float64bits(pair[1][i]))
								}
							}
						}
					}
				}
			}
		}
	})
}

// TestActivationIntoMatchesApply pins the direct activation kernels
// against ApplyInto over the scalar definitions.
func TestActivationIntoMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 7, 64, 1000} {
		a := Randn(rng, 1, n)
		// Poison a few entries with specials.
		fillSpecial(rand.New(rand.NewSource(int64(n))), a.Data()[:n/2+1])

		gotS, wantS := New(n), New(n)
		SigmoidInto(gotS, a)
		ApplyInto(wantS, a, Sigmoid)
		if !bitEqual64(gotS, wantS) {
			t.Fatalf("SigmoidInto n=%d differs from ApplyInto", n)
		}

		gotT, wantT := New(n), New(n)
		TanhInto(gotT, a)
		ApplyInto(wantT, a, Tanh)
		if !bitEqual64(gotT, wantT) {
			t.Fatalf("TanhInto n=%d differs from ApplyInto", n)
		}

		gotR, wantR := New(n), New(n)
		ReLUInto(gotR, a)
		ApplyInto(wantR, a, func(v float64) float64 {
			if v <= 0 {
				return 0
			}
			return v
		})
		if !bitEqual64(gotR, wantR) {
			t.Fatalf("ReLUInto n=%d differs from scalar branch", n)
		}
	}
}
