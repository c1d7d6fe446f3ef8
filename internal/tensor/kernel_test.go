package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"testing"
)

// bitEqual64 reports whether two float64 tensors are bitwise identical
// (NaN == NaN, +0 != -0).
func bitEqual64(a, b *Tensor) bool {
	ad, bd := a.Data(), b.Data()
	if len(ad) != len(bd) {
		return false
	}
	for i := range ad {
		if math.Float64bits(ad[i]) != math.Float64bits(bd[i]) {
			return false
		}
	}
	return true
}

// kernelShapes covers tile remainders (4-row and 8-col micro-kernel
// edges), odd primes, degenerate dims, and sizes on both sides of the
// packed-path threshold (2·m·n·k ≷ packMinFlops).
var kernelShapes = [][3]int{
	{1, 1, 1}, {1, 7, 1}, {3, 5, 9}, {4, 8, 8}, {5, 9, 17},
	{7, 13, 11}, {8, 16, 24}, {16, 31, 33}, {33, 17, 65},
	{40, 64, 56}, {64, 64, 64}, {65, 67, 63}, {96, 70, 90},
	{128, 33, 129},
}

func randn2(rng *rand.Rand, r, c int) *Tensor { return Randn(rng, 1, r, c) }

func TestGemmBitwiseVsRef(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, s := range kernelShapes {
		m, k, n := s[0], s[1], s[2]
		a := randn2(rng, m, k)
		b := randn2(rng, k, n)
		bt := randn2(rng, n, k)
		at := randn2(rng, k, m)

		got, want := New(m, n), New(m, n)
		MatMulInto(got, a, b)
		RefMatMulInto(want, a, b)
		if !bitEqual64(got, want) {
			t.Fatalf("MatMulInto %dx%dx%d differs from reference", m, k, n)
		}
		MatMulTInto(got, a, bt)
		RefMatMulTInto(want, a, bt)
		if !bitEqual64(got, want) {
			t.Fatalf("MatMulTInto %dx%dx%d differs from reference", m, k, n)
		}
		TMatMulInto(got, at, b)
		RefTMatMulInto(want, at, b)
		if !bitEqual64(got, want) {
			t.Fatalf("TMatMulInto %dx%dx%d differs from reference", m, k, n)
		}
	}
}

func TestGemmFusedVariantsVsRef(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	eps := []Epilogue{EpNone, EpSigmoid, EpTanh}
	for _, s := range kernelShapes {
		m, k, n := s[0], s[1], s[2]
		a := randn2(rng, m, k)
		b := randn2(rng, k, n)
		bias := randn2(rng, 1, n)
		seed := randn2(rng, m, n)
		for _, ep := range eps {
			got, want := seed.Clone(), seed.Clone()
			gemmEx(gemmNN, got, a, b, bias, ep, true)
			refGemm(gemmNN, want, a, b, bias, ep, true)
			if !bitEqual64(got, want) {
				t.Fatalf("acc+bias+ep%d %dx%dx%d differs from reference", ep, m, k, n)
			}
			got.Zero()
			MatMulAccBiasActInto(got, a, b, bias, ep)
			refGemm(gemmNN, want, a, b, bias, ep, false)
			if !bitEqual64(got, want) {
				t.Fatalf("MatMulAccBiasActInto on zeros ep%d %dx%dx%d differs from reference", ep, m, k, n)
			}
		}
		// Accumulating transpose variants (the backward-pass workhorses).
		bt := randn2(rng, n, k)
		at := randn2(rng, k, m)
		got, want := seed.Clone(), seed.Clone()
		MatMulTAccInto(got, a, bt)
		refGemm(gemmNT, want, a, bt, nil, EpNone, true)
		if !bitEqual64(got, want) {
			t.Fatalf("MatMulTAccInto %dx%dx%d differs from reference", m, k, n)
		}
		TMatMulAccInto(got, at, b)
		refGemm(gemmTN, want, at, b, nil, EpNone, true)
		if !bitEqual64(got, want) {
			t.Fatalf("TMatMulAccInto %dx%dx%d differs from reference", m, k, n)
		}
	}
}

// TestGemmNaNInfPropagation pins the regression fixed in this PR: the old
// kernels skipped a==0 terms, so a zero in A silently swallowed a NaN or
// Inf in B. IEEE 0·NaN = NaN and 0·Inf = NaN must reach the output.
func TestGemmNaNInfPropagation(t *testing.T) {
	for _, mk := range [][3]int{{3, 5, 4}, {33, 65, 40}} {
		m, k, n := mk[0], mk[1], mk[2]
		rng := rand.New(rand.NewSource(7))
		a := randn2(rng, m, k)
		for i := 0; i < m; i++ { // zero column hitting the poisoned B row

			a.Set(0, i, k-1)
		}
		for _, poison := range []float64{math.NaN(), math.Inf(1)} {
			b := randn2(rng, k, n)
			for j := 0; j < n; j++ {
				b.Set(poison, k-1, j)
			}
			out := New(m, n)
			MatMulInto(out, a, b)
			for _, v := range out.Data() {
				if !math.IsNaN(v) {
					t.Fatalf("0*%v must poison the output (got %v); zero-skip bug is back", poison, v)
				}
			}
			// Transposed variants share gemmEx, but the NT/TN small paths
			// are separate kernels: pin them too.
			btr := New(n, k)
			for j := 0; j < n; j++ {
				for p := 0; p < k; p++ {
					btr.Set(b.At(p, j), j, p)
				}
			}
			MatMulTInto(out, a, btr)
			if !math.IsNaN(out.At(0, 0)) {
				t.Fatalf("MatMulT lost 0*%v poisoning", poison)
			}
			atr := New(k, m)
			for i := 0; i < m; i++ {
				for p := 0; p < k; p++ {
					atr.Set(a.At(i, p), p, i)
				}
			}
			TMatMulInto(out, atr, b)
			if !math.IsNaN(out.At(0, 0)) {
				t.Fatalf("TMatMul lost 0*%v poisoning", poison)
			}
		}
	}
}

// TestGemmWorkerInvariance pins that results do not depend on the worker
// count or grain: the parallel split changes which goroutine computes a
// row range, never the per-element FMA chain.
func TestGemmWorkerInvariance(t *testing.T) {
	w, g := Workers(), loadCfg().grain
	t.Cleanup(func() { Configure(WithWorkers(w), WithGrain(g)) })
	rng := rand.New(rand.NewSource(45))
	a := randn2(rng, 65, 67)
	b := randn2(rng, 67, 63)
	bias := randn2(rng, 1, 63)

	Configure(WithWorkers(1))
	serial := New(65, 63)
	MatMulAccBiasActInto(serial, a, b, bias, EpTanh)
	for _, workers := range []int{2, 3, 4, 8} {
		Configure(WithWorkers(workers), WithGrain(1024))
		got := New(65, 63)
		MatMulAccBiasActInto(got, a, b, bias, EpTanh)
		if !bitEqual64(got, serial) {
			t.Fatalf("workers=%d changes matmul bits", workers)
		}
	}
}

// TestGemmAsmVsGo cross-checks the assembly micro-kernels against the
// portable math.FMA fallbacks bit for bit. On hosts without AVX2+FMA (or
// off amd64) both runs take the Go path and the test is vacuous but
// harmless.
func TestGemmAsmVsGo(t *testing.T) {
	orig := useAVX
	t.Cleanup(func() { useAVX = orig })
	rng := rand.New(rand.NewSource(46))
	for _, s := range [][3]int{{33, 65, 40}, {64, 64, 64}, {5, 9, 17}} {
		m, k, n := s[0], s[1], s[2]
		a := randn2(rng, m, k)
		b := randn2(rng, k, n)
		useAVX = orig
		fast := New(m, n)
		MatMulInto(fast, a, b)
		useAVX = false
		slow := New(m, n)
		MatMulInto(slow, a, b)
		if !bitEqual64(fast, slow) {
			t.Fatalf("asm and Go kernels disagree at %dx%dx%d", m, k, n)
		}
	}
}

// TestSerialEntryPointsVsRef: the slice-level serial entry points follow
// the same contract as the Tensor-level family — on both sides of the
// packed-path threshold, with the worker pool available (which they must
// ignore) and on the pure-Go kernels.
func TestSerialEntryPointsVsRef(t *testing.T) {
	resetConfigAfter(t)
	Configure(WithWorkers(4), WithGrain(1024))
	orig := useAVX
	t.Cleanup(func() { useAVX = orig })
	rng := rand.New(rand.NewSource(47))
	for _, avx := range []bool{orig, false} {
		useAVX = avx
		for _, s := range kernelShapes {
			m, k, n := s[0], s[1], s[2]
			a := randn2(rng, m, k)
			b := randn2(rng, k, n)
			bt := randn2(rng, n, k)
			bias := randn2(rng, 1, n)
			seed := randn2(rng, m, n)
			for _, ep := range []Epilogue{EpNone, EpSigmoid, EpTanh} {
				got, want := seed.Clone(), seed.Clone()
				MatMulAccBiasActSerial(got.data, a.data, b.data, bias.data, m, k, n, ep)
				refGemm(gemmNN, want, a, b, bias, ep, true)
				if !bitEqual64(got, want) {
					t.Fatalf("MatMulAccBiasActSerial ep%d %dx%dx%d differs from reference", ep, m, k, n)
				}
			}
			at := randn2(rng, k, m)
			got, want := seed.Clone(), seed.Clone()
			TMatMulAccSerial(got.data, at.data, b.data, m, k, n)
			refGemm(gemmTN, want, at, b, nil, EpNone, true)
			if !bitEqual64(got, want) {
				t.Fatalf("TMatMulAccSerial %dx%dx%d differs from reference", m, k, n)
			}
			for _, acc := range []bool{false, true} {
				got, want := seed.Clone(), seed.Clone()
				MatMulTSerial(got.data, a.data, bt.data, m, k, n, acc)
				refGemm(gemmNT, want, a, bt, nil, EpNone, acc)
				if !bitEqual64(got, want) {
					t.Fatalf("MatMulTSerial acc=%v %dx%dx%d differs from reference", acc, m, k, n)
				}
			}
		}
	}
}

// TestGemmSmallMVsRef sweeps the small-m path against the scalar
// reference bit for bit, entering at gemmPacked64 so every shape takes the
// route the packed-size threshold would give it: m across smallM (1…9, 9
// being the packed path), k across the kc edge, and n with ragged 8- and
// 4-column edges beside whole ones, for NN and NT. Accumulation, bias and
// the three epilogues rotate independently over the shapes, so every
// (epilogue, accumulation) pair comes up; seeds carry NaN, ±Inf and −0;
// worker counts 1/2/3/8 rotate too, each with the assembly on and off.
func TestGemmSmallMVsRef(t *testing.T) {
	resetConfigAfter(t)
	orig := useAVX
	t.Cleanup(func() { useAVX = orig })
	rng := rand.New(rand.NewSource(52))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	workers := []int{1, 2, 3, 8}
	idx := 0
	for m := 1; m <= smallM+1; m++ {
		for _, k := range []int{1, 511, 512, 513, 1100} {
			for _, n := range []int{5, 12, 29, 40} {
				for _, kind := range []gemmKind{gemmNN, gemmNT} {
					idx++
					ep := Epilogue(idx / 3 % 3)
					acc := idx%3 != 0
					a := randn2(rng, m, k)
					b := randn2(rng, k, n)
					if kind == gemmNT {
						b = randn2(rng, n, k)
					}
					var bias *Tensor
					var bd []float64
					if idx%2 == 0 {
						bias = randn2(rng, 1, n)
						bd = bias.data
					}
					seed := randn2(rng, m, n)
					for i, v := range specials {
						seed.data[(idx+i*7)%(m*n)] = v
					}
					want := seed.Clone()
					refGemm(kind, want, a, b, bias, ep, acc)
					Configure(WithWorkers(workers[idx%len(workers)]), WithGrain(1024))
					for _, avx := range []bool{orig, false} {
						useAVX = avx
						got := seed.Clone()
						if !acc {
							got.Zero()
						}
						gemmPacked64(gemmArgs{kind: kind, ep: ep, od: got.data, ad: a.data, bd: b.data, bias: bd, m: m, k: k, n: n}, true)
						if !bitEqual64(got, want) {
							t.Fatalf("kind %d m=%d k=%d n=%d ep%d acc=%v bias=%v avx=%v workers=%d differs from reference",
								kind, m, k, n, ep, acc, bias != nil, avx, Workers())
						}
					}
				}
			}
		}
	}
	// The three GEMMs of a gradsync-ddp Dense layer, through the public
	// entry points (the TN weight gradient keeps the packed path).
	useAVX = orig
	x, w, bias := randn2(rng, 8, 1024), randn2(rng, 1024, 640), randn2(rng, 1, 640)
	dy, gw := randn2(rng, 8, 640), randn2(rng, 1024, 640)
	y, yRef := New(8, 640), New(8, 640)
	MatMulBiasInto(y, x, w, bias)
	refGemm(gemmNN, yRef, x, w, bias, EpNone, false)
	dx, dxRef := New(8, 1024), New(8, 1024)
	MatMulTInto(dx, dy, w)
	refGemm(gemmNT, dxRef, dy, w, nil, EpNone, false)
	gwRef := gw.Clone()
	TMatMulAccInto(gw, x, dy)
	refGemm(gemmTN, gwRef, x, dy, nil, EpNone, true)
	if !bitEqual64(y, yRef) || !bitEqual64(dx, dxRef) || !bitEqual64(gw, gwRef) {
		t.Fatal("Dense-layer GEMMs at batch 8 differ from the reference")
	}
}

// TestGemmSmallMNoAVXProcess re-runs the small-m sweep in a child process
// started with MSA_NO_AVX=1, the switch a host without AVX2 takes at
// start-up.
func TestGemmSmallMNoAVXProcess(t *testing.T) {
	if os.Getenv("MSA_NO_AVX") != "" {
		t.Skip("already running with MSA_NO_AVX set")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestGemmSmallMVsRef$")
	cmd.Env = append(os.Environ(), "MSA_NO_AVX=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("small-m sweep with MSA_NO_AVX=1: %v\n%s", err, out)
	}
}

// TestGemmSmallMAllocsSteadyState: the small-m path's packing buffer
// comes from the scratch pool and its tiles live on the stack, so a
// batch-8 Dense layer's GEMMs, whole and ragged, allocate nothing once
// warm, serially and split over workers.
func TestGemmSmallMAllocsSteadyState(t *testing.T) {
	resetConfigAfter(t)
	rng := rand.New(rand.NewSource(53))
	x, w, bias, dy := randn2(rng, 8, 1024), randn2(rng, 1024, 640), randn2(rng, 1, 640), randn2(rng, 8, 640)
	y, dx := New(8, 640), New(8, 1024)
	ra, rb, rbt, rout := randn2(rng, 5, 600), randn2(rng, 600, 45), randn2(rng, 45, 600), New(5, 45)
	cases := []struct {
		name string
		f    func()
	}{
		{"NN+bias", func() { MatMulBiasInto(y, x, w, bias) }},
		{"NT", func() { MatMulTInto(dx, dy, w) }},
		{"ragged NN", func() { rout.Zero(); MatMulAccBiasActInto(rout, ra, rb, nil, EpTanh) }},
		{"ragged NT", func() { MatMulTAccInto(rout, ra, rbt) }},
	}
	for _, workers := range []int{1, 4} {
		Configure(WithWorkers(workers), WithGrain(1024))
		for _, c := range cases {
			for range 5 {
				c.f()
			}
			if allocs := testing.AllocsPerRun(20, c.f); allocs != 0 {
				t.Errorf("%s at %d workers allocates %.1f/call in steady state, want 0", c.name, workers, allocs)
			}
		}
	}
}

// BenchmarkDenseSmallBatch times the three GEMMs of one gradsync-ddp Dense
// layer (1024→640 at batch 8): the forward 8×1024·1024×640 with bias
// (NN), the input gradient dY·Wᵀ (NT) and the weight gradient Xᵀ·dY
// accumulated into W's gradient (TN).
func BenchmarkDenseSmallBatch(b *testing.B) {
	const m, k, n = 8, 1024, 640
	rng := rand.New(rand.NewSource(3))
	x, w, bias, dy := randn2(rng, m, k), randn2(rng, k, n), randn2(rng, 1, n), randn2(rng, m, n)
	y, dx, gw := New(m, n), New(m, k), New(k, n)
	cases := []struct {
		name string
		f    func()
	}{
		{"fwd-NN", func() { MatMulBiasInto(y, x, w, bias) }},
		{"dX-NT", func() { MatMulTInto(dx, dy, w) }},
		{"dW-TN", func() { TMatMulAccInto(gw, x, dy) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.f()
			}
			b.ReportMetric(2*m*k*n*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

func TestConvDirectVsRef(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	cases := []struct{ n, c, h, w, outC, kh, kw, padH, padW int }{
		{1, 1, 5, 5, 1, 3, 3, 1, 1},
		{2, 3, 9, 7, 4, 3, 3, 1, 1},
		{1, 2, 8, 8, 3, 5, 5, 2, 2},
		{2, 4, 13, 11, 5, 3, 5, 0, 2},
		{3, 2, 6, 6, 2, 1, 1, 0, 0},
		{1, 3, 16, 16, 8, 3, 3, 1, 1},
	}
	for _, tc := range cases {
		img := Randn(rng, 1, tc.n, tc.c, tc.h, tc.w)
		w := Randn(rng, 1, tc.c*tc.kh*tc.kw, tc.outC)
		bias := Randn(rng, 1, tc.outC)
		oh := ConvDims(tc.h, tc.kh, 1, tc.padH)
		ow := ConvDims(tc.w, tc.kw, 1, tc.padW)
		got := New(tc.n, tc.outC, oh, ow)
		want := New(tc.n, tc.outC, oh, ow)
		Conv2DBiasInto(nil, got, img, w, bias, tc.kh, tc.kw, 1, tc.padH, tc.padW)
		RefConv2DInto(want, img, w, bias, tc.kh, tc.kw, tc.padH, tc.padW)
		if !bitEqual64(got, want) {
			t.Fatalf("direct conv differs from reference: %+v", tc)
		}
		// Without bias too (nil bias branch).
		Conv2DBiasInto(nil, got, img, w, nil, tc.kh, tc.kw, 1, tc.padH, tc.padW)
		RefConv2DInto(want, img, w, nil, tc.kh, tc.kw, tc.padH, tc.padW)
		if !bitEqual64(got, want) {
			t.Fatalf("direct conv (no bias) differs from reference: %+v", tc)
		}
	}
}

// TestConvStridedVsLowering: strided convolutions run the same kernel as
// stride 1, so they too equal the im2col lowering bit for bit (through a
// workspace, as the former fallback was called).
func TestConvStridedVsLowering(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	n, c, h, wd, outC, kh, kw, stride, pad := 2, 3, 9, 9, 4, 3, 3, 2, 1
	img := Randn(rng, 1, n, c, h, wd)
	w := Randn(rng, 1, c*kh*kw, outC)
	bias := Randn(rng, 1, outC)
	oh := ConvDims(h, kh, stride, pad)
	ow := ConvDims(wd, kw, stride, pad)
	got, want := New(n, outC, oh, ow), New(n, outC, oh, ow)
	Conv2DBiasInto(NewWorkspace(), got, img, w, bias, kh, kw, stride, pad, pad)
	loweredForward(want, img, w, bias, kh, kw, stride, pad, pad)
	if !bitEqual64(got, want) {
		t.Fatal("strided conv differs from the lowering")
	}
}

func BenchmarkMatMulGFLOPS(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x := Randn(rng, 1, n, n)
			y := Randn(rng, 1, n, n)
			out := New(n, n)
			flops := 2 * float64(n) * float64(n) * float64(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulInto(out, x, y)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

func BenchmarkConvGFLOPS(b *testing.B) {
	// BigEarthNet-scale stride-1 layer: 8×(16→32)×64×64, 3×3, pad 1.
	n, c, h, w, outC, k := 8, 16, 64, 64, 32, 3
	rng := rand.New(rand.NewSource(2))
	img := Randn(rng, 1, n, c, h, w)
	wt := Randn(rng, 1, c*k*k, outC)
	bias := Randn(rng, 1, outC)
	out := New(n, outC, h, w)
	flops := 2 * float64(n) * float64(outC) * float64(h) * float64(w) * float64(c) * float64(k) * float64(k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2DBiasInto(nil, out, img, wt, bias, k, k, 1, 1, 1)
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}
