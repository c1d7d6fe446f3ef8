package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"slices"
	"testing"
)

// The lowering the convolution engine replaced, kept verbatim as the
// reference its three kernels must match bit for bit: im2col + fused
// matmul + NCHW scatter forward; NCHW gather + TN matmul + column sum +
// NT matmul + col2im backward.

// scatterNCHW rearranges a (N·OH·OW, OutC) matmul-layout matrix into
// channel-major images out (N, OutC, OH, OW).
func scatterNCHW(out, flat *Tensor) {
	n, oc, oh, ow := out.shape[0], out.shape[1], out.shape[2], out.shape[3]
	for b := 0; b < n; b++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				row := ((b*oh+y)*ow + x) * oc
				for ch := 0; ch < oc; ch++ {
					out.data[((b*oc+ch)*oh+y)*ow+x] = flat.data[row+ch]
				}
			}
		}
	}
}

// gatherNCHW is the inverse of scatterNCHW.
func gatherNCHW(flat, img *Tensor) {
	n, oc, oh, ow := img.shape[0], img.shape[1], img.shape[2], img.shape[3]
	for b := 0; b < n; b++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				row := ((b*oh+y)*ow + x) * oc
				for ch := 0; ch < oc; ch++ {
					flat.data[row+ch] = img.data[((b*oc+ch)*oh+y)*ow+x]
				}
			}
		}
	}
}

// im2col allocates img's column matrix and lowers img into it.
func im2col(img *Tensor, kh, kw, stride, padH, padW int) *Tensor {
	n, c, h, w := img.Dim(0), img.Dim(1), img.Dim(2), img.Dim(3)
	oh, ow := ConvDims(h, kh, stride, padH), ConvDims(w, kw, stride, padW)
	return Im2ColInto(New(n*oh*ow, c*kh*kw), img, kh, kw, stride, padH, padW)
}

func loweredForward(out, img, w, bias *Tensor, kh, kw, stride, padH, padW int) {
	cols := im2col(img, kh, kw, stride, padH, padW)
	flat := New(cols.shape[0], w.shape[1])
	MatMulBiasInto(flat, cols, w, bias)
	scatterNCHW(out, flat)
}

// loweredBackward accumulates into dw and db and overwrites dx.
func loweredBackward(dw, db, dx, img, dout, w *Tensor, kh, kw, stride, padH, padW int) {
	cols := im2col(img, kh, kw, stride, padH, padW)
	dflat := New(cols.shape[0], w.shape[1])
	gatherNCHW(dflat, dout)
	TMatMulAccInto(dw, cols, dflat)
	dB := New(db.shape...)
	SumAxis0Into(dB, dflat)
	db.AddInPlace(dB)
	dcols := New(cols.shape...)
	MatMulTInto(dcols, dflat, w)
	col2imInto(dx, dcols, kh, kw, stride, padH, padW)
}

// col2imInto scatters a column matrix (as produced by Im2ColInto) into the
// image batch img of shape (N, C, H, W), overwriting it (img is zeroed,
// then overlapping windows accumulate). It is the adjoint of Im2ColInto,
// and with it the reference for the order in which Conv2DGradInputInto
// adds into each input pixel.
func col2imInto(img, cols *Tensor, kh, kw, stride, padH, padW int) *Tensor {
	if len(img.shape) != 4 {
		panic("tensor: col2imInto requires (N,C,H,W) output")
	}
	n, c, h, w := img.shape[0], img.shape[1], img.shape[2], img.shape[3]
	oh := ConvDims(h, kh, stride, padH)
	ow := ConvDims(w, kw, stride, padW)
	if cols.shape[0] != n*oh*ow || cols.shape[1] != c*kh*kw {
		panic(fmt.Sprintf("tensor: col2imInto shape %v incompatible with (%d,%d,%d,%d) k=%dx%d", cols.shape, n, c, h, w, kh, kw))
	}
	// Overlapping windows accumulate, but only within one batch image —
	// so the scatter parallelizes over the batch axis, each worker owning
	// a disjoint (C,H,W) slab that it zeroes itself.
	g := convGeom{c: c, h: h, w: w, oh: oh, ow: ow, kh: kh, kw: kw, stride: stride, padH: padH, padW: padW}
	convJobs.For(n, 2*oh*ow*c*kh*kw, convArgs{out: img.data, x: cols.data, g: g}, col2imBatches)
	return img
}

// col2imBatches scatters cols back into batch images [lo,hi).
func col2imBatches(v convArgs, lo, hi int) {
	img, cols, g := v.out, v.x, v.g
	c, h, w, oh, ow, kh, kw, stride, padH, padW := g.c, g.h, g.w, g.oh, g.ow, g.kh, g.kw, g.stride, g.padH, g.padW
	for b := lo; b < hi; b++ {
		slab := img[b*c*h*w : (b+1)*c*h*w]
		for i := range slab {
			slab[i] = 0
		}
		colRow := b * oh * ow
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*stride - padH
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*stride - padW
				src := cols[colRow*c*kh*kw : (colRow+1)*c*kh*kw]
				si := 0
				for ch := 0; ch < c; ch++ {
					base := ((b*c + ch) * h) * w
					for ky := 0; ky < kh; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= h {
							si += kw
							continue
						}
						rowBase := base + iy*w
						for kx := 0; kx < kw; kx++ {
							ix := ix0 + kx
							if ix >= 0 && ix < w {
								img[rowBase+ix] += src[si]
							}
							si++
						}
					}
				}
				colRow++
			}
		}
	}
}

type convCase struct{ n, c, outC, h, w, kh, kw, stride, padH, padW int }

func (tc convCase) valid() bool {
	return ConvDims(tc.h, tc.kh, tc.stride, tc.padH) > 0 && ConvDims(tc.w, tc.kw, tc.stride, tc.padW) > 0
}

// convGrid is the property suite's geometry space: batch, channel and
// filter counts on both sides of the 4-row and 8-column tile edges, plane
// sizes whose pixel panels are row-aligned (8, 16), partial (5×5) or
// straddle rows (13, 11, 7), point, square and oblong kernels, three
// strides and asymmetric padding.
var convGrid = struct {
	n, c, outC []int
	hw, k      [][2]int
	stride     []int
}{
	n: []int{1, 3, 16}, c: []int{1, 3, 4, 8, 16}, outC: []int{1, 3, 5, 8, 16},
	hw:     [][2]int{{1, 13}, {5, 5}, {8, 8}, {9, 7}, {16, 16}, {13, 11}},
	k:      [][2]int{{1, 1}, {3, 3}, {1, 5}, {3, 5}, {5, 5}},
	stride: []int{1, 2, 3},
}

// convCases draws count valid geometries from convGrid (the full product
// is 60 750 cases, minutes of reference lowering); every axis value is
// hit many times over, and the corner cases a draw could miss are
// appended.
func convCases(seed int64, count int) []convCase {
	rng := rand.New(rand.NewSource(seed))
	pick := func(s []int) int { return s[rng.Intn(len(s))] }
	g := &convGrid
	var cases []convCase
	for len(cases) < count {
		hw, k := g.hw[rng.Intn(len(g.hw))], g.k[rng.Intn(len(g.k))]
		tc := convCase{pick(g.n), pick(g.c), pick(g.outC), hw[0], hw[1], k[0], k[1], pick(g.stride), rng.Intn(3), rng.Intn(3)}
		if tc.valid() {
			cases = append(cases, tc)
		}
	}
	return append(cases,
		convCase{16, 8, 8, 16, 16, 3, 3, 1, 1, 1},  // resnet-ddp stage 0
		convCase{16, 8, 16, 16, 16, 3, 3, 2, 1, 1}, // its strided block
		convCase{16, 8, 16, 16, 16, 1, 1, 2, 0, 0}, // and projection shortcut
		convCase{3, 16, 16, 13, 11, 5, 5, 3, 2, 0},
		convCase{1, 1, 1, 1, 13, 1, 5, 1, 0, 2}, // Conv1D's 1×k over (N,D,1,T)
		convCase{3, 4, 5, 5, 5, 5, 5, 1, 2, 2},  // window as large as the plane
		convCase{1, 3, 8, 8, 8, 1, 1, 1, 2, 1},  // padding wider than the kernel
		convCase{3, 16, 3, 9, 7, 3, 5, 2, 0, 2},
	)
}

// checkConvCase runs the three kernels and the lowering on one geometry
// and compares forward, dw, db and dx bitwise, first on normal draws and
// then with special values (convSpecials) in one input, drawn at random,
// so the suite covers all three over its cases at twice the cost of
// normal draws alone. The gradients start from a non-zero prior and are
// accumulated twice; out and dx start from NaN.
func checkConvCase(t *testing.T, rng *rand.Rand, tc convCase, label string) {
	t.Helper()
	oh := ConvDims(tc.h, tc.kh, tc.stride, tc.padH)
	ow := ConvDims(tc.w, tc.kw, tc.stride, tc.padW)
	k := tc.c * tc.kh * tc.kw
	img := Randn(rng, 1, tc.n, tc.c, tc.h, tc.w)
	w := Randn(rng, 1, k, tc.outC)
	dout := Randn(rng, 1, tc.n, tc.outC, oh, ow)
	checkConvOperands(t, rng, tc, label, img, w, dout)
	// One operand at a time: where a product has two NaN factors, which
	// payload survives depends on the operands' roles in the instruction,
	// and the lowering gives the two factors the other roles. In dout a
	// channel's NaNs share one payload and its infinities one sign: the
	// bias gradient sums a channel with plain adds, and in Go code which
	// of two NaN addends survives is the compiler's choice.
	i := rng.Intn(3)
	ops := []*Tensor{img, w, dout}
	var ch func(int) int
	if i == 2 {
		p := oh * ow
		ch = func(e int) int { return e / p % tc.outC }
	}
	convSpecials(rng, ops[i], ch)
	checkConvOperands(t, rng, tc, label+" specials in "+[]string{"img", "w", "dout"}[i], ops[0], ops[1], ops[2])
}

// convSpecials overwrites about one element in eight of x with a value a
// kernel could mishandle: quiet NaNs with distinct payloads, ±Inf, −0 and
// subnormals. With ch set, element e's NaN payload and infinity sign are
// fixed by its channel ch(e).
func convSpecials(rng *rand.Rand, x *Tensor, ch func(int) int) {
	for i := range x.data {
		payload, sign := rng.Intn(1<<20)+1, 1-2*rng.Intn(2)
		if ch != nil {
			payload, sign = ch(i)+1, 1-2*(ch(i)%2)
		}
		switch rng.Intn(48) {
		case 0, 1:
			x.data[i] = math.Float64frombits(0x7ff8_0000_0000_0000 | uint64(payload))
		case 2, 3:
			x.data[i] = math.Inf(sign)
		case 4:
			x.data[i] = math.Copysign(0, -1)
		case 5:
			x.data[i] = math.Float64frombits(uint64(rng.Intn(1<<20))) * float64(1-2*rng.Intn(2))
		}
	}
}

// guarded returns a tensor of the given shape filled with v whose storage
// sits between two 64-byte guard zones (convGuard), and the whole buffer.
func guarded(v float64, shape ...int) (*Tensor, []float64) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	buf := make([]float64, n+16)
	for i := range buf {
		buf[i] = convGuard
	}
	x := FromSlice(buf[8:8+n:8+n], shape...)
	x.Fill(v)
	return x, buf
}

var convGuard = math.Float64frombits(0x7ff4_dead_beef_0bad)

// guardsIntact reports whether buf's guard zones still hold convGuard.
func guardsIntact(buf []float64) bool {
	for _, v := range append(buf[:8:8], buf[len(buf)-8:]...) {
		if math.Float64bits(v) != math.Float64bits(convGuard) {
			return false
		}
	}
	return true
}

// checkConvOperands is checkConvCase on given operands: every result
// written by the engine is guarded, and the inputs must come back
// unchanged.
func checkConvOperands(t *testing.T, rng *rand.Rand, tc convCase, label string, img, w, dout *Tensor) {
	t.Helper()
	oh, ow, k := dout.shape[2], dout.shape[3], w.shape[0]
	bias := Randn(rng, 1, tc.outC)
	inputs := []*Tensor{img, w, dout}
	saved := []*Tensor{img.Clone(), w.Clone(), dout.Clone()}

	for _, bs := range []*Tensor{bias, nil} {
		got, gbuf := guarded(math.NaN(), tc.n, tc.outC, oh, ow)
		want := New(tc.n, tc.outC, oh, ow)
		Conv2DBiasInto(nil, got, img, w, bs, tc.kh, tc.kw, tc.stride, tc.padH, tc.padW)
		loweredForward(want, img, w, bs, tc.kh, tc.kw, tc.stride, tc.padH, tc.padW)
		if !bitEqual64(got, want) {
			t.Fatalf("%s %+v: forward (bias %v) differs from the lowering", label, tc, bs != nil)
		}
		if !guardsIntact(gbuf) {
			t.Fatalf("%s %+v: forward wrote outside out", label, tc)
		}
	}

	dw0, db0 := Randn(rng, 1, k, tc.outC), Randn(rng, 1, tc.outC)
	gotW, wbuf := guarded(0, k, tc.outC)
	gotB, bbuf := guarded(0, tc.outC)
	gotW.CopyFrom(dw0)
	gotB.CopyFrom(db0)
	wantW, wantB := dw0.Clone(), db0.Clone()
	gotX, xbuf := guarded(math.NaN(), tc.n, tc.c, tc.h, tc.w)
	wantX := New(tc.n, tc.c, tc.h, tc.w)
	for pass := 0; pass < 2; pass++ {
		Conv2DGradWeightsInto(gotW, gotB, img, dout, tc.kh, tc.kw, tc.stride, tc.padH, tc.padW)
		Conv2DGradInputInto(gotX, dout, w, tc.kh, tc.kw, tc.stride, tc.padH, tc.padW)
		loweredBackward(wantW, wantB, wantX, img, dout, w, tc.kh, tc.kw, tc.stride, tc.padH, tc.padW)
	}
	if !bitEqual64(gotW, wantW) {
		t.Fatalf("%s %+v: dw differs from the lowering", label, tc)
	}
	if !bitEqual64(gotB, wantB) {
		t.Fatalf("%s %+v: db differs from the lowering", label, tc)
	}
	if !bitEqual64(gotX, wantX) {
		t.Fatalf("%s %+v: dx differs from the lowering", label, tc)
	}
	for name, buf := range map[string][]float64{"dw": wbuf, "db": bbuf, "dx": xbuf} {
		if !guardsIntact(buf) {
			t.Fatalf("%s %+v: backward wrote outside %s", label, tc, name)
		}
	}
	// A nil db leaves dw's chain alone.
	gotW.CopyFrom(dw0)
	Conv2DGradWeightsInto(gotW, nil, img, dout, tc.kh, tc.kw, tc.stride, tc.padH, tc.padW)
	Conv2DGradWeightsInto(gotW, nil, img, dout, tc.kh, tc.kw, tc.stride, tc.padH, tc.padW)
	if !bitEqual64(gotW, wantW) {
		t.Fatalf("%s %+v: dw with nil db differs from the lowering", label, tc)
	}
	if !guardsIntact(wbuf) {
		t.Fatalf("%s %+v: dw with nil db wrote outside dw", label, tc)
	}
	for i, x := range inputs {
		if !bitEqual64(x, saved[i]) {
			t.Fatalf("%s %+v: the engine changed input %d", label, tc, i)
		}
	}
}

// dirtyScratch refills the packing-scratch free lists with NaN-filled
// buffers, so a kernel that reads a panel cell it did not write shows.
func dirtyScratch() {
	for class := 0; class <= 17; class++ {
		var held []*[]float64
		for i := 0; i < scratchPerClass; i++ {
			p := getScratch(1 << class)
			for j := range *p {
				(*p)[j] = math.NaN()
			}
			held = append(held, p)
		}
		for _, p := range held {
			putScratch(p)
		}
	}
}

// TestConvEngineVsLowering is the engine's property suite: forward, dw,
// db and dx bitwise (no tolerance) against the lowering over the geometry
// grid, on the assembly and the pure-Go micro-kernel, at several worker
// counts, and through NaN-dirtied packing scratch.
func TestConvEngineVsLowering(t *testing.T) {
	resetConfigAfter(t)
	orig := useAVX
	t.Cleanup(func() { useAVX = orig })
	count := 400
	if testing.Short() {
		count = 60
	}
	cases := convCases(49, count)
	rng := rand.New(rand.NewSource(50))

	Configure(WithWorkers(1))
	for _, tc := range cases {
		checkConvCase(t, rng, tc, "serial")
	}
	for i, tc := range cases {
		if i%4 != 0 {
			continue
		}
		useAVX = false
		checkConvCase(t, rng, tc, "pure-Go kernel")
		useAVX = orig
		dirtyScratch()
		checkConvCase(t, rng, tc, "dirty scratch")
	}
	for _, workers := range []int{2, 3, 8} {
		Configure(WithWorkers(workers), WithGrain(1024))
		for i, tc := range cases {
			if i%3 == 0 || i >= count {
				checkConvCase(t, rng, tc, fmt.Sprintf("workers=%d", workers))
			}
		}
	}
}

// TestConvEngineNoAVXProcess re-runs the property suite in a child
// process started with MSA_NO_AVX=1 — the switch a host without AVX2
// takes at start-up, as opposed to the in-process flip above.
func TestConvEngineNoAVXProcess(t *testing.T) {
	if os.Getenv("MSA_NO_AVX") != "" {
		t.Skip("already running with MSA_NO_AVX set")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestConvEngineVsLowering$", "-test.short")
	cmd.Env = append(os.Environ(), "MSA_NO_AVX=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("property suite with MSA_NO_AVX=1: %v\n%s", err, out)
	}
}

// TestConvEngineWorkspaceUntouched: the engine's scratch is the packing
// pool's, so a workspace passed to the forward kernel — NaN-dirtied
// here — is neither read nor borrowed from.
func TestConvEngineWorkspaceUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	ws := NewWorkspace()
	for _, n := range []int{64, 4096, 1 << 16} {
		ws.Get(n).Fill(math.NaN())
	}
	ws.ReleaseAll()
	tc := convCase{3, 4, 8, 9, 7, 3, 3, 2, 1, 1}
	img := Randn(rng, 1, tc.n, tc.c, tc.h, tc.w)
	w, bias := Randn(rng, 1, tc.c*9, tc.outC), Randn(rng, 1, tc.outC)
	got := ws.GetUninit(tc.n, tc.outC, 5, 4)
	want := New(tc.n, tc.outC, 5, 4)
	Conv2DBiasInto(ws, got, img, w, bias, 3, 3, 2, 1, 1)
	loweredForward(want, img, w, bias, 3, 3, 2, 1, 1)
	if !bitEqual64(got, want) {
		t.Fatal("forward through a dirtied workspace differs from the lowering")
	}
	if ws.InUse() != 1 {
		t.Fatalf("forward kernel borrowed from the workspace: %d tensors in use, want 1 (out)", ws.InUse())
	}
}

// BenchmarkConvEngine times the three kernels one by one at the five conv
// shapes of a ResNetMini (width 8, two stages, 16×16 input), at the
// data-parallel batch (16) and the pipeline's micro-batch (4), and reports
// GFLOP/s (2·N·P·K·OutC flops a pass) and µs per sample.
func BenchmarkConvEngine(b *testing.B) {
	for _, s := range []struct {
		name                        string
		c, hw, outC, k, stride, pad int
	}{
		{"stem", 4, 16, 8, 3, 1, 1},
		{"block16", 8, 16, 8, 3, 1, 1},
		{"down", 8, 16, 16, 3, 2, 1},
		{"proj", 8, 16, 16, 1, 2, 0},
		{"block8", 16, 8, 16, 3, 1, 1},
	} {
		for _, n := range []int{16, 4} {
			rng := rand.New(rand.NewSource(2))
			o := ConvDims(s.hw, s.k, s.stride, s.pad)
			img := Randn(rng, 1, n, s.c, s.hw, s.hw)
			w, bias := Randn(rng, 1, s.c*s.k*s.k, s.outC), Randn(rng, 1, s.outC)
			dout := Randn(rng, 1, n, s.outC, o, o)
			out, dx := New(dout.shape...), New(img.shape...)
			dw, db := New(w.shape...), New(s.outC)
			flops := 2 * float64(n*o*o) * float64(s.c*s.k*s.k) * float64(s.outC)
			for _, k := range []struct {
				name string
				fn   func()
			}{
				{"forward", func() { Conv2DBiasInto(nil, out, img, w, bias, s.k, s.k, s.stride, s.pad, s.pad) }},
				{"dw", func() { Conv2DGradWeightsInto(dw, db, img, dout, s.k, s.k, s.stride, s.pad, s.pad) }},
				{"dx", func() { Conv2DGradInputInto(dx, dout, w, s.k, s.k, s.stride, s.pad, s.pad) }},
			} {
				b.Run(fmt.Sprintf("%s-%d→%d-%dx%d-s%d/N%d/%s", s.name, s.c, s.outC, s.k, s.k, s.stride, n, k.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						k.fn()
					}
					sec := b.Elapsed().Seconds()
					b.ReportMetric(flops*float64(b.N)/sec/1e9, "GFLOP/s")
					b.ReportMetric(sec*1e6/float64(b.N*n), "µs/sample")
				})
			}
		}
	}
}

// poolPalette draws pool inputs with many ties and every value a max can
// get wrong: ±0, NaN, ±Inf and repeated small integers.
func poolPalette(rng *rand.Rand, n int) []float64 {
	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(-1), math.Inf(1), 1, 1, -1, 2}
	v := make([]float64, n)
	for i := range v {
		if rng.Intn(3) == 0 {
			v[i] = special[rng.Intn(len(special))]
		} else {
			v[i] = float64(rng.Intn(5) - 2)
		}
	}
	return v
}

// TestMaxPoolValuesOnlyMatchesArgmax: the values-only pool (arg nil: the
// vector kernel at k = 2, stride = 2, the branch-free fold elsewhere)
// writes the argmax pool's values bit for bit, with useAVX on and off,
// over odd planes whose rows end in a partial group of one to three
// outputs.
func TestMaxPoolValuesOnlyMatchesArgmax(t *testing.T) {
	orig := useAVX
	t.Cleanup(func() { useAVX = orig })
	rng := rand.New(rand.NewSource(41))
	sentinel := math.Float64frombits(0x7ff8_0000_dead_beef)
	for _, k := range []int{2, 3} {
		for _, stride := range []int{1, 2} {
			for _, hw := range [][2]int{{3, 3}, {5, 9}, {7, 11}, {9, 17}, {11, 19}, {5, 15}, {6, 20}} {
				h, w := hw[0], hw[1]
				x := FromSlice(poolPalette(rng, 2*3*h*w), 2, 3, h, w)
				oh, ow := ConvDims(h, k, stride, 0), ConvDims(w, k, stride, 0)
				want, arg := New(2, 3, oh, ow), make([]int, 2*3*oh*ow)
				MaxPool2DInto(want, arg, x, k, stride)
				for _, avx := range []bool{orig, false} {
					useAVX = avx
					got := New(2, 3, oh, ow)
					got.Fill(sentinel)
					MaxPool2DInto(got, nil, x, k, stride)
					useAVX = orig
					for i, v := range got.Data() {
						if math.Float64bits(v) != math.Float64bits(want.Data()[i]) {
							t.Fatalf("k=%d stride=%d %dx%d avx=%v: output %d is %v, want %v",
								k, stride, h, w, avx, i, v, want.Data()[i])
						}
					}
				}
			}
		}
	}
}

// TestMaxPoolSeedsFromFirstTap: a window of all −Inf or all NaN pools to
// its first tap, and the backward pass routes that window's gradient there
// instead of indexing the input at −1. A window whose first tap is NaN
// pools NaN, though a number follows it (the fold once seeded from −1e308
// skipped that NaN and pooled the 5).
func TestMaxPoolSeedsFromFirstTap(t *testing.T) {
	inf, nan := math.Inf(-1), math.NaN()
	x := FromSlice([]float64{
		inf, inf, nan, nan, nan, 5,
		inf, inf, nan, nan, 1, 2,
	}, 1, 1, 2, 6)
	out, arg := New(1, 1, 1, 3), make([]int, 3)
	MaxPool2DInto(out, arg, x, 2, 2)
	if o := out.Data(); o[0] != inf || !math.IsNaN(o[1]) || !math.IsNaN(o[2]) || !slices.Equal(arg, []int{0, 2, 4}) {
		t.Fatalf("pooled %v with argmax %v, want [-Inf NaN NaN] at [0 2 4]", o, arg)
	}
	orig := useAVX
	t.Cleanup(func() { useAVX = orig })
	for _, avx := range []bool{orig, false} {
		useAVX = avx
		values := New(1, 1, 1, 3)
		MaxPool2DInto(values, nil, x, 2, 2)
		if o := values.Data(); o[0] != inf || !math.IsNaN(o[1]) || !math.IsNaN(o[2]) {
			t.Fatalf("avx=%v: values-only pool %v, want [-Inf NaN NaN]", avx, o)
		}
	}
	din := MaxPool2DBackwardInto(New(1, 1, 2, 6), FromSlice([]float64{3, 5, 7}, 1, 1, 1, 3), arg)
	if want := []float64{3, 0, 5, 0, 7, 0, 0, 0, 0, 0, 0, 0}; !slices.Equal(din.Data(), want) {
		t.Fatalf("backward %v, want %v", din.Data(), want)
	}
}

// TestConvEvalEpilogue: the eval chain applied in the conv's tile store
// (Conv2DBiasInto with a BNReLU) equals Conv2DBiasInto, then
// BatchNormNormalizeInto with no xhat, then ReLUInto, bit for bit, with
// and without the rectifier, with useAVX on and off. NaN, ±Inf and −0 are
// placed in turn in the input and in every per-channel operand (bias,
// mean, inv, gamma, beta), in alternate channel rows and scattered input
// pixels (−0 in gamma and beta together, so that −0 reaches the gate), over 4, 5, 8 and 13 output channels (whole and partial channel
// blocks), in-place, gathered row-straddling, partial and strided pixel
// panels, and a nil bias. With a nil bias and no chain, a −0 sum (from
// subnormal products) is stored as −0, as the lowering stores it.
func TestConvEvalEpilogue(t *testing.T) {
	orig := useAVX
	t.Cleanup(func() { useAVX = orig })
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	geoms := []struct{ n, c, h, w, stride int }{
		{2, 2, 10, 10, 1}, // ow 10: in-place, row-straddling and a 4-pixel tail
		{1, 3, 8, 8, 1},   // ow 8: every panel in place
		{1, 2, 9, 9, 2},   // 5×5 outputs, gathered, with a 1-pixel tail
	}
	rng := rand.New(rand.NewSource(44))
	sentinel := math.Float64frombits(0x7ff8_0000_dead_beef)
	// A nil bias adds nothing: products of the smallest subnormal round to
	// signed zeros, and the store must keep a −0 sum as the lowering does.
	tiny := New(1, 2, 6, 6)
	tiny.Fill(math.SmallestNonzeroFloat64)
	tw := RandUniform(rng, -0.4, 0.4, 18, 5)
	for _, avx := range []bool{orig, false} {
		useAVX = avx
		got, want := New(1, 5, 6, 6), New(1, 5, 6, 6)
		Conv2DBiasInto(nil, got, tiny, tw, nil, 3, 3, 1, 1, 1)
		useAVX = orig
		loweredForward(want, tiny, tw, nil, 3, 3, 1, 1, 1)
		if !bitEqual64(got, want) || !slices.ContainsFunc(want.data, math.Signbit) {
			t.Fatalf("avx=%v: subnormal products with a nil bias: got %v, want %v (with a −0)", avx, got.data, want.data)
		}
	}
	for _, gm := range geoms {
		oh, ow := ConvDims(gm.h, 3, gm.stride, 1), ConvDims(gm.w, 3, gm.stride, 1)
		for _, outC := range []int{4, 5, 8, 13} {
			w := RandUniform(rng, -1, 1, gm.c*9, outC)
			for _, nilBias := range []bool{false, true} {
				for target := 0; target < 6; target++ {
					if nilBias && target == 1 {
						continue
					}
					for _, s := range specials {
						for rot := 0; rot < 2; rot++ {
							img := RandUniform(rng, -1, 1, gm.n, gm.c, gm.h, gm.w)
							ops := [5]*Tensor{RandUniform(rng, -1, 1, outC), RandUniform(rng, -1, 1, outC),
								RandUniform(rng, 0.5, 2, outC), RandUniform(rng, -2, 2, outC), RandUniform(rng, -1, 1, outC)}
							if target == 0 {
								for i := range img.data {
									if i%7 == rot*3 {
										img.data[i] = s
									}
								}
							} else {
								for ch := range ops[target-1].data {
									if ch%2 == rot {
										ops[target-1].data[ch] = s
										if target == 4 && s == 0 {
											ops[4].data[ch] = s // −0·t + −0: a −0 into the rectifier
										}
									}
								}
							}
							bias := ops[0]
							if nilBias {
								bias = nil
							}
							mean, inv, gamma, beta := ops[1].data, ops[2].data, ops[3].data, ops[4].data
							for _, relu := range []bool{false, true} {
								for _, avx := range []bool{orig, false} {
									useAVX = avx
									want := New(gm.n, outC, oh, ow)
									Conv2DBiasInto(nil, want, img, w, bias, 3, 3, gm.stride, 1, 1)
									BatchNormNormalizeInto(want, nil, want, mean, inv, gamma, beta)
									if relu {
										ReLUInto(want, want)
									}
									got := New(gm.n, outC, oh, ow)
									got.Fill(sentinel)
									Conv2DBiasInto(nil, got, img, w, bias, 3, 3, gm.stride, 1, 1, BNReLU{mean, inv, gamma, beta, relu})
									useAVX = orig
									for i, v := range got.data {
										if math.Float64bits(v) != math.Float64bits(want.data[i]) {
											t.Fatalf("%+v outC=%d nilBias=%v target=%d special=%v rot=%d relu=%v avx=%v: output %d is %v, want %v",
												gm, outC, nilBias, target, s, rot, relu, avx, i, v, want.data[i])
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
}
