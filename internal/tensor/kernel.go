package tensor

import "math"

// The shared GEMM engine behind MatMulInto, MatMulTInto, TMatMulInto and
// their fused bias/activation/accumulate variants (matmul.go).
//
// Floating-point contract, shared by every path (scalar reference, packed
// AVX2 kernel, axpy small path, any worker split): each output element is
// an exactly-rounded FMA chain over products in ascending p order, seeded
// from the element's prior value (out is zeroed first when not
// accumulating). Bias is added with a plain + after the full-K chain,
// then the activation is applied. For float32 storage the whole chain
// runs in float64 (inputs widened exactly) and rounds to float32 once,
// after the epilogue. Because every path follows the same recipe, results
// are bitwise identical across kernels, architectures, and worker counts
// — kernel_test.go pins this against the Ref* kernels below.

// Epilogue selects the activation fused after the bias add.
type Epilogue uint8

const (
	EpNone Epilogue = iota
	EpReLU
	EpSigmoid
	EpTanh
)

func applyEp(v float64, ep Epilogue) float64 {
	switch ep {
	case EpReLU:
		if v <= 0 {
			return 0
		}
		return v
	case EpSigmoid:
		return 1 / (1 + math.Exp(-v))
	case EpTanh:
		return math.Tanh(v)
	}
	return v
}

type gemmKind uint8

const (
	gemmNN gemmKind = iota // out = a·b        a (m,k), b (k,n)
	gemmNT                 // out = a·bᵀ       a (m,k), b (n,k)
	gemmTN                 // out = aᵀ·b       a (k,m), b (k,n)
)

// packMinFlops is the problem size (2·m·n·k flops) below which the
// packing overhead outweighs the blocked kernel and the direct small
// paths win. kc and nc are the packed path's cache blocking: kc the panel
// depth (a kc×8 B panel and a 4×kc A panel stay L1/L2 resident), nc the
// column strip width packed per pass.
const (
	packMinFlops = 1 << 17
	kc           = 512
	nc           = 2048
)

// gemmArgs is one GEMM's operands as its row-range kernels take them:
// float64 or float32 storage, and on the packed paths the packed B block
// (bp), the float64 strip of a float32 product (cs), and the current K
// block and column strip.
type gemmArgs struct {
	kind                     gemmKind
	ep                       Epilogue
	od, ad, bd, bias         []float64
	od32, ad32, bd32, bias32 []float32
	bp, cs                   []float64
	m, k, n                  int
	pc, kb, jc, nb           int
	lastK                    bool
}

var gemmJobs Jobs[gemmArgs]

// gemmRun runs fn over rows (or row blocks) [0, rows) through the pool,
// or entirely on the calling goroutine when par is false.
func gemmRun(par bool, rows, cost int, v gemmArgs, fn func(gemmArgs, int, int)) {
	if par {
		gemmJobs.For(rows, cost, v, fn)
	} else {
		fn(v, 0, rows)
	}
}

// gemmEx is the single entry point for the matmul family.
func gemmEx(kind gemmKind, out, a, b, bias *Tensor, ep Epilogue, acc bool) {
	if len(a.shape) != 2 || len(b.shape) != 2 || len(out.shape) != 2 {
		panic("tensor: matmul requires 2-D tensors")
	}
	var m, k, n, k2 int
	switch kind {
	case gemmNN:
		m, k = a.shape[0], a.shape[1]
		k2, n = b.shape[0], b.shape[1]
	case gemmNT:
		m, k = a.shape[0], a.shape[1]
		n, k2 = b.shape[0], b.shape[1]
	case gemmTN:
		k, m = a.shape[0], a.shape[1]
		k2, n = b.shape[0], b.shape[1]
	}
	if k != k2 {
		panic("tensor: matmul inner dimensions disagree")
	}
	if out.shape[0] != m || out.shape[1] != n {
		panic("tensor: matmul output shape mismatch")
	}
	if a.dtype != b.dtype || out.dtype != a.dtype {
		panic("tensor: matmul dtype mismatch")
	}
	if out == a || out == b {
		panic("tensor: matmul output must not alias an input")
	}
	var bias64 []float64
	var bias32 []float32
	if bias != nil {
		if bias.Size() != n {
			panic("tensor: matmul bias length mismatch")
		}
		if bias.dtype != out.dtype {
			panic("tensor: matmul bias dtype mismatch")
		}
		bias64, bias32 = bias.data, bias.data32
	}
	if !acc {
		out.Zero()
	}
	if m == 0 || n == 0 {
		return
	}
	flops := 2 * m * n * k
	if out.dtype == Float32 {
		v := gemmArgs{kind: kind, ep: ep, od32: out.data32, ad32: a.data32, bd32: b.data32, bias32: bias32, m: m, k: k, n: n}
		if flops >= packMinFlops {
			gemmPacked32(v)
		} else {
			gemmJobs.For(m, 2*k*n, v, gemmSmall32)
		}
		return
	}
	gemm64(kind, out.data, a.data, b.data, bias64, m, k, n, ep, true)
}

// gemm64 runs one float64 GEMM on raw row-major slices; od already holds
// the chain seeds. par=false keeps the whole product on the calling
// goroutine (the Serial entry points in matmul.go).
func gemm64(kind gemmKind, od, ad, bd, bias []float64, m, k, n int, ep Epilogue, par bool) {
	v := gemmArgs{kind: kind, ep: ep, od: od, ad: ad, bd: bd, bias: bias, m: m, k: k, n: n}
	if 2*m*n*k >= packMinFlops {
		gemmPacked64(v, par)
		return
	}
	fn := gemmSmallNN64
	switch kind {
	case gemmNT:
		fn = gemmSmallNT64
	case gemmTN:
		fn = gemmSmallTN64
	}
	gemmRun(par, m, 2*k*n, v, fn)
}

// epilogueRowSeg64 applies bias+activation to out[jOff:jOff+len(seg)] of
// one row. A plain add (not FMA) keeps bias semantics identical to the
// former separate AddRowVector pass.
func epilogueRowSeg64(seg, bias []float64, jOff int, ep Epilogue) {
	if bias != nil {
		for x := range seg {
			seg[x] += bias[jOff+x]
		}
	}
	if ep != EpNone {
		for x, v := range seg {
			seg[x] = applyEp(v, ep)
		}
	}
}

// Small direct paths: no packing, no scratch, zero allocations — these
// keep Dense/GRU-sized calls on the fast path the workspace allocation
// gates pin.

func gemmSmallNN64(v gemmArgs, lo, hi int) {
	od, ad, bd, bias, k, n, ep := v.od, v.ad, v.bd, v.bias, v.k, v.n, v.ep
	for i := lo; i < hi; i++ {
		orow := od[i*n : i*n+n]
		arow := ad[i*k : i*k+k]
		for p := 0; p < k; p++ {
			axpyFMA(arow[p], bd[p*n:p*n+n], orow)
		}
		if bias != nil || ep != EpNone {
			epilogueRowSeg64(orow, bias, 0, ep)
		}
	}
}

func gemmSmallNT64(v gemmArgs, lo, hi int) {
	od, ad, bd, bias, k, n, ep := v.od, v.ad, v.bd, v.bias, v.k, v.n, v.ep
	for i := lo; i < hi; i++ {
		orow := od[i*n : i*n+n]
		arow := ad[i*k : i*k+k]
		for j := 0; j < n; j++ {
			acc := orow[j]
			brow := bd[j*k : j*k+k]
			for p, av := range arow {
				acc = math.FMA(av, brow[p], acc)
			}
			orow[j] = acc
		}
		if bias != nil || ep != EpNone {
			epilogueRowSeg64(orow, bias, 0, ep)
		}
	}
}

func gemmSmallTN64(v gemmArgs, lo, hi int) {
	od, ad, bd, bias, m, k, n, ep := v.od, v.ad, v.bd, v.bias, v.m, v.k, v.n, v.ep
	for i := lo; i < hi; i++ {
		orow := od[i*n : i*n+n]
		for p := 0; p < k; p++ {
			axpyFMA(ad[p*m+i], bd[p*n:p*n+n], orow)
		}
		if bias != nil || ep != EpNone {
			epilogueRowSeg64(orow, bias, 0, ep)
		}
	}
}

// gemmSmall32: scalar dots with float64 accumulation; the epilogue runs
// in float64 before the single rounding to float32.
func gemmSmall32(v gemmArgs, lo, hi int) {
	kind, od, ad, bd, bias, m, k, n, ep := v.kind, v.od32, v.ad32, v.bd32, v.bias32, v.m, v.k, v.n, v.ep
	for i := lo; i < hi; i++ {
		for j := 0; j < n; j++ {
			acc := float64(od[i*n+j])
			switch kind {
			case gemmNN:
				for p := 0; p < k; p++ {
					acc = math.FMA(float64(ad[i*k+p]), float64(bd[p*n+j]), acc)
				}
			case gemmNT:
				for p := 0; p < k; p++ {
					acc = math.FMA(float64(ad[i*k+p]), float64(bd[j*k+p]), acc)
				}
			case gemmTN:
				for p := 0; p < k; p++ {
					acc = math.FMA(float64(ad[p*m+i]), float64(bd[p*n+j]), acc)
				}
			}
			if bias != nil {
				acc += float64(bias[j])
			}
			od[i*n+j] = float32(applyEp(acc, ep))
		}
	}
}

// Packed blocked path: B strips packed once per (kc×nc) block into 8-wide
// panels, 4-row A panels packed per chunk, 4×8 register-tiled micro-kernel
// (AVX2+FMA on amd64). Edge tiles run the same kernel through a
// zero-padded stack tile whose out-of-range lanes are never stored.

func gemmPacked64(v gemmArgs, par bool) {
	bd, m, k, n := v.bd, v.m, v.k, v.n
	for jc := 0; jc < n; jc += nc {
		nb := min(n-jc, nc)
		panels := (nb + 7) / 8
		bpP := getScratch(panels * min(kc, k) * 8)
		for pc := 0; pc < k; pc += kc {
			kb := min(k-pc, kc)
			bp := (*bpP)[:panels*kb*8]
			if v.kind == gemmNT {
				packBCols64(bp, bd, k, pc, kb, jc, nb)
			} else {
				packBRows64(bp, bd, n, pc, kb, jc, nb)
			}
			v.bp, v.jc, v.nb, v.pc, v.kb, v.lastK = bp, jc, nb, pc, kb, pc+kb == k
			gemmRun(par, (m+3)/4, 8*kb*nb, v, gemmPackedRows64)
		}
		putScratch(bpP)
	}
}

func gemmPackedRows64(v gemmArgs, lo, hi int) {
	kind, od, ad, bp, bias, ep, m, k, n := v.kind, v.od, v.ad, v.bp, v.bias, v.ep, v.m, v.k, v.n
	pc, kb, jc, nb, lastK := v.pc, v.kb, v.jc, v.nb, v.lastK
	apP := getScratch(kb * 4)
	ap := *apP
	panels := (nb + 7) / 8
	var tile [32]float64
	for ib := lo; ib < hi; ib++ {
		i0 := ib * 4
		mb := m - i0
		if mb > 4 {
			mb = 4
		}
		if kind == gemmTN {
			packACols64(ap, ad, m, i0, mb, pc, kb)
		} else {
			packARows64(ap, ad, k, i0, mb, pc, kb)
		}
		for j8 := 0; j8 < panels; j8++ {
			jj := jc + j8*8
			w := nb - j8*8
			if w > 8 {
				w = 8
			}
			bpanel := bp[j8*kb*8 : (j8+1)*kb*8]
			if mb == 4 && w == 8 {
				gemm4x8(kb, ap, bpanel, od[i0*n+jj:], n)
				continue
			}
			for r := 0; r < mb; r++ {
				copy(tile[r*8:r*8+w], od[(i0+r)*n+jj:(i0+r)*n+jj+w])
				for x := w; x < 8; x++ {
					tile[r*8+x] = 0
				}
			}
			for r := mb * 8; r < 32; r++ {
				tile[r] = 0
			}
			gemm4x8(kb, ap, bpanel, tile[:], 8)
			for r := 0; r < mb; r++ {
				copy(od[(i0+r)*n+jj:(i0+r)*n+jj+w], tile[r*8:r*8+w])
			}
		}
		if lastK && (bias != nil || ep != EpNone) {
			for r := 0; r < mb; r++ {
				epilogueRowSeg64(od[(i0+r)*n+jc:(i0+r)*n+jc+nb], bias, jc, ep)
			}
		}
	}
	putScratch(apP)
}

// gemmPacked32 accumulates each nc strip into a pooled float64 buffer —
// intermediate kc blocks never round to float32, preserving the
// "float64 accumulation over the full K" contract — then applies the
// epilogue and rounds once on store.
func gemmPacked32(v gemmArgs) {
	od, bd, bias, ep, m, k, n := v.od32, v.bd32, v.bias32, v.ep, v.m, v.k, v.n
	for jc := 0; jc < n; jc += nc {
		nb := min(n-jc, nc)
		panels := (nb + 7) / 8
		csP := getScratch(m * nb)
		cs := *csP
		for i := 0; i < m; i++ {
			src := od[i*n+jc : i*n+jc+nb]
			dst := cs[i*nb : i*nb+nb]
			for j, v := range src {
				dst[j] = float64(v)
			}
		}
		bpP := getScratch(panels * min(kc, k) * 8)
		for pc := 0; pc < k; pc += kc {
			kb := min(k-pc, kc)
			bp := (*bpP)[:panels*kb*8]
			if v.kind == gemmNT {
				packBCols32(bp, bd, k, pc, kb, jc, nb)
			} else {
				packBRows32(bp, bd, n, pc, kb, jc, nb)
			}
			v.cs, v.bp, v.nb, v.pc, v.kb = cs, bp, nb, pc, kb
			gemmJobs.For((m+3)/4, 8*kb*nb, v, gemmPackedRows32)
		}
		putScratch(bpP)
		for i := 0; i < m; i++ {
			src := cs[i*nb : i*nb+nb]
			dst := od[i*n+jc : i*n+jc+nb]
			if bias != nil {
				for j, v := range src {
					dst[j] = float32(applyEp(v+float64(bias[jc+j]), ep))
				}
			} else {
				for j, v := range src {
					dst[j] = float32(applyEp(v, ep))
				}
			}
		}
		putScratch(csP)
	}
}

// gemmPackedRows32 runs the micro-kernel over the float64 strip cs
// (row stride nb, column origin 0), packing A panels from float32.
func gemmPackedRows32(v gemmArgs, lo, hi int) {
	kind, cs, ad, bp, m, k, nb, pc, kb := v.kind, v.cs, v.ad32, v.bp, v.m, v.k, v.nb, v.pc, v.kb
	apP := getScratch(kb * 4)
	ap := *apP
	panels := (nb + 7) / 8
	var tile [32]float64
	for ib := lo; ib < hi; ib++ {
		i0 := ib * 4
		mb := m - i0
		if mb > 4 {
			mb = 4
		}
		if kind == gemmTN {
			packACols32(ap, ad, m, i0, mb, pc, kb)
		} else {
			packARows32(ap, ad, k, i0, mb, pc, kb)
		}
		for j8 := 0; j8 < panels; j8++ {
			jj := j8 * 8
			w := nb - jj
			if w > 8 {
				w = 8
			}
			bpanel := bp[j8*kb*8 : (j8+1)*kb*8]
			if mb == 4 && w == 8 {
				gemm4x8(kb, ap, bpanel, cs[i0*nb+jj:], nb)
				continue
			}
			for r := 0; r < mb; r++ {
				copy(tile[r*8:r*8+w], cs[(i0+r)*nb+jj:(i0+r)*nb+jj+w])
				for x := w; x < 8; x++ {
					tile[r*8+x] = 0
				}
			}
			for r := mb * 8; r < 32; r++ {
				tile[r] = 0
			}
			gemm4x8(kb, ap, bpanel, tile[:], 8)
			for r := 0; r < mb; r++ {
				copy(cs[(i0+r)*nb+jj:(i0+r)*nb+jj+w], tile[r*8:r*8+w])
			}
		}
	}
	putScratch(apP)
}

// Reference kernels: the floating-point contract stated literally — one
// scalar FMA chain per element, ascending p, seeded from the prior out
// value. Every optimized path must match these bitwise (kernel_test.go).

func refGemm(kind gemmKind, out, a, b, bias *Tensor, ep Epilogue, acc bool) {
	var m, k, n int
	switch kind {
	case gemmNN:
		m, k, n = a.shape[0], a.shape[1], b.shape[1]
	case gemmNT:
		m, k, n = a.shape[0], a.shape[1], b.shape[0]
	case gemmTN:
		k, m, n = a.shape[0], a.shape[1], b.shape[1]
	}
	if out.shape[0] != m || out.shape[1] != n {
		panic("tensor: matmul output shape mismatch")
	}
	if !acc {
		out.Zero()
	}
	if out.dtype == Float32 {
		od, ad, bd := out.data32, a.data32, b.data32
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				acc := float64(od[i*n+j])
				switch kind {
				case gemmNN:
					for p := 0; p < k; p++ {
						acc = math.FMA(float64(ad[i*k+p]), float64(bd[p*n+j]), acc)
					}
				case gemmNT:
					for p := 0; p < k; p++ {
						acc = math.FMA(float64(ad[i*k+p]), float64(bd[j*k+p]), acc)
					}
				case gemmTN:
					for p := 0; p < k; p++ {
						acc = math.FMA(float64(ad[p*m+i]), float64(bd[p*n+j]), acc)
					}
				}
				if bias != nil {
					acc += float64(bias.data32[j])
				}
				od[i*n+j] = float32(applyEp(acc, ep))
			}
		}
		return
	}
	od, ad, bd := out.data, a.data, b.data
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			acc := od[i*n+j]
			switch kind {
			case gemmNN:
				for p := 0; p < k; p++ {
					acc = math.FMA(ad[i*k+p], bd[p*n+j], acc)
				}
			case gemmNT:
				for p := 0; p < k; p++ {
					acc = math.FMA(ad[i*k+p], bd[j*k+p], acc)
				}
			case gemmTN:
				for p := 0; p < k; p++ {
					acc = math.FMA(ad[p*m+i], bd[p*n+j], acc)
				}
			}
			if bias != nil {
				acc += bias.data[j]
			}
			od[i*n+j] = applyEp(acc, ep)
		}
	}
}

// RefMatMulInto is the naive reference for MatMulInto (out = a·b). It is
// kept for bitwise cross-checks and benchmark baselines, not speed.
func RefMatMulInto(out, a, b *Tensor) *Tensor {
	refGemm(gemmNN, out, a, b, nil, EpNone, false)
	return out
}

// RefMatMulTInto is the naive reference for MatMulTInto (out = a·bᵀ).
func RefMatMulTInto(out, a, b *Tensor) *Tensor {
	refGemm(gemmNT, out, a, b, nil, EpNone, false)
	return out
}

// RefTMatMulInto is the naive reference for TMatMulInto (out = aᵀ·b).
func RefTMatMulInto(out, a, b *Tensor) *Tensor {
	refGemm(gemmTN, out, a, b, nil, EpNone, false)
	return out
}
