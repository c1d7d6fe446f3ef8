package tensor

import "math"

// The shared GEMM engine behind MatMulInto, MatMulTInto, TMatMulInto and
// their fused bias/activation/accumulate variants (matmul.go).
//
// Floating-point contract, shared by every path (scalar reference, axpy
// small path, small-m, direct and packed AVX2 paths, any worker split):
// each output element is an exactly-rounded FMA chain over products in
// ascending p order, seeded from the element's prior value (+0 when not
// accumulating: out is zeroed first, or on the direct path each row block
// is, inside the parallel loop). Bias is added with a plain + after the
// full-K chain, then the activation is applied: the repo's own Sigmoid
// and Tanh (exp.go), whose scalar code and AVX2 kernels round every
// operation once. Because every path follows the same recipe, results
// are bitwise identical across kernels, worker counts and architectures
// — kernel_test.go pins this against the Ref* kernels below. What still
// calls math.Exp, whose bits differ between ports, is outside this
// engine: the softmax (into.go), the losses and GRU-D (package nn).
//
// The element kernels beside the engine keep the same contract, each
// AVX2 lane doing its Go mirror's operations in order, rounded once
// each, never fused: the vector ops and the gated rectifier vecReLU
// (vec.go), Sigmoid and Tanh (exp.go), and the batch-norm kernels
// (bn.go) — the channel-lane sums chanSums4, whose lanes are four
// channels' serial chains, and the normalise and backward passes — and
// the conv tile store convStore (conv.go): the bias, then in eval the
// batch norm's normalise expression and the rectifier, in registers.
// The conv engine's micro-kernels run the same FMA step: conv4x8 and
// conv4x8Taps (forward), gemm4x8Rows (filter gradient) and convGather
// (input gradient: per tap a zero-seeded chain, then one plain add to the
// running tile, running value first).

// Epilogue selects the activation fused after the bias add.
type Epilogue uint8

const (
	EpNone Epilogue = iota
	EpSigmoid
	EpTanh
)

// applyEp is the per-element epilogue; epilogueRowSeg64 runs the same
// functions through their vector kernels.
func applyEp(v float64, ep Epilogue) float64 {
	switch ep {
	case EpSigmoid:
		return Sigmoid(v)
	case EpTanh:
		return Tanh(v)
	}
	return v
}

type gemmKind uint8

const (
	gemmNN gemmKind = iota // out = a·b        a (m,k), b (k,n)
	gemmNT                 // out = a·bᵀ       a (m,k), b (n,k)
	gemmTN                 // out = aᵀ·b       a (k,m), b (k,n)
)

// Four paths, chosen by shape alone (gemm64):
//
//   - below packMinFlops (2·m·n·k flops) the axpy/dot small paths, which
//     need no scratch and no tiling;
//   - at or below smallM rows, NN and NT read their large operand in place
//     (gemmSmallM64): with one or two 4-row blocks to serve, a packed
//     panel is used too few times to repay the copy;
//   - when any of m, n, k is at most directMax, the direct path
//     (gemmDirect64) reads A and B where they lie: a packed B panel would
//     serve few row blocks, a packed A panel few column panels, or either
//     is too short for contiguity to matter, and the copy costs more than
//     it saves (the GRU's T·N-row products, small-batch weight gradients);
//   - otherwise the packed blocked path, for large high-reuse products.
//
// kc and nc are the blocking of the tiled paths: kc the panel depth (a
// kc×8 B panel and a 4×kc A panel stay L1/L2 resident), nc the column
// strip width packed per pass.
const (
	packMinFlops = 1 << 17
	kc           = 512
	nc           = 2048
	smallM       = 8
	directMax    = 64
)

// gemmArgs is one GEMM's operands as its row-range kernels take them,
// and on the packed paths the packed B block (bp) and the current K block
// and column strip. On the small-m path bp holds the packed small operand
// and edge B's packed edge panel; on the direct path bp holds NT's packed
// B, edge B's edge panel and aEdge A's. seed asks the direct path to
// start each row block's chains at +0 (a product that does not
// accumulate).
type gemmArgs struct {
	kind             gemmKind
	ep               Epilogue
	od, ad, bd, bias []float64
	bp, edge, aEdge  []float64
	m, k, n          int
	pc, kb, jc, nb   int
	lastK, seed      bool
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
	if out == a || out == b {
		panic("tensor: matmul output must not alias an input")
	}
	var biasData []float64
	if bias != nil {
		if bias.Size() != n {
			panic("tensor: matmul bias length mismatch")
		}
		biasData = bias.data
	}
	if m == 0 || n == 0 {
		return
	}
	gemm64(kind, out.data, a.data, b.data, biasData, m, k, n, ep, true, acc)
}

// gemm64 runs one GEMM on raw row-major slices: od holds the chain seeds
// when acc is set and is overwritten otherwise. par=false keeps the whole
// product on the calling goroutine (the Serial entry points in
// matmul.go).
func gemm64(kind gemmKind, od, ad, bd, bias []float64, m, k, n int, ep Epilogue, par, acc bool) {
	v := gemmArgs{kind: kind, ep: ep, od: od, ad: ad, bd: bd, bias: bias, m: m, k: k, n: n}
	big := 2*m*n*k >= packMinFlops
	if big && (m > smallM || kind == gemmTN) && min(m, n, k) <= directMax {
		v.seed = !acc
		gemmDirect64(v, par)
		return
	}
	if !acc {
		clear(od)
	}
	if big {
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

// epilogueRowSeg64 applies bias+activation to rows row segments of width
// w at c (row stride ldc), whose columns start at jOff. A plain add (not
// FMA) keeps bias semantics identical to a separate bias-add pass.
func epilogueRowSeg64(c []float64, ldc, rows, w int, bias []float64, jOff int, ep Epilogue) {
	if bias != nil {
		for r := range rows {
			seg := c[r*ldc : r*ldc+w]
			vecAdd(seg, seg, bias[jOff:])
		}
	}
	act := vecSigmoid
	switch ep {
	case EpNone:
		return
	case EpTanh:
		act = vecTanh
	}
	for r := range rows {
		seg := c[r*ldc : r*ldc+w]
		act(seg, seg)
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
			epilogueRowSeg64(orow, n, 1, n, bias, 0, ep)
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
			epilogueRowSeg64(orow, n, 1, n, bias, 0, ep)
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
			epilogueRowSeg64(orow, n, 1, n, bias, 0, ep)
		}
	}
}

// Packed blocked path: B strips packed once per (kc×nc) block into 8-wide
// panels, 4-row A panels packed per chunk, 4×8 register-tiled micro-kernel
// (AVX2+FMA on amd64). Edge tiles run the same kernel through a
// zero-padded stack tile whose out-of-range lanes are never stored.

func gemmPacked64(v gemmArgs, par bool) {
	bd, m, k, n := v.bd, v.m, v.k, v.n
	if m <= smallM && v.kind != gemmTN {
		gemmSmallM64(v, par)
		return
	}
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
			c := od[i0*n+jj:]
			if mb == 4 && w == 8 {
				gemm4x8(kb, ap, 1, 4, bpanel, 8, c, n)
				continue
			}
			loadTile(&tile, c, n, mb, w)
			gemm4x8(kb, ap, 1, 4, bpanel, 8, tile[:], 8)
			storeTile(c, n, &tile, mb, w)
		}
		if lastK && (bias != nil || ep != EpNone) {
			epilogueRowSeg64(od[i0*n+jc:], n, mb, nb, bias, jc, ep)
		}
	}
	putScratch(apP)
}

// loadTile copies the mb×w corner of the C block at c (row stride ldc)
// into tile and zeroes the rest, so an edge block runs the full 4×8
// kernel; storeTile writes the corner back.
func loadTile(tile *[32]float64, c []float64, ldc, mb, w int) {
	*tile = [32]float64{}
	for r := 0; r < mb; r++ {
		copy(tile[r*8:r*8+w], c[r*ldc:])
	}
}

func storeTile(c []float64, ldc int, tile *[32]float64, mb, w int) {
	for r := 0; r < mb; r++ {
		copy(c[r*ldc:r*ldc+w], tile[r*8:])
	}
}

// Small-m path (m ≤ smallM, NN and NT). Packing B would copy the whole
// large operand to feed one or two 4-row blocks, so the kernel reads it
// where it lies instead, and only what is small or ragged is packed, once
// per kc block before the parallel-for: the ≤ 8 rows of A, and B's edge
// panel (n % 8 columns for NN, n % 4 rows of b for NT), zero-padded as on
// the packed path. Every element keeps its one ascending-p FMA chain
// seeded from the prior out, with bias and epilogue on the last K block,
// so the results are bitwise those of the packed path.
//
//   - NN reads B rows in place (bps = n) against the packed 4-row A
//     panels. The loop runs panel-outer, so one B panel serves both row
//     blocks while it is in L1; the split is over 8-column panels.
//   - NT is computed as Cᵀ = b·Aᵀ: four rows of b are the broadcast
//     operand, read in place (ars = k, aps = 1), against Aᵀ packed as one
//     8-wide panel (packBCols64 on A). The 4×8 tile is Cᵀ, gathered from
//     and scattered back to C; the split is over 4-row groups of b.
func gemmSmallM64(v gemmArgs, par bool) {
	m, k, n := v.m, v.k, v.n
	bufP := getScratch(min(kc, k) * 16)
	for pc := 0; pc < k; pc += kc {
		kb := min(k-pc, kc)
		v.bp, v.edge = (*bufP)[:kb*8], (*bufP)[kb*8:kb*16]
		v.pc, v.kb, v.lastK = pc, kb, pc+kb == k
		if v.kind == gemmNT {
			packBCols64(v.bp, v.ad, k, pc, kb, 0, m)
			if r := n % 4; r != 0 {
				packARows64(v.edge, v.bd, k, n-r, r, pc, kb)
			}
			gemmRun(par, (n+3)/4, 8*m*kb, v, gemmSmallMNT64)
			continue
		}
		for i0 := 0; i0 < m; i0 += 4 {
			packARows64(v.bp[i0*kb:], v.ad, k, i0, min(4, m-i0), pc, kb)
		}
		if r := n % 8; r != 0 {
			packBRows64(v.edge, v.bd, n, pc, kb, n-r, r)
		}
		gemmRun(par, (n+7)/8, 16*m*kb, v, gemmSmallMNN64)
	}
	putScratch(bufP)
}

// gemmSmallMNN64 runs 8-column panels [lo,hi) of one kc block.
func gemmSmallMNN64(v gemmArgs, lo, hi int) {
	od, bd, ap, bias, ep, m, n, pc, kb := v.od, v.bd, v.bp, v.bias, v.ep, v.m, v.n, v.pc, v.kb
	var tile [32]float64
	for j8 := lo; j8 < hi; j8++ {
		jj := j8 * 8
		w := min(8, n-jj)
		b, bps := bd[pc*n+jj:], n
		if w < 8 {
			b, bps = v.edge, 8
		}
		for i0 := 0; i0 < m; i0 += 4 {
			mb := min(4, m-i0)
			a, c := ap[i0*kb:], od[i0*n+jj:]
			if mb == 4 && w == 8 {
				gemm4x8(kb, a, 1, 4, b, bps, c, n)
				continue
			}
			loadTile(&tile, c, n, mb, w)
			gemm4x8(kb, a, 1, 4, b, bps, tile[:], 8)
			storeTile(c, n, &tile, mb, w)
		}
		if v.lastK && (bias != nil || ep != EpNone) {
			epilogueRowSeg64(od[jj:], n, m, w, bias, jj, ep)
		}
	}
}

// gemmSmallMNT64 runs 4-row groups [lo,hi) of b, i.e. columns
// [4·lo, 4·hi) of C, for one kc block. The tile holds Cᵀ: tile[r*8+i] is
// C[i][j0+r].
func gemmSmallMNT64(v gemmArgs, lo, hi int) {
	od, bd, ap, bias, ep, m, k, n, pc, kb := v.od, v.bd, v.bp, v.bias, v.ep, v.m, v.k, v.n, v.pc, v.kb
	epi := v.lastK && (bias != nil || ep != EpNone)
	var tile [32]float64
	for g := lo; g < hi; g++ {
		j0 := g * 4
		rows := min(4, n-j0)
		a, ars, aps := bd[j0*k+pc:], k, 1
		if rows < 4 {
			a, ars, aps = v.edge, 1, 4
		}
		tile = [32]float64{}
		for r := 0; r < rows; r++ {
			for i := 0; i < m; i++ {
				tile[r*8+i] = od[i*n+j0+r]
			}
		}
		gemm4x8(kb, a, ars, aps, ap, 8, tile[:], 8)
		for r := 0; r < rows; r++ {
			for i := 0; i < m; i++ {
				x := tile[r*8+i]
				if epi {
					if bias != nil {
						x += bias[j0+r]
					}
					x = applyEp(x, ep)
				}
				od[i*n+j0+r] = x
			}
		}
	}
}

// Direct path (min(m, n, k) ≤ directMax beyond the small-m cases). The
// 4×8 kernel reads A where it lies — rows at stride k for NN and NT
// (ars, aps = k, 1), columns of a for TN (1, m) — and B's rows where they
// lie for NN and TN (bps = n). Only what the kernel cannot read in place
// is packed, once per kc block before the parallel-for and zero-padded as
// on the packed path: NT's B = bᵀ (the kernel wants eight consecutive
// columns of B), the ragged last n % 8 columns of B and the last m % 4
// rows of A. The split
// is over 4-row blocks, each owning whole rows of C, so a non-accumulating
// product clears a block's rows just before its first K block instead of
// zeroing C in a serial pass before the product. Every element keeps its
// one ascending-p FMA chain, so the bits are those of every other path.
func gemmDirect64(v gemmArgs, par bool) {
	m, k, n := v.m, v.k, v.n
	bw := 8
	if v.kind == gemmNT {
		bw = (n + 7) / 8 * 8
	}
	bufP := getScratch(min(kc, k) * (bw + 4))
	for pc := 0; pc < k; pc += kc {
		kb := min(k-pc, kc)
		v.pc, v.kb, v.lastK = pc, kb, pc+kb == k
		buf := (*bufP)[:kb*(bw+4)]
		v.aEdge = buf[kb*bw:]
		if r := m % 4; r != 0 {
			if v.kind == gemmTN {
				packACols64(v.aEdge, v.ad, m, m-r, r, pc, kb)
			} else {
				packARows64(v.aEdge, v.ad, k, m-r, r, pc, kb)
			}
		}
		switch r := n % 8; {
		case v.kind == gemmNT:
			v.bp = buf[:kb*bw]
			packBCols64(v.bp, v.bd, k, pc, kb, 0, n)
		case r != 0:
			v.edge = buf[:kb*8]
			packBRows64(v.edge, v.bd, n, pc, kb, n-r, r)
		}
		gemmRun(par, (m+3)/4, 8*kb*n, v, gemmDirectRows64)
	}
	putScratch(bufP)
}

// gemmDirectRows64 runs 4-row blocks [lo,hi) of C for one kc block.
func gemmDirectRows64(v gemmArgs, lo, hi int) {
	kind, od, ad, bd, bias, ep, m, k, n, pc, kb := v.kind, v.od, v.ad, v.bd, v.bias, v.ep, v.m, v.k, v.n, v.pc, v.kb
	var tile [32]float64
	for ib := lo; ib < hi; ib++ {
		i0 := ib * 4
		mb := min(4, m-i0)
		a, ars, aps := ad[i0*k+pc:], k, 1
		switch {
		case mb < 4:
			a, ars, aps = v.aEdge, 1, 4
		case kind == gemmTN:
			a, ars, aps = ad[pc*m+i0:], 1, m
		}
		c := od[i0*n : (i0+mb)*n]
		if v.seed && pc == 0 {
			clear(c)
		}
		for jj := 0; jj < n; jj += 8 {
			w := min(8, n-jj)
			b, bps := bd[pc*n+jj:], n
			switch {
			case kind == gemmNT:
				b, bps = v.bp[jj*kb:], 8
			case w < 8:
				b, bps = v.edge, 8
			}
			if mb == 4 && w == 8 {
				gemm4x8(kb, a, ars, aps, b, bps, c[jj:], n)
				continue
			}
			loadTile(&tile, c[jj:], n, mb, w)
			gemm4x8(kb, a, ars, aps, b, bps, tile[:], 8)
			storeTile(c[jj:], n, &tile, mb, w)
		}
		if v.lastK && (bias != nil || ep != EpNone) {
			epilogueRowSeg64(c, n, mb, n, bias, 0, ep)
		}
	}
}
