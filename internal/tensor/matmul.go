package tensor

// The matmul family. Every entry point below is a thin shim over the
// shared GEMM engine in kernel.go: one floating-point contract (exactly
// rounded FMA accumulation in ascending-k order, seeded from the output's
// prior value), one parallel runtime (parallel.go), one 4×8 micro-kernel
// behind paths chosen by shape alone (small, small-m, direct in place,
// packed blocked), and optional fused epilogues (bias add + activation)
// that replace separate bias-add and activation passes over the output.
//
// Naming: MatMul is a·b, MatMulT is a·bᵀ, TMatMul is aᵀ·b (none
// materialize a transpose). Every entry point writes into a caller-owned
// out. The Acc variants add on top of out instead of overwriting it — the
// FMA chain simply starts from out's current values, so out += a·b costs
// the same as out = a·b and needs no temporary.

// MatMulInto computes out = a×b, reusing out's storage. out must have
// shape (M,N) and is overwritten.
func MatMulInto(out, a, b *Tensor) {
	gemmEx(gemmNN, out, a, b, nil, EpNone, false)
}

// MatMulBiasInto computes out = a×b + bias, with bias (length N)
// broadcast over rows — the fused Dense/conv forward. The bias is added
// with a plain + after the full-K accumulation, exactly matching a
// separate bias-add pass.
func MatMulBiasInto(out, a, b, bias *Tensor) {
	gemmEx(gemmNN, out, a, b, bias, EpNone, false)
}

// MatMulAccBiasActInto computes out = act(out + a×b + bias): the fused
// GRU gate pattern (x·Wx already in out, then + h·Wh + bias, then the
// gate activation).
func MatMulAccBiasActInto(out, a, b, bias *Tensor, act Epilogue) {
	gemmEx(gemmNN, out, a, b, bias, act, true)
}

// MatMulTInto computes out = a×bᵀ, reusing out's storage. out must have
// shape (M,N) and is overwritten.
func MatMulTInto(out, a, b *Tensor) {
	gemmEx(gemmNT, out, a, b, nil, EpNone, false)
}

// MatMulTAccInto computes out += a×bᵀ (input-gradient accumulation).
func MatMulTAccInto(out, a, b *Tensor) {
	gemmEx(gemmNT, out, a, b, nil, EpNone, true)
}

// TMatMulAccInto computes out += aᵀ×b: the weight-gradient accumulation
// (W.Grad += xᵀ·dy) fused into the kernel, with no gradient temporary.
func TMatMulAccInto(out, a, b *Tensor) {
	gemmEx(gemmTN, out, a, b, nil, EpNone, true)
}

// The Serial entry points run one GEMM on raw row-major slices,
// entirely on the calling goroutine. They are for callers that already
// parallelise at a coarser level and walk row ranges of larger buffers in
// a tight loop (nn.GRU splits the batch and steps through time-major
// stashes): no Tensor header per row-range view, and no nested parallel
// dispatch inside the caller's own parallel region. Same floating-point
// contract as the Tensor-level family, so the results are bitwise those
// of the matching Into call.

// MatMulAccBiasActSerial computes out = act(out + a×b + bias) for
// row-major a (m×k), b (k×n), out (m×n); bias (length n) may be nil.
func MatMulAccBiasActSerial(out, a, b, bias []float64, m, k, n int, act Epilogue) {
	checkSerial(len(out), len(a), len(b), m*n, m*k, k*n)
	if bias != nil && len(bias) != n {
		panic("tensor: matmul bias length mismatch")
	}
	if m == 0 || n == 0 {
		return
	}
	gemm64(gemmNN, out, a, b, bias, m, k, n, act, false, true)
}

// MatMulTSerial computes out = a×bᵀ (acc false) or out += a×bᵀ (acc
// true) for row-major a (m×k), b (n×k), out (m×n).
func MatMulTSerial(out, a, b []float64, m, k, n int, acc bool) {
	checkSerial(len(out), len(a), len(b), m*n, m*k, n*k)
	if m == 0 || n == 0 {
		return
	}
	gemm64(gemmNT, out, a, b, nil, m, k, n, EpNone, false, acc)
}

// TMatMulAccSerial computes out += aᵀ×b for row-major a (k×m), b (k×n),
// out (m×n): a weight-gradient accumulation as one task of a caller's own
// parallel region.
func TMatMulAccSerial(out, a, b []float64, m, k, n int) {
	checkSerial(len(out), len(a), len(b), m*n, k*m, k*n)
	if m == 0 || n == 0 {
		return
	}
	gemm64(gemmTN, out, a, b, nil, m, k, n, EpNone, false, true)
}

func checkSerial(lo, la, lb, wo, wa, wb int) {
	if lo != wo || la != wa || lb != wb {
		panic("tensor: serial matmul slice length does not match its dimensions")
	}
}

// MatVec returns a×x for a (M,K) matrix and length-K vector, as shape (M).
func MatVec(a, x *Tensor) *Tensor {
	if len(a.shape) != 2 {
		panic("tensor: MatVec requires a 2-D matrix")
	}
	m, k := a.shape[0], a.shape[1]
	if x.Size() != k {
		panic("tensor: MatVec vector length mismatch")
	}
	out := New(m)
	for i := 0; i < m; i++ {
		row := a.data[i*k : (i+1)*k]
		s := 0.0
		for j, v := range row {
			s += float64(v * x.data[j])
		}
		out.data[i] = s
	}
	return out
}
