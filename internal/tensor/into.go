package tensor

import "math"

// Into-variants of the allocating elementwise/reduction ops. Each op has
// exactly one kernel — the Into form — and every other spelling
// (allocating Foo, method FooInPlace) is a thin wrapper over it, so all
// paths stay bitwise identical by construction. The elementwise kernels
// run on the shared Jobs.For runtime when the tensor is large enough to
// pay for it.
//
// Naming convention: out must have the correct shape and is fully
// overwritten. out may not alias an input unless the specific op notes
// it is safe.

// ewArgs is the operands of one binary elementwise kernel; the range
// functions below compute out[lo:hi).
type ewArgs struct{ od, ad, bd []float64 }

var ewJobs Jobs[ewArgs]

func subRange(e ewArgs, lo, hi int) {
	for i := lo; i < hi; i++ {
		e.od[i] = e.ad[i] - e.bd[i]
	}
}

// AddInto sets out = a+b elementwise. out may alias a or b.
func AddInto(out, a, b *Tensor) *Tensor {
	checkSame("AddInto", a, b)
	checkSame("AddInto", out, a)
	VecAddInto(out.data, a.data, b.data)
	return out
}

// SubInto sets out = a-b elementwise. out may alias a or b.
func SubInto(out, a, b *Tensor) *Tensor {
	checkSame("SubInto", a, b)
	checkSame("SubInto", out, a)
	ewJobs.For(len(out.data), 1, ewArgs{out.data, a.data, b.data}, subRange)
	return out
}

// applyArgs is ApplyInto's function and operands.
type applyArgs struct {
	od, ad []float64
	f      func(float64) float64
}

var applyJobs Jobs[applyArgs]

func applyRange(v applyArgs, lo, hi int) {
	for i := lo; i < hi; i++ {
		v.od[i] = v.f(v.ad[i])
	}
}

// ApplyInto sets out[i] = f(a[i]). out may alias a.
func ApplyInto(out, a *Tensor, f func(float64) float64) *Tensor {
	checkSame("ApplyInto", out, a)
	// f is an arbitrary function call per element: assume it is
	// expensive enough to parallelize an order of magnitude sooner than
	// the arithmetic kernels.
	const applyCost = 16
	applyJobs.For(len(out.data), applyCost, applyArgs{od: out.data, ad: a.data, f: f}, applyRange)
	return out
}

// SumAxis0Into reduces a 2-D tensor over rows into out (shape (C)),
// overwriting out.
func SumAxis0Into(out, a *Tensor) *Tensor {
	if len(a.shape) != 2 {
		panic("tensor: SumAxis0Into requires a 2-D tensor")
	}
	if out.Size() != a.shape[1] {
		panic("tensor: SumAxis0Into output size mismatch")
	}
	r, c := a.shape[0], a.shape[1]
	for j := range out.data {
		out.data[j] = 0
	}
	for i := 0; i < r; i++ {
		row := a.data[i*c : (i+1)*c]
		for j, v := range row {
			out.data[j] += v
		}
	}
	return out
}

// softmaxArgs is a row-major (·, c) input and output.
type softmaxArgs struct {
	od, ad []float64
	c      int
}

var softmaxJobs Jobs[softmaxArgs]

// softmaxRows computes the row-wise softmax for rows [lo,hi).
func softmaxRows(v softmaxArgs, lo, hi int) {
	od, ad, c := v.od, v.ad, v.c
	for i := lo; i < hi; i++ {
		row := ad[i*c : (i+1)*c]
		orow := od[i*c : (i+1)*c]
		m := math.Inf(-1)
		for _, v := range row {
			if v > m {
				m = v
			}
		}
		s := 0.0
		for j, v := range row {
			e := math.Exp(v - m)
			orow[j] = e
			s += e
		}
		inv := 1 / s
		for j := range orow {
			orow[j] *= inv
		}
	}
}

// SoftmaxRowsInto computes the row-wise softmax of a into out (same
// shape), with the max-subtraction trick, parallelized over rows. out
// may alias a.
func SoftmaxRowsInto(out, a *Tensor) *Tensor {
	if len(a.shape) != 2 {
		panic("tensor: SoftmaxRowsInto requires a 2-D tensor")
	}
	checkSame("SoftmaxRowsInto", out, a)
	r, c := a.shape[0], a.shape[1]
	// ~3 passes over the row, one of them math.Exp.
	cost := 24 * c
	softmaxJobs.For(r, cost, softmaxArgs{out.data, a.data, c}, softmaxRows)
	return out
}

// ArgmaxRowsInto fills dst with the per-row argmax of a 2-D tensor, growing dst only when its capacity is insufficient, and
// returns it.
func (t *Tensor) ArgmaxRowsInto(dst []int) []int {
	if len(t.shape) != 2 {
		panic("tensor: ArgmaxRowsInto requires a 2-D tensor")
	}
	r, c := t.shape[0], t.shape[1]
	if cap(dst) < r {
		dst = make([]int, r)
	}
	dst = dst[:r]
	for i := 0; i < r; i++ {
		row := t.data[i*c : (i+1)*c]
		best, bi := math.Inf(-1), 0
		for j, v := range row {
			if v > best {
				best, bi = v, j
			}
		}
		dst[i] = bi
	}
	return dst
}
