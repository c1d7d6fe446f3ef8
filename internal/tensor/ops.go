package tensor

import (
	"fmt"
	"math"
)

// checkSame panics unless a and b have identical shapes.
func checkSame(op string, a, b *Tensor) {
	if !SameShape(a, b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
}

// Add returns a+b elementwise.
func Add(a, b *Tensor) *Tensor {
	checkSame("Add", a, b)
	return AddInto(New(a.shape...), a, b)
}

// Sub returns a-b elementwise.
func Sub(a, b *Tensor) *Tensor {
	checkSame("Sub", a, b)
	return SubInto(New(a.shape...), a, b)
}

// Mul returns a*b elementwise (Hadamard product).
func Mul(a, b *Tensor) *Tensor {
	checkSame("Mul", a, b)
	return MulInto(New(a.shape...), a, b)
}

// Div returns a/b elementwise.
func Div(a, b *Tensor) *Tensor {
	checkSame("Div", a, b)
	return DivInto(New(a.shape...), a, b)
}

// AddInPlace sets a += b.
func (t *Tensor) AddInPlace(b *Tensor) *Tensor { return AddInto(t, t, b) }

// SubInPlace sets a -= b.
func (t *Tensor) SubInPlace(b *Tensor) *Tensor { return SubInto(t, t, b) }

// MulInPlace sets a *= b elementwise.
func (t *Tensor) MulInPlace(b *Tensor) *Tensor { return MulInto(t, t, b) }

// Scale multiplies every element by s in place.
func (t *Tensor) Scale(s float64) *Tensor {
	VecScaleInto(t.data, t.data, s)
	return t
}

// AddScalar adds s to every element in place.
func (t *Tensor) AddScalar(s float64) *Tensor {
	for i := range t.data {
		t.data[i] += s
	}
	return t
}

// Axpy performs t += alpha*x (BLAS axpy) in place.
func (t *Tensor) Axpy(alpha float64, x *Tensor) *Tensor {
	checkSame("Axpy", t, x)
	AxpyInto(t.data, alpha, x.data)
	return t
}

// ApplyInPlace applies f to each element in place.
func (t *Tensor) ApplyInPlace(f func(float64) float64) *Tensor {
	return ApplyInto(t, t, f)
}

// Dot returns the inner product of a and b viewed as flat vectors.
func Dot(a, b *Tensor) float64 {
	if len(a.data) != len(b.data) {
		panic("tensor: Dot length mismatch")
	}
	s := 0.0
	for i := range a.data {
		s += a.data[i] * b.data[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of the tensor viewed as a flat vector.
func (t *Tensor) Norm2() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Max returns the maximum element. Panics on empty tensors.
func (t *Tensor) Max() float64 {
	if len(t.data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element. Panics on empty tensors.
func (t *Tensor) Min() float64 {
	if len(t.data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Argmax returns the flat index of the maximum element.
func (t *Tensor) Argmax() int {
	best, bi := math.Inf(-1), 0
	for i, v := range t.data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// ArgmaxRows returns, for a 2-D tensor, the argmax of each row.
func (t *Tensor) ArgmaxRows() []int {
	if len(t.shape) != 2 {
		panic("tensor: ArgmaxRows requires a 2-D tensor")
	}
	return t.ArgmaxRowsInto(nil)
}

// SumAxis0 reduces a 2-D tensor over rows, returning a length-C vector
// shaped (C).
func SumAxis0(a *Tensor) *Tensor {
	if len(a.shape) != 2 {
		panic("tensor: SumAxis0 requires a 2-D tensor")
	}
	return SumAxis0Into(New(a.shape[1]), a)
}

// MeanAxis0 reduces a 2-D tensor over rows by averaging.
func MeanAxis0(a *Tensor) *Tensor {
	out := SumAxis0(a)
	if a.shape[0] > 0 {
		out.Scale(1 / float64(a.shape[0]))
	}
	return out
}

// AddRowVector adds vector v (shape (C)) to every row of the 2-D tensor in
// place.
func (t *Tensor) AddRowVector(v *Tensor) *Tensor {
	if len(t.shape) != 2 || len(v.data) != t.shape[1] {
		panic("tensor: AddRowVector shape mismatch")
	}
	r, c := t.shape[0], t.shape[1]
	for i := 0; i < r; i++ {
		row := t.data[i*c : (i+1)*c]
		for j := range row {
			row[j] += v.data[j]
		}
	}
	return t
}

// MulRowVector multiplies every row of the 2-D tensor by v elementwise, in
// place.
func (t *Tensor) MulRowVector(v *Tensor) *Tensor {
	if len(t.shape) != 2 || len(v.data) != t.shape[1] {
		panic("tensor: MulRowVector shape mismatch")
	}
	r, c := t.shape[0], t.shape[1]
	for i := 0; i < r; i++ {
		row := t.data[i*c : (i+1)*c]
		for j := range row {
			row[j] *= v.data[j]
		}
	}
	return t
}

// SoftmaxRows returns the row-wise softmax of a 2-D tensor, computed with
// the max-subtraction trick for numerical stability.
func SoftmaxRows(a *Tensor) *Tensor {
	if len(a.shape) != 2 {
		panic("tensor: SoftmaxRows requires a 2-D tensor")
	}
	return SoftmaxRowsInto(New(a.shape...), a)
}

// Transpose returns the transpose of a 2-D tensor.
func Transpose(a *Tensor) *Tensor {
	if len(a.shape) != 2 {
		panic("tensor: Transpose requires a 2-D tensor")
	}
	return TransposeInto(New(a.shape[1], a.shape[0]), a)
}

// Clip bounds each element to [lo, hi] in place.
func (t *Tensor) Clip(lo, hi float64) *Tensor {
	for i, v := range t.data {
		if v < lo {
			t.data[i] = lo
		} else if v > hi {
			t.data[i] = hi
		}
	}
	return t
}
