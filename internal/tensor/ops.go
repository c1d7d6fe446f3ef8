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

// Sub returns a-b elementwise.
func Sub(a, b *Tensor) *Tensor {
	checkSame("Sub", a, b)
	return SubInto(New(a.shape...), a, b)
}

// AddInPlace sets a += b.
func (t *Tensor) AddInPlace(b *Tensor) *Tensor { return AddInto(t, t, b) }

// Scale multiplies every element by s in place.
func (t *Tensor) Scale(s float64) *Tensor {
	VecScaleInto(t.data, t.data, s)
	return t
}

// Dot returns the inner product of a and b viewed as flat vectors.
func Dot(a, b *Tensor) float64 {
	if len(a.data) != len(b.data) {
		panic("tensor: Dot length mismatch")
	}
	s := 0.0
	for i := range a.data {
		s += float64(a.data[i] * b.data[i])
	}
	return s
}

// Norm2 returns the Euclidean norm of the tensor viewed as a flat vector.
func (t *Tensor) Norm2() float64 {
	s := 0.0
	for _, v := range t.data {
		s += float64(v * v)
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
