// Package tensor implements a small dense-tensor library used as the
// numerical substrate for the neural-network and SVM packages.
//
// Tensors are row-major, contiguous, float64. The package provides the
// BLAS-like kernels (blocked parallel matmul, axpy, elementwise ops),
// im2col-based convolution helpers, and axis reductions that the rest of
// the repository builds on. It deliberately avoids clever stride tricks:
// every tensor owns its data, which keeps the distributed-training code
// (which serializes gradients into flat buffers) simple and predictable.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Tensor is a dense, row-major, contiguous n-dimensional array.
type Tensor struct {
	shape []int
	data  []float64
	// wsIdx is the tensor's slot in its owning Workspace's live-borrow
	// list while borrowed (Workspace.Get), -1 once released. Tensors that
	// never passed through a workspace leave it at the zero value; Put
	// validates against the live list, so the field never misfires.
	wsIdx int
}

// New allocates a zero-filled tensor with the given shape. A scalar may be
// represented by an empty shape. Panics on negative dimensions.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// The message deliberately omits the full shape: formatting it
			// would make the variadic slice escape, putting a heap
			// allocation on every New/Workspace.Get call site.
			panic(fmt.Sprintf("tensor: negative dimension %d", d))
		}
		n *= d
	}
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float64, n)}
}

// FromSlice wraps data into a tensor with the given shape. The slice is
// used directly (not copied); len(data) must equal the shape volume.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (need %d)", len(data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// Ones allocates a tensor filled with 1.
func Ones(shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = 1
	}
	return t
}

// Full allocates a tensor filled with v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Randn fills a new tensor with samples from N(0, std²) drawn from rng.
func Randn(rng *rand.Rand, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = rng.NormFloat64() * std
	}
	return t
}

// RandUniform fills a new tensor with samples from U[lo, hi).
func RandUniform(rng *rand.Rand, lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = lo + float64(rng.Float64()*(hi-lo))
	}
	return t
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified by the caller.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of axis i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// NDim returns the number of axes.
func (t *Tensor) NDim() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data exposes the underlying flat buffer. Mutating it mutates the
// tensor.
func (t *Tensor) Data() []float64 { return t.data }

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.offset(idx)] }

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		badIndex(idx, "does not match", t.shape)
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			badIndex(idx, "out of range for", t.shape)
		}
		off = off*t.shape[i] + x
	}
	return off
}

// badIndex panics naming idx and shape. It formats copies, so that idx
// does not escape: the variadic index slice of every At and Set call then
// stays on the caller's stack instead of costing an allocation.
func badIndex(idx []int, what string, shape []int) {
	panic(fmt.Sprintf("tensor: index %v %s shape %v", slices.Clone(idx), what, slices.Clone(shape)))
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// CopyFrom copies src's data into t. Shapes must have equal volume.
func (t *Tensor) CopyFrom(src *Tensor) {
	if t.Size() != src.Size() {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %v vs %v", t.shape, src.shape))
	}
	copy(t.data, src.data)
}

// Reshape returns a view-like tensor sharing data with t but with a new
// shape of equal volume. One dimension may be -1 (inferred).
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n, infer := 1, -1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: multiple -1 dims in Reshape")
			}
			infer = i
			continue
		}
		n *= d
	}
	out := append([]int(nil), shape...)
	size := t.Size()
	if infer >= 0 {
		// Messages omit the requested shape so the variadic slice does not
		// escape (see New); t.shape still identifies the tensor.
		if n == 0 || size%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer Reshape dim for %v", t.shape))
		}
		out[infer] = size / n
		n *= out[infer]
	}
	if n != size {
		panic(fmt.Sprintf("tensor: Reshape volume %d mismatch for %v", n, t.shape))
	}
	return &Tensor{shape: out, data: t.data}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Row returns a view of row r of a 2-D tensor as a flat slice.
func (t *Tensor) Row(r int) []float64 {
	if len(t.shape) != 2 {
		panic("tensor: Row requires a 2-D tensor")
	}
	c := t.shape[1]
	return t.data[r*c : (r+1)*c]
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

// AllClose reports whether a and b have the same shape and all elements
// within atol absolute tolerance.
func AllClose(a, b *Tensor, atol float64) bool {
	if !SameShape(a, b) {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > atol {
			return false
		}
	}
	return true
}

// String renders a compact description (shape plus a few leading values).
func (t *Tensor) String() string {
	n := len(t.data)
	if n > 6 {
		n = 6
	}
	return fmt.Sprintf("Tensor%v%v…", t.shape, t.data[:n])
}
