package tensor

import (
	"fmt"
	"math/bits"
)

// Workspace is a size-bucketed tensor pool for hot-path reuse: Get borrows
// a zero-filled tensor (recycling storage from a free list keyed by
// capacity class), Put releases one early, and ReleaseAll recycles every
// outstanding borrow at once — the arena reset a training step or an
// inference batch performs at its start. After the first pass over a fixed
// set of shapes, the pool serves every request from its free lists and the
// steady state performs no heap allocation.
//
// Semantics:
//
//   - Get returns a zero-filled tensor, exactly like New, so pooled and
//     allocating code paths compute bitwise-identical results.
//   - Tensors borrowed from a workspace are valid until the owner's next
//     ReleaseAll. Holding one across that boundary is a use-after-release
//     bug, the same contract as any arena allocator.
//   - A Workspace is NOT safe for concurrent use. Each goroutine-owned
//     hot loop (one trainer rank, one serving backend, one dispatch
//     worker) owns its own instance. This mirrors how layers themselves
//     are single-goroutine objects.
//   - All methods are nil-safe: a nil *Workspace degrades to plain
//     allocation (Get == New, Put and ReleaseAll are no-ops), so code can
//     thread an optional workspace without branching at every call site.
//
// InUse reports the number of outstanding borrows; tests use it (plus the
// panics on double-Put / foreign-Put) as a leak check.
type Workspace struct {
	// free holds recycled tensors by capacity class: class c stores
	// tensors whose data capacity is exactly 1<<c (class 0 also holds
	// empty tensors).
	free [maxSizeClass][]*Tensor
	// live tracks outstanding borrows so ReleaseAll can recycle them and
	// leak checks can count them. A borrowed tensor remembers its index
	// here (wsIdx) for O(1) early release.
	live []*Tensor

	news int // fresh allocations (pool misses), for Allocs
}

const maxSizeClass = 48

// NewWorkspace creates an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// sizeClass returns the free-list class for a payload of n float64s: the
// exponent of the next power of two ≥ n.
func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Get borrows a zero-filled tensor of the given shape. On a nil
// workspace it is exactly New. The returned tensor must not be retained
// past the owner's next ReleaseAll.
func (w *Workspace) Get(shape ...int) *Tensor {
	return w.get(true, shape...)
}

// GetUninit borrows a tensor whose contents are unspecified —
// whatever the recycled storage last held. It is for buffers the caller
// overwrites in full before reading (a layout copy, a kernel output),
// where Get's zero-fill would be a wasted pass over memory; any element
// the caller does not write is a bug, not a zero. On a nil workspace it
// is New.
func (w *Workspace) GetUninit(shape ...int) *Tensor {
	return w.get(false, shape...)
}

func (w *Workspace) get(zero bool, shape ...int) *Tensor {
	if w == nil {
		return New(shape...)
	}
	n := 1
	for _, d := range shape {
		if d < 0 {
			// Omitting the shape from the message keeps the variadic slice
			// from escaping (see New).
			panic(fmt.Sprintf("tensor: negative dimension %d", d))
		}
		n *= d
	}
	c := sizeClass(n)
	var t *Tensor
	if fl := w.free[c]; len(fl) > 0 {
		t = fl[len(fl)-1]
		fl[len(fl)-1] = nil
		w.free[c] = fl[:len(fl)-1]
		t.data = t.data[:n]
		if zero {
			clear(t.data)
		}
		t.shape = append(t.shape[:0], shape...)
	} else {
		capN := 1
		if n > 1 {
			capN = 1 << c
		}
		t = &Tensor{shape: append([]int(nil), shape...), data: make([]float64, n, capN)}
		w.news++
	}
	t.wsIdx = len(w.live)
	w.live = append(w.live, t)
	return t
}

// Put releases a borrowed tensor back to its free list before the next
// ReleaseAll — the early-release path tight loops (a GRU's timestep
// scratch) use to keep the pool small. Panics if t was not borrowed from
// this workspace or was already released: that panic is the leak/double-
// free check the tests lean on. No-op on a nil workspace or nil tensor.
func (w *Workspace) Put(t *Tensor) {
	if w == nil || t == nil {
		return
	}
	if t.wsIdx < 0 || t.wsIdx >= len(w.live) || w.live[t.wsIdx] != t {
		panic("tensor: Put of tensor not currently borrowed from this workspace")
	}
	// Swap-remove from the live list, fixing the moved tensor's index.
	last := len(w.live) - 1
	moved := w.live[last]
	w.live[t.wsIdx] = moved
	moved.wsIdx = t.wsIdx
	w.live[last] = nil
	w.live = w.live[:last]
	w.recycle(t)
}

// ReleaseAll recycles every outstanding borrow: the arena reset performed
// at the top of a training step or inference batch. Tensors handed out by
// Get before this call must no longer be used. No-op on nil.
func (w *Workspace) ReleaseAll() {
	if w == nil {
		return
	}
	for i, t := range w.live {
		w.recycle(t)
		w.live[i] = nil
	}
	w.live = w.live[:0]
}

func (w *Workspace) recycle(t *Tensor) {
	t.wsIdx = -1
	capN := cap(t.data)
	c := sizeClass(capN)
	// Only pow-of-two capacities are pooled; Get allocates them that way,
	// so this is just a guard against foreign tensors sneaking in.
	if capN == 0 || capN == 1<<c || capN == 1 {
		w.free[c] = append(w.free[c], t)
	}
}

// InUse returns the number of outstanding borrows — 0 after a clean
// ReleaseAll; tests assert this to catch leaks.
func (w *Workspace) InUse() int {
	if w == nil {
		return 0
	}
	return len(w.live)
}

// Allocs returns how many tensors the workspace has allocated fresh (pool
// misses) over its lifetime; a steady-state hot loop stops increasing it.
func (w *Workspace) Allocs() int {
	if w == nil {
		return 0
	}
	return w.news
}
