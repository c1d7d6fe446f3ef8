package tensor

import (
	"math/rand"
	"testing"
)

func TestWorkspaceReuse(t *testing.T) {
	ws := NewWorkspace()
	a := ws.Get(4, 8)
	if a.Size() != 32 {
		t.Fatalf("Get(4,8) size = %d, want 32", a.Size())
	}
	for _, v := range a.Data() {
		if v != 0 {
			t.Fatal("Get must return a zero-filled tensor")
		}
	}
	a.Data()[0] = 7
	ws.ReleaseAll()
	if ws.InUse() != 0 {
		t.Fatalf("InUse after ReleaseAll = %d, want 0", ws.InUse())
	}

	// Same size class: must recycle storage, not allocate, and must come
	// back zeroed despite the dirty write above.
	b := ws.Get(32)
	if b.Data()[0] != 0 {
		t.Fatal("recycled tensor not zero-filled")
	}
	if ws.Allocs() != 1 {
		t.Fatalf("Allocs = %d, want 1 (second Get must hit the free list)", ws.Allocs())
	}

	// Smaller request in the same capacity class reuses the same backing.
	ws.ReleaseAll()
	c := ws.Get(3, 7) // 21 elems, class of 32
	if ws.Allocs() != 1 {
		t.Fatalf("Allocs = %d, want 1 (21 elems fits the pooled cap-32 buffer)", ws.Allocs())
	}
	if c.Dim(0) != 3 || c.Dim(1) != 7 {
		t.Fatalf("reshaped borrow has shape %v", c.Shape())
	}
}

func TestWorkspaceGetUninit(t *testing.T) {
	ws := NewWorkspace()
	a := ws.Get(4, 8)
	a.Fill(7)
	ws.ReleaseAll()
	// Recycled storage comes back as it was left, under the new shape, and
	// is tracked like any other borrow.
	b := ws.GetUninit(2, 11)
	if b.Dim(0) != 2 || b.Dim(1) != 11 || ws.Allocs() != 1 || ws.InUse() != 1 {
		t.Fatalf("GetUninit: shape %v, Allocs %d, InUse %d", b.Shape(), ws.Allocs(), ws.InUse())
	}
	if b.Data()[21] != 7 {
		t.Fatal("GetUninit zero-filled recycled storage; it must not touch it")
	}
	ws.Put(b)
	if c := ws.Get(32); c.Data()[0] != 0 {
		t.Fatal("Get after GetUninit must still zero-fill")
	}
	var nilWS *Workspace
	if d := nilWS.GetUninit(3); d.Size() != 3 {
		t.Fatal("nil workspace GetUninit must allocate")
	}
}

func TestWorkspacePut(t *testing.T) {
	ws := NewWorkspace()
	a := ws.Get(16)
	b := ws.Get(16)
	ws.Put(a)
	if ws.InUse() != 1 {
		t.Fatalf("InUse after early Put = %d, want 1", ws.InUse())
	}
	// a's storage is back on the free list: the next same-class Get must
	// not allocate.
	c := ws.Get(16)
	if ws.Allocs() != 2 {
		t.Fatalf("Allocs = %d, want 2", ws.Allocs())
	}
	ws.Put(c)
	ws.Put(b)
	if ws.InUse() != 0 {
		t.Fatalf("InUse = %d, want 0", ws.InUse())
	}
}

func TestWorkspaceDoublePutPanics(t *testing.T) {
	ws := NewWorkspace()
	a := ws.Get(8)
	ws.Put(a)
	defer func() {
		if recover() == nil {
			t.Fatal("double Put must panic")
		}
	}()
	ws.Put(a)
}

func TestWorkspaceForeignPutPanics(t *testing.T) {
	ws := NewWorkspace()
	defer func() {
		if recover() == nil {
			t.Fatal("Put of a non-borrowed tensor must panic")
		}
	}()
	ws.Put(New(8))
}

func TestNilWorkspaceDegradesToAlloc(t *testing.T) {
	var ws *Workspace
	a := ws.Get(2, 3)
	if a.Dim(0) != 2 || a.Dim(1) != 3 {
		t.Fatalf("nil Get shape %v", a.Shape())
	}
	ws.Put(a)       // no-op, must not panic
	ws.ReleaseAll() // no-op
	if ws.InUse() != 0 || ws.Allocs() != 0 {
		t.Fatal("nil workspace must report zero usage")
	}
}

func TestWorkspaceSteadyStateAllocs(t *testing.T) {
	ws := NewWorkspace()
	warm := func() {
		ws.ReleaseAll()
		ws.Get(4, 16)
		ws.Get(64)
		tmp := ws.Get(8, 8)
		ws.Put(tmp)
		ws.Get(8, 8)
	}
	warm()
	before := ws.Allocs()
	for i := 0; i < 100; i++ {
		warm()
	}
	if ws.Allocs() != before {
		t.Fatalf("steady-state pool misses: Allocs went %d -> %d", before, ws.Allocs())
	}
}

// TestIm2ColAdjoint checks that col2imInto is the exact adjoint of
// Im2ColInto: <Im2Col(x), y> == <x, Col2Im(y)> for random x, y. This is the property
// that makes the conv backward pass (dcols routed through col2imInto) the
// true gradient of the im2col-based forward.
func TestIm2ColAdjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		n, c, h, w, kh, kw, stride, pad int
	}{
		{1, 1, 4, 4, 3, 3, 1, 1},
		{2, 3, 5, 6, 3, 3, 2, 1},
		{2, 2, 6, 6, 2, 2, 2, 0},
		{1, 4, 7, 5, 3, 1, 1, 2},
	} {
		x := New(tc.n, tc.c, tc.h, tc.w)
		for i := range x.Data() {
			x.Data()[i] = rng.NormFloat64()
		}
		cols := im2col(x, tc.kh, tc.kw, tc.stride, tc.pad, tc.pad)
		y := New(cols.Shape()...)
		for i := range y.Data() {
			y.Data()[i] = rng.NormFloat64()
		}
		back := col2imInto(New(x.Shape()...), y, tc.kh, tc.kw, tc.stride, tc.pad, tc.pad)

		dot := func(a, b *Tensor) float64 {
			s := 0.0
			for i, v := range a.Data() {
				s += float64(v * b.Data()[i])
			}
			return s
		}
		lhs := dot(cols, y)
		rhs := dot(x, back)
		if diff := lhs - rhs; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%+v: <Im2Col(x),y>=%g but <x,Col2Im(y)>=%g", tc, lhs, rhs)
		}
	}
}
