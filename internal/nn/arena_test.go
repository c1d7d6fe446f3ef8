package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// arenaModel is a ResNetMini: conv, batch-norm and dense parameters, some
// nested inside Residual blocks, so binding must reach params that live
// in sub-Sequentials.
func arenaModel(seed int64) *Sequential {
	return ResNetMini(rand.New(rand.NewSource(seed)), 2, 3, 4, 2)
}

func randomizeGrads(m *Sequential, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, p := range m.Params() {
		for i := range p.Grad.Data() {
			p.Grad.Data()[i] = rng.NormFloat64()
		}
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestArenaAliasing(t *testing.T) {
	m := arenaModel(1)
	randomizeGrads(m, 2)
	params := m.Params()
	wantV := FlattenValues(params)
	var wantG []float64
	for _, p := range params {
		wantG = append(wantG, p.Grad.Data()...)
	}
	mustPanic(t, "Span before BindArena", func() { m.Span(params[:1]) })

	values, grads := m.BindArena()
	if len(values) != NumParams(params) || len(grads) != len(values) {
		t.Fatalf("slabs hold %d/%d elements, model has %d", len(values), len(grads), NumParams(params))
	}
	if !floatsEqual(values, wantV) || !floatsEqual(grads, wantG) {
		t.Fatal("binding changed parameter values or gradients")
	}
	off := 0
	for _, p := range params {
		n := p.Value.Size()
		v, g := p.Value.Data(), p.Grad.Data()
		if len(v) != n || &v[0] != &values[off] || len(g) != n || &g[0] != &grads[off] {
			t.Fatalf("%s is not a view of the slabs at offset %d", p.Name, off)
		}
		sv, sg := m.Span([]*Param{p})
		if &sv[0] != &v[0] || &sg[0] != &g[0] || len(sv) != n || cap(sv) != n {
			t.Fatalf("Span(%s) is not the param's own storage", p.Name)
		}
		off += n
	}

	// Binding again keeps the slabs and the views.
	v0, g0 := params[0].Value, params[0].Grad
	values2, grads2 := m.BindArena()
	if &values2[0] != &values[0] || &grads2[0] != &grads[0] || params[0].Value != v0 || params[0].Grad != g0 {
		t.Fatal("second BindArena rebound the model")
	}

	// A contiguous run spans its params; a gap or a reordering panics.
	sv, sg := m.Span(params[1:4])
	lo := params[0].Value.Size()
	if &sv[0] != &values[lo] || &sg[0] != &grads[lo] || len(sv) != NumParams(params[1:4]) {
		t.Fatal("Span(params[1:4]) is not the run's sub-slice")
	}
	mustPanic(t, "Span with a gap", func() { m.Span([]*Param{params[0], params[2]}) })
	mustPanic(t, "Span out of order", func() { m.Span([]*Param{params[1], params[0]}) })
	mustPanic(t, "Span of a foreign param", func() { m.Span(arenaModel(1).Params()[:1]) })

	// Layers write through the views, and ZeroGrads clears the slab.
	x := tensor.Randn(rand.New(rand.NewSource(3)), 1, 4, 2, 8, 8)
	m.Forward(x, true)
	m.Backward(tensor.Randn(rand.New(rand.NewSource(4)), 1, 4, 3))
	if floatsEqual(grads, wantG) {
		t.Fatal("backward did not write into the gradient slab")
	}
	m.ZeroGrads()
	for i, g := range grads {
		if g != 0 || math.Signbit(g) {
			t.Fatalf("grads[%d] = %v after ZeroGrads", i, g)
		}
	}

	mustPanic(t, "Add after BindArena", func() { m.Add(&ReLU{}) })
}

// TestArenaSeesLoads: the loaders copy into p.Value.Data(), so after
// binding they land in the slab.
func TestArenaSeesLoads(t *testing.T) {
	src := arenaModel(5)
	blob, err := SaveModel(src)
	if err != nil {
		t.Fatal(err)
	}
	dst := arenaModel(6)
	values, _ := dst.BindArena()
	if err := LoadModel(dst, blob); err != nil {
		t.Fatal(err)
	}
	if !floatsEqual(values, FlattenValues(src.Params())) {
		t.Fatal("LoadModel did not land in the value slab")
	}

	// A checkpoint restores the momenta that the next fused step reads: a
	// restored optimizer steps a bound model exactly like the original.
	randomizeGrads(src, 7)
	randomizeGrads(dst, 7)
	opt := NewSGD(0.9, 1e-4)
	opt.Step(src.Params(), 0.1)
	restored := NewSGD(0.9, 1e-4)
	c, err := DecodeCheckpoint(EncodeCheckpoint(src, opt, 1), dst, restored)
	if err != nil {
		t.Fatal(err)
	}
	c.Apply()
	opt.Step(src.Params(), 0.1)
	restored.Step(dst.Params(), 0.1)
	if !floatsEqual(values, FlattenValues(src.Params())) {
		t.Fatal("step after restoring the optimizer diverged from the original")
	}
}

// refSGDStep is SGD.Step as three separate sweeps per parameter, the
// sequence the fused pass replaced.
func refSGDStep(s *SGD, vel map[*Param]*tensor.Tensor, params []*Param, lr float64) {
	for _, p := range params {
		g := p.Grad
		if s.Momentum > 0 {
			v, ok := vel[p]
			if !ok {
				v = tensor.New(p.Value.Shape()...)
				vel[p] = v
			}
			v.Scale(s.Momentum).AddInPlace(g)
			g = v
		}
		if s.WeightDecay > 0 && !p.NoDecay {
			tensor.AxpyInto(p.Value.Data(), -lr*s.WeightDecay, p.Value.Data())
		}
		tensor.AxpyInto(p.Value.Data(), -lr, g.Data())
	}
}

// TestSGDStepMatchesThreePass runs the fused SGD and the three-sweep
// reference side by side for several steps, on a model with decayed
// weights and NoDecay biases, bound and unbound: parameters and momenta
// must agree bit for bit.
func TestSGDStepMatchesThreePass(t *testing.T) {
	for _, mu := range []float64{0, 0.9} {
		for _, wd := range []float64{0, 1e-4} {
			got, want := MLP(rand.New(rand.NewSource(8)), 6, 9, 4), MLP(rand.New(rand.NewSource(8)), 6, 9, 4)
			got.BindArena()
			opt, ref := NewSGD(mu, wd), NewSGD(mu, wd)
			vel := map[*Param]*tensor.Tensor{}
			for step := 0; step < 3; step++ {
				randomizeGrads(got, int64(10+step))
				randomizeGrads(want, int64(10+step))
				opt.Step(got.Params(), 0.05)
				refSGDStep(ref, vel, want.Params(), 0.05)
			}
			off := 0
			for i, p := range got.Params() {
				q := want.Params()[i]
				pairs := [][2][]float64{{p.Value.Data(), q.Value.Data()}}
				if mu > 0 {
					pairs = append(pairs, [2][]float64{opt.st.slabs[0][off : off+p.Value.Size()], vel[q].Data()})
				}
				off += p.Value.Size()
				for _, pr := range pairs {
					for j := range pr[0] {
						if math.Float64bits(pr[0][j]) != math.Float64bits(pr[1][j]) {
							t.Fatalf("mu=%v wd=%v %s[%d]: fused %v, three-pass %v", mu, wd, p.Name, j, pr[0][j], pr[1][j])
						}
					}
				}
			}
		}
	}
}
