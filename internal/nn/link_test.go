package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// wrapLayer is a delegating wrapper of the kind a tracer installs after
// construction: it hides the layer's concrete type from the Sequential.
type wrapLayer struct{ Layer }

func (w wrapLayer) SetWorkspace(ws *tensor.Workspace) {
	if s, ok := w.Layer.(WorkspaceSetter); ok {
		s.SetWorkspace(ws)
	}
}

// eachSequential calls f on m and on the Main and Shortcut of every
// Residual in it, inner ones first.
func eachSequential(m *Sequential, f func(*Sequential)) {
	for _, l := range m.Layers {
		if r, ok := l.(*Residual); ok {
			eachSequential(r.Main, f)
			if r.Shortcut != nil {
				eachSequential(r.Shortcut, f)
			}
		}
	}
	f(m)
}

// evalPass runs one eval forward of m through a fresh workspace and
// returns a copy of the output and the number of borrows it left live.
func evalPass(m *Sequential, x *tensor.Tensor) (*tensor.Tensor, int) {
	ws := tensor.NewWorkspace()
	m.SetWorkspace(ws)
	out := m.Forward(x, false).Clone()
	return out, ws.InUse()
}

// TestEvalLinksFuseConvBNReLU: in eval, each linked Conv2D → BatchNorm2D
// (→ ReLU) group borrows one workspace tensor, the conv's output, so a
// fall-back to three passes shows as more borrows. Wrapping every layer
// after construction keeps the links (same bits, same borrows), and
// unlinking every group gives the same bits through three passes.
// Sequential.Add links as NewSequential does.
//
// CovidNetMini: 3 groups, 2 pools, the global pool and the head borrow 7;
// unlinked, each group borrows 3, so 13. ResNetMini (width 8, 2 stages):
// the stem group, 2 groups per block and a projection group in the
// strided block, 4 block joins, the global pool and the head borrow 16;
// unlinked, 31.
func TestEvalLinksFuseConvBNReLU(t *testing.T) {
	models, inputs := evalModels()
	bare, _ := evalModels()
	for i, want := range []struct {
		name           string
		fused, unfused int
	}{{"CovidNetMini", 7, 13}, {"ResNetMini", 16, 31}} {
		m, x := models[i], inputs[i]
		out, inUse := evalPass(m, x)
		if inUse != want.fused {
			t.Errorf("%s: eval forward borrowed %d tensors, want %d (one per fused group)", want.name, inUse, want.fused)
		}
		eachSequential(m, func(s *Sequential) {
			for j, l := range s.Layers {
				s.Layers[j] = wrapLayer{l}
			}
		})
		wrapped, n := evalPass(m, x)
		requireSameBits(t, want.name+" behind wrappers", wrapped, out)
		if n != inUse {
			t.Errorf("%s: wrapped layers borrowed %d tensors, bare ones %d", want.name, n, inUse)
		}
		u := bare[i]
		eachSequential(u, func(s *Sequential) {
			for _, l := range s.Layers {
				NewSequential(l) // a layer alone is in no group
			}
		})
		unlinked, n := evalPass(u, x)
		requireSameBits(t, want.name+" unlinked", unlinked, out)
		if n != want.unfused {
			t.Errorf("%s: unlinked layers borrowed %d tensors, want %d", want.name, n, want.unfused)
		}
	}
	// Add links as NewSequential does.
	rng := rand.New(rand.NewSource(47))
	s := NewSequential()
	for _, l := range []Layer{NewConv2D(rng, "c", 2, 4, 3, 1, 1), NewBatchNorm2D("bn", 4), &ReLU{}} {
		s.Add(l)
	}
	if _, n := evalPass(s, tensor.RandUniform(rng, -1, 1, 1, 2, 5, 5)); n != 1 {
		t.Errorf("conv, batch norm and rectifier appended by Add borrowed %d tensors, want 1", n)
	}
}

// TestUnlinkedLayersKeepTheirPath: a batch norm with no conv before it, a
// rectifier after it, and rectifiers after a Conv1D or straight after a
// conv run their own eval pass, each writing a new tensor equal to its
// kernel's output.
func TestUnlinkedLayersKeepTheirPath(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	x := tensor.RandUniform(rng, -1, 1, 2, 4, 5, 5)
	bn, relu := NewBatchNorm2D("bn", 4), &ReLU{}
	for ch := 0; ch < 4; ch++ {
		bn.RunMean.Data()[ch], bn.RunVar.Data()[ch] = float64(rng.Float64())-0.5, 0.5+float64(rng.Float64())
		bn.Gamma.Value.Data()[ch], bn.Beta.Value.Data()[ch] = float64(rng.Float64())-0.5, float64(rng.Float64())-0.5
	}
	conv, convReLU := NewConv2D(rng, "c", 4, 4, 3, 1, 1), &ReLU{}
	NewSequential(bn, relu)
	NewSequential(conv, convReLU)
	imp := Conv1DImputer(rng, 3)

	inv := make([]float64, 4)
	for ch, v := range bn.RunVar.Data() {
		inv[ch] = 1 / math.Sqrt(v+bnEps)
	}
	wantBN := tensor.BatchNormNormalizeInto(tensor.New(x.Shape()...), nil, x, bn.RunMean.Data(), inv, bn.Gamma.Value.Data(), bn.Beta.Value.Data())
	wantConv := tensor.Conv2DBiasInto(nil, tensor.New(x.Shape()...), x, conv.W.Value, conv.B.Value, 3, 3, 1, 1, 1)
	seq := tensor.RandUniform(rng, -1, 1, 2, 6, 32)
	for _, c := range []struct {
		name string
		l    Layer
		x    *tensor.Tensor
		want *tensor.Tensor
	}{
		{"batch norm first", bn, x, wantBN},
		{"rectifier after a batch norm", relu, wantBN, tensor.ReLUInto(tensor.New(x.Shape()...), wantBN)},
		{"conv before a rectifier", conv, x, wantConv},
		{"rectifier after a conv", convReLU, wantConv, tensor.ReLUInto(tensor.New(x.Shape()...), wantConv)},
		{"rectifier after a Conv1D", imp.Layers[1], seq, tensor.ReLUInto(tensor.New(seq.Shape()...), seq)},
	} {
		got := c.l.Forward(c.x, false)
		if got == c.x {
			t.Errorf("%s: eval forward returned its input", c.name)
		}
		requireSameBits(t, c.name, got, c.want)
	}
}
