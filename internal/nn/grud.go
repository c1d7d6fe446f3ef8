package nn

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// InputDecay is the trainable input-decay mechanism of GRU-D (Che et al.,
// the paper's related-work ref [39]): for clinical time series, a missing
// value is best estimated by the last observation decayed toward the
// (z-scored) population mean as time since that observation grows,
// "taking advantage of some of the inherent properties of medical time
// series data (i.e. homeostasis)".
//
// Input is the imputation-task layout (N, T, 2C): C value channels
// followed by C observation indicators. Output is (N, T, 2C) with the
// value channels replaced by
//
//	x̂_t = m_t⊙x_t + (1-m_t)⊙γ_t⊙x_last
//	γ_t = exp(-softplus(w)⊙δ_t)
//
// where δ_t counts steps since the channel was last observed and w is a
// learned per-channel decay rate (softplus keeps it positive and smooth
// for gradient checking). Indicator channels pass through unchanged so a
// stacked GRU still sees the missingness pattern.
type InputDecay struct {
	W *Param // per-channel decay rate parameters (C)
	C int

	base[decaySaved]
}

// decaySaved is what a Forward of InputDecay leaves for Backward, each
// (N, T, C).
type decaySaved struct {
	gamma         *tensor.Tensor
	xlast         *tensor.Tensor
	delta         *tensor.Tensor
	decayedActive *tensor.Tensor // 1 where the decayed path was taken
	srcT          *tensor.Tensor // timestep the decayed value came from
}

// NewInputDecay creates the layer for C value channels, with decay rates
// initialized near softplus⁻¹(0.1) so early training starts gently.
func NewInputDecay(channels int) *InputDecay {
	w := tensor.Full(-2.0, channels) // softplus(-2) ≈ 0.127
	return &InputDecay{
		W: &Param{Name: "decay.w", Value: w, Grad: tensor.New(channels), NoDecay: true},
		C: channels,
	}
}

func softplus(v float64) float64 { return math.Log1p(math.Exp(v)) }

// Forward computes decayed inputs.
func (d *InputDecay) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.NDim() != 3 || x.Dim(2) != 2*d.C {
		panic("nn: InputDecay expects (N, T, 2C) input")
	}
	n, T := x.Dim(0), x.Dim(1)
	s := &d.saved
	s.gamma = d.ws.Get(n, T, d.C)
	s.xlast = d.ws.Get(n, T, d.C)
	s.delta = d.ws.Get(n, T, d.C)
	s.decayedActive = d.ws.Get(n, T, d.C)
	s.srcT = d.ws.Get(n, T, d.C)
	out := cloneInto(d.ws, x)

	for b := 0; b < n; b++ {
		for ch := 0; ch < d.C; ch++ {
			rate := softplus(d.W.Value.Data()[ch])
			last := 0.0
			lastT := -1
			sinceObs := math.Inf(1) // no observation yet
			for t := 0; t < T; t++ {
				// Threshold at 0.5: indicators are exactly 0/1, and tiny
				// numerical perturbations must not flip the branch.
				m := x.At(b, t, d.C+ch)
				if m > 0.5 {
					last = x.At(b, t, ch)
					lastT = t
					sinceObs = 0
					continue
				}
				sinceObs++
				if math.IsInf(sinceObs, 1) {
					continue // nothing observed yet: leave the zero (mean)
				}
				g := math.Exp(-rate * sinceObs)
				s.gamma.Set(g, b, t, ch)
				s.xlast.Set(last, b, t, ch)
				s.delta.Set(sinceObs, b, t, ch)
				s.decayedActive.Set(1, b, t, ch)
				s.srcT.Set(float64(lastT), b, t, ch)
				out.Set(g*last, b, t, ch)
			}
		}
	}
	return out
}

// Backward routes gradients: observed values pass straight through and
// additionally collect the decayed-path gradients of every later missing
// step that reused them as x_last; the decay-rate parameter collects the
// γ sensitivity.
func (d *InputDecay) Backward(dout *tensor.Tensor) *tensor.Tensor {
	n, T := dout.Dim(0), dout.Dim(1)
	s := &d.saved
	din := cloneInto(d.ws, dout)
	for b := 0; b < n; b++ {
		for ch := 0; ch < d.C; ch++ {
			w := d.W.Value.Data()[ch]
			dsig := 1 / (1 + math.Exp(-w)) // d softplus(w)/dw
			for t := 0; t < T; t++ {
				if s.decayedActive.At(b, t, ch) == 0 {
					continue
				}
				g := dout.At(b, t, ch)
				gamma := s.gamma.At(b, t, ch)
				xl := s.xlast.At(b, t, ch)
				delta := s.delta.At(b, t, ch)
				// out = exp(-softplus(w)·δ)·x_last ⇒
				// ∂out/∂w = out·(-δ)·σ(w), ∂out/∂x_last = γ.
				d.W.Grad.Data()[ch] += float64(g * gamma * xl * (-delta) * dsig)
				// The missing input slot itself contributed nothing...
				din.Set(0, b, t, ch)
				// ...but the source observation did, through γ.
				if src := int(s.srcT.At(b, t, ch)); src >= 0 {
					din.Set(din.At(b, src, ch)+float64(g*gamma), b, src, ch)
				}
			}
		}
	}
	return din
}

// Params returns the decay rates.
func (d *InputDecay) Params() []*Param { return []*Param{d.W} }

// GRUDImputer builds the GRU-D variant of the §IV-B imputation model:
// the paper's 2×GRU(32) stack preceded by the trainable input-decay
// mechanism of Che et al. [39]. `features` is the full input width
// (2·C: values plus indicators).
func GRUDImputer(rng *rand.Rand, features int) *Sequential {
	if features%2 != 0 {
		panic("nn: GRUDImputer expects values+indicator layout (even width)")
	}
	return NewSequential(
		NewInputDecay(features/2),
		NewGRU(rng, "gru1", features, 32),
		NewDropout(rng, 0.2),
		NewGRU(rng, "gru2", 32, 32),
		NewDropout(rng, 0.2),
		NewTimeDistributed(NewDense(rng, "out", 32, 1)),
	)
}
