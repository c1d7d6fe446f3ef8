package nn

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/tensor"
)

// Optimizer applies accumulated gradients to parameters.
type Optimizer interface {
	// StepSpan updates elements [lo, hi) of params' concatenation, in
	// order, from their gradients with learning rate lr, and increments
	// the optimizer's step counter. The optimizer keeps state for that
	// span alone: a data-parallel rank steps and stores only the span of
	// the parameter arena it owns. Every update works one element at a
	// time, so a span gives its elements the bits of the full Step.
	StepSpan(params []*Param, lo, hi int, lr float64)
	// Step updates all of params: StepSpan over [0, NumParams(params)).
	Step(params []*Param, lr float64)
	Name() string
}

// SGD is stochastic gradient descent with classical momentum and optional
// decoupled weight decay.
type SGD struct {
	Momentum    float64
	WeightDecay float64
	st          OptimizerState // slot 0: velocity
}

// NewSGD constructs an SGD optimizer.
func NewSGD(momentum, weightDecay float64) *SGD {
	return &SGD{Momentum: momentum, WeightDecay: weightDecay, st: OptimizerState{Slots: []string{"velocity"}}}
}

// Name returns "sgd".
func (s *SGD) Name() string { return "sgd" }

// Step is StepSpan over all of params.
func (s *SGD) Step(params []*Param, lr float64) { s.StepSpan(params, 0, NumParams(params), lr) }

// StepSpan applies v = µv + g; w += (−lr·wd)·w; w += (−lr)·v, one fused
// pass per parameter piece (tensor.SGDStep). Momentum 0 steps along g
// itself and keeps no velocity, and NoDecay parameters skip the decay term.
func (s *SGD) StepSpan(params []*Param, lo, hi int, lr float64) {
	vel := s.st.begin(params, lo, hi, s.Momentum > 0)[0]
	eachPiece(params, lo, hi, func(p *Param, a, b, at int) {
		var v []float64
		if s.Momentum > 0 {
			v = vel[at : at+b-a]
		}
		wd := s.WeightDecay
		if p.NoDecay {
			wd = 0
		}
		tensor.SGDStep(p.Value.Data()[a:b], v, p.Grad.Data()[a:b], s.Momentum, wd, lr)
	})
}

// Adam is the Adam optimizer (Kingma & Ba), used by the paper's GRU model
// with lr 1e-4 (§IV-B).
type Adam struct {
	Beta1, Beta2, Eps float64
	WeightDecay       float64
	t                 int
	st                OptimizerState // slots 0 and 1: the moments m and v
}

// NewAdam constructs Adam with the standard hyperparameters.
func NewAdam() *Adam {
	a := &Adam{Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
	a.st = OptimizerState{Slots: []string{"m", "v"}, Counter: &a.t}
	return a
}

// Name returns "adam".
func (a *Adam) Name() string { return "adam" }

// Step is StepSpan over all of params.
func (a *Adam) Step(params []*Param, lr float64) { a.StepSpan(params, 0, NumParams(params), lr) }

// StepSpan applies the bias-corrected Adam update.
func (a *Adam) StepSpan(params []*Param, lo, hi int, lr float64) {
	slabs := a.st.begin(params, lo, hi, true)
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	eachPiece(params, lo, hi, func(p *Param, i0, i1, at int) {
		gd, wd := p.Grad.Data()[i0:i1], p.Value.Data()[i0:i1]
		md, vd := slabs[0][at:at+i1-i0], slabs[1][at:at+i1-i0]
		for i := range gd {
			g := gd[i]
			if a.WeightDecay > 0 && !p.NoDecay {
				g += float64(a.WeightDecay * wd[i])
			}
			md[i] = float64(a.Beta1*md[i]) + float64((1-a.Beta1)*g)
			vd[i] = float64(a.Beta2*vd[i]) + float64((1-a.Beta2)*g*g)
			mh := md[i] / c1
			vh := vd[i] / c2
			wd[i] -= lr * mh / (math.Sqrt(vh) + a.Eps)
		}
	})
}

// eachPiece calls fn for every parameter of params whose elements meet
// the span [lo, hi) of their concatenation, with the parameter's own
// element range [a, b) inside the span and at, the offset of a from lo.
func eachPiece(params []*Param, lo, hi int, fn func(p *Param, a, b, at int)) {
	off := 0
	for _, p := range params {
		n := p.Value.Size()
		if a, b := max(lo, off), min(hi, off+n); a < b {
			fn(p, a-off, b-off, a-lo)
		}
		off += n
	}
}

// StatefulOptimizer is an optimizer whose state a checkpoint carries;
// required for exact training resume.
type StatefulOptimizer interface {
	Optimizer
	// State exposes the optimizer's buffers and counter. The checkpoint
	// codec reads them to save and writes through them to load, and a
	// data-parallel trainer reserves and shares them (Reserve, Share).
	State() *OptimizerState
}

// State exposes the momentum buffers.
func (s *SGD) State() *OptimizerState { return &s.st }

// State exposes the Adam moments and step counter.
func (a *Adam) State() *OptimizerState { return &a.st }

// OptimizerState is what an optimizer keeps and a checkpoint holds: per
// slot, one buffer over the run of parameters the optimizer steps, laid
// out in run order, and an optional step counter. The state holds the
// span of the run its optimizer steps: all of it, or on a data-parallel
// rank the chunk that rank owns, and Share gives it the other ranks'
// chunks to read, so that one rank can checkpoint the whole state.
type OptimizerState struct {
	// Slots names the buffers kept per parameter, in checkpoint order.
	Slots []string
	// Counter is the optimizer's own step counter; nil when it keeps none.
	Counter *int

	run    []*Param
	has    []bool      // per run parameter: its buffers exist (stepped, or set by a checkpoint)
	lo, hi int         // the span of the run this state steps
	slabs  [][]float64 // per slot, the buffer over [lo, hi); nil while unbound
	shards []shard     // every rank's buffers in span order, or just these
}

// shard is one rank's buffers: per slot, the span from lo of the run.
type shard struct {
	lo    int
	slabs [][]float64
}

// Reserve binds the state to elements [lo, hi) of run's concatenation,
// discarding any earlier state, and allocates its buffers, zero and
// absent, in one backing array that it returns: slot j's buffer is the
// j-th hi-lo values of it.
func (s *OptimizerState) Reserve(run []*Param, lo, hi int) []float64 {
	back := make([]float64, len(s.Slots)*(hi-lo))
	s.run, s.has, s.lo, s.hi = slices.Clone(run), make([]bool, len(run)), lo, hi
	own := s.carve(lo, back)
	s.slabs, s.shards = own.slabs, []shard{own}
	return back
}

// Share gives the state every rank's Reserve backing over the same run,
// this state's own among them, ordered by span so that they tile the run.
// The state still steps its own span only.
func (s *OptimizerState) Share(backings [][]float64) {
	shards, lo := make([]shard, len(backings)), 0
	for i, b := range backings {
		shards[i] = s.carve(lo, b)
		lo += len(b) / len(s.Slots)
	}
	if n := NumParams(s.run); lo != n {
		panic(fmt.Sprintf("nn: shared optimizer state covers %d of %d elements", lo, n))
	}
	s.shards = shards
}

// Span returns the elements [lo, hi) of the run this state steps and
// holds buffers for.
func (s *OptimizerState) Span() (lo, hi int) { return s.lo, s.hi }

func (s *OptimizerState) carve(lo int, back []float64) shard {
	n := len(back) / len(s.Slots)
	sh := shard{lo: lo, slabs: make([][]float64, len(s.Slots))}
	for j := range sh.slabs {
		sh.slabs[j] = back[j*n : (j+1)*n : (j+1)*n]
	}
	return sh
}

// pieces calls fn with slot j's buffer over elements [lo, hi) of the run,
// one piece per shard that holds some of them, in order.
func (s *OptimizerState) pieces(j, lo, hi int, fn func([]float64)) {
	for _, sh := range s.shards {
		if a, b := max(lo, sh.lo), min(hi, sh.lo+len(sh.slabs[j])); a < b {
			fn(sh.slabs[j][a-sh.lo : b-sh.lo])
		}
	}
}

// begin readies the state for a step of [lo, hi) of run, reserving it on
// the first step, and returns its buffers; create marks every run
// parameter's buffers as existing. One state serves one run and span.
func (s *OptimizerState) begin(run []*Param, lo, hi int, create bool) [][]float64 {
	if s.slabs == nil {
		s.Reserve(run, lo, hi)
	} else if lo != s.lo || hi != s.hi || !slices.Equal(run, s.run) {
		panic(fmt.Sprintf("nn: optimizer state covers elements [%d, %d) of a %d-parameter run; step asked for [%d, %d) of a %d-parameter run: use one optimizer per run",
			s.lo, s.hi, len(s.run), lo, hi, len(run)))
	}
	if create {
		for i := range s.has {
			s.has[i] = true
		}
	}
	return s.slabs
}

// Schedule yields the learning rate for a given optimizer step.
type Schedule interface {
	LR(step int) float64
}

// ConstLR is a constant learning rate.
type ConstLR float64

// LR returns the constant rate.
func (c ConstLR) LR(step int) float64 { return float64(c) }

// WarmupLinearScale implements the large-batch recipe used by distributed
// ResNet-50 training (Goyal et al., adopted by the paper's Horovod case
// study): the base rate is multiplied by the worker count and approached
// linearly over WarmupSteps to avoid early divergence.
type WarmupLinearScale struct {
	Base        float64
	Workers     int
	WarmupSteps int
}

// LR ramps linearly from Base to Base·Workers, then holds.
func (w WarmupLinearScale) LR(step int) float64 {
	target := float64(w.Base * float64(w.Workers))
	if w.WarmupSteps <= 0 || step >= w.WarmupSteps {
		return target
	}
	frac := float64(step) / float64(w.WarmupSteps)
	return w.Base + float64((target-w.Base)*frac)
}

// StepDecay multiplies the base rate by Gamma every DecayEvery steps.
type StepDecay struct {
	Base       float64
	Gamma      float64
	DecayEvery int
}

// LR returns Base·Gamma^(step/DecayEvery).
func (s StepDecay) LR(step int) float64 {
	if s.DecayEvery <= 0 {
		return s.Base
	}
	return s.Base * math.Pow(s.Gamma, float64(step/s.DecayEvery))
}

// ClipGradNorm rescales all gradients so their global L2 norm is at most
// maxNorm; returns the pre-clip norm. Recurrent models (the GRU study)
// need this to avoid exploding gradients.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	total := 0.0
	for _, p := range params {
		n := p.Grad.Norm2()
		total += float64(n * n)
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			p.Grad.Scale(scale)
		}
	}
	return norm
}
