package nn

import (
	"math"

	"repro/internal/tensor"
)

// Optimizer applies accumulated gradients to parameters.
type Optimizer interface {
	// Step updates params from their gradients using the given learning
	// rate and increments the optimizer's internal step counter.
	Step(params []*Param, lr float64)
	Name() string
}

// SGD is stochastic gradient descent with classical momentum and optional
// decoupled weight decay.
type SGD struct {
	Momentum    float64
	WeightDecay float64
	velocity    map[*Param]*tensor.Tensor
}

// NewSGD constructs an SGD optimizer.
func NewSGD(momentum, weightDecay float64) *SGD {
	return &SGD{Momentum: momentum, WeightDecay: weightDecay, velocity: map[*Param]*tensor.Tensor{}}
}

// Name returns "sgd".
func (s *SGD) Name() string { return "sgd" }

// Step applies v = µv + g; w += (−lr·wd)·w; w += (−lr)·v, one fused pass
// per parameter (tensor.SGDStep). Momentum 0 steps along g itself, and
// NoDecay parameters skip the decay term.
func (s *SGD) Step(params []*Param, lr float64) {
	for _, p := range params {
		var v []float64
		if s.Momentum > 0 {
			vt, ok := s.velocity[p]
			if !ok {
				vt = tensor.New(p.Value.Shape()...)
				s.velocity[p] = vt
			}
			v = vt.Data()
		}
		wd := s.WeightDecay
		if p.NoDecay {
			wd = 0
		}
		tensor.SGDStep(p.Value.Data(), v, p.Grad.Data(), s.Momentum, wd, lr)
	}
}

// Adam is the Adam optimizer (Kingma & Ba), used by the paper's GRU model
// with lr 1e-4 (§IV-B).
type Adam struct {
	Beta1, Beta2, Eps float64
	WeightDecay       float64
	t                 int
	m, v              map[*Param]*tensor.Tensor
}

// NewAdam constructs Adam with the standard hyperparameters.
func NewAdam() *Adam {
	return &Adam{Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: map[*Param]*tensor.Tensor{}, v: map[*Param]*tensor.Tensor{}}
}

// Name returns "adam".
func (a *Adam) Name() string { return "adam" }

// Step applies the bias-corrected Adam update.
func (a *Adam) Step(params []*Param, lr float64) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = tensor.New(p.Value.Shape()...)
			a.m[p] = m
			a.v[p] = tensor.New(p.Value.Shape()...)
		}
		v := a.v[p]
		gd, md, vd, wd := p.Grad.Data(), m.Data(), v.Data(), p.Value.Data()
		for i := range gd {
			g := gd[i]
			if a.WeightDecay > 0 && !p.NoDecay {
				g += a.WeightDecay * wd[i]
			}
			md[i] = a.Beta1*md[i] + (1-a.Beta1)*g
			vd[i] = a.Beta2*vd[i] + (1-a.Beta2)*g*g
			mh := md[i] / c1
			vh := vd[i] / c2
			wd[i] -= lr * mh / (math.Sqrt(vh) + a.Eps)
		}
	}
}

// StatefulOptimizer is an optimizer whose state a checkpoint carries;
// required for exact training resume.
type StatefulOptimizer interface {
	Optimizer
	// State exposes the optimizer's buffers and counter. The checkpoint
	// codec reads them to save and writes through them to load.
	State() OptimizerState
}

// OptimizerState is what a checkpoint holds of an optimizer: per-parameter
// buffers under slot names, and an optional step counter.
type OptimizerState struct {
	// Slots names the buffers kept per parameter, in checkpoint order.
	Slots []string
	// Buffers holds one map per slot. A parameter Step has not seen yet is
	// in none of them; once seen, it is in all.
	Buffers []map[*Param]*tensor.Tensor
	// Counter is the optimizer's own step counter; nil when it keeps none.
	Counter *int
}

// State exposes the momentum buffers.
func (s *SGD) State() OptimizerState {
	return OptimizerState{Slots: []string{"velocity"}, Buffers: []map[*Param]*tensor.Tensor{s.velocity}}
}

// State exposes the Adam moments and step counter.
func (a *Adam) State() OptimizerState {
	return OptimizerState{Slots: []string{"m", "v"}, Buffers: []map[*Param]*tensor.Tensor{a.m, a.v}, Counter: &a.t}
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
	target := w.Base * float64(w.Workers)
	if w.WarmupSteps <= 0 || step >= w.WarmupSteps {
		return target
	}
	frac := float64(step) / float64(w.WarmupSteps)
	return w.Base + (target-w.Base)*frac
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
		total += n * n
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
