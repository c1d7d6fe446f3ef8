package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// Steady-state allocation gates for the workspace-pooled hot path. Each
// test warms the pool with one pass (AllocsPerRun itself runs the function
// once before measuring), then asserts the per-iteration allocation count
// against a small documented budget — 0 for the pure tensor paths.

func TestDenseAllocsSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ws := tensor.NewWorkspace()
	model := NewSequential(
		NewDense(rng, "fc1", 32, 64),
		&ReLU{},
		NewDense(rng, "fc2", 64, 8),
	)
	model.SetWorkspace(ws)
	loss := SoftmaxCrossEntropy{}
	x := tensor.RandUniform(rng, -1, 1, 16, 32)
	y := tensor.New(16, 8)
	for i := 0; i < 16; i++ {
		y.Set(1, i, i%8)
	}

	allocs := testing.AllocsPerRun(20, func() {
		ws.ReleaseAll()
		model.ZeroGrads()
		out := model.Forward(x, true)
		_, grad := LossForward(ws, loss, out, y)
		model.Backward(grad)
	})
	if allocs > 0 {
		t.Errorf("Dense forward+backward allocates %.1f/run in steady state, want 0", allocs)
	}
	if ws.InUse() != 0 {
		// ReleaseAll runs at iteration start, so borrows from the last
		// iteration are still live here; a final reset must zero them.
		ws.ReleaseAll()
	}
	if ws.InUse() != 0 {
		t.Errorf("workspace leak: %d borrows live after ReleaseAll", ws.InUse())
	}
}

func TestGRUAllocsSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ws := tensor.NewWorkspace()
	model := NewSequential(
		NewGRU(rng, "gru", 6, 12),
		NewTimeDistributed(NewDense(rng, "head", 12, 1)),
	)
	model.SetWorkspace(ws)
	loss := MSE{}
	x := tensor.RandUniform(rng, -1, 1, 4, 10, 6)
	y := tensor.RandUniform(rng, -1, 1, 4, 10, 1)

	allocs := testing.AllocsPerRun(20, func() {
		ws.ReleaseAll()
		model.ZeroGrads()
		out := model.Forward(x, true)
		_, grad := LossForward(ws, loss, out, y)
		model.Backward(grad)
	})
	// TimeDistributed reshapes cost a couple of tensor headers per pass;
	// everything element-sized is pooled.
	const budget = 8
	if allocs > budget {
		t.Errorf("GRU forward+backward allocates %.1f/run in steady state, want <= %d", allocs, budget)
	}

	// Nothing may allocate per timestep: at a batch that splits into row
	// blocks (one parallel-for job per pass, at any worker count above 1) a
	// 4× longer sequence costs exactly the same number of allocations.
	perPass := func(steps int) float64 {
		gru := NewGRU(rng, "gru", 6, 12)
		gru.SetWorkspace(ws)
		x := tensor.RandUniform(rng, -1, 1, 256, steps, 6)
		dout := tensor.RandUniform(rng, -1, 1, 256, steps, 12)
		// The kernels' packing-scratch pool fills as workers happen to
		// overlap, so one warm-up pass is not always enough: take the
		// lowest of a few measurements as the steady state.
		best := math.Inf(1)
		for rep := 0; rep < 3; rep++ {
			best = min(best, testing.AllocsPerRun(5, func() {
				ws.ReleaseAll()
				gru.Forward(x, true)
				gru.Backward(dout)
			}))
		}
		return best
	}
	if short, long := perPass(8), perPass(32); short != long {
		t.Errorf("GRU at N=256 allocates %.1f/pass at T=8 but %.1f at T=32: something allocates per timestep", short, long)
	}
}

func TestConvForwardAllocsSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ws := tensor.NewWorkspace()
	conv := NewConv2D(rng, "conv", 3, 8, 3, 1, 1)
	conv.SetWorkspace(ws)
	x := tensor.RandUniform(rng, -1, 1, 2, 3, 8, 8)

	allocs := testing.AllocsPerRun(20, func() {
		ws.ReleaseAll()
		conv.Forward(x, true)
	})
	if allocs > 0 {
		t.Errorf("Conv2D forward allocates %.1f/run in steady state, want 0", allocs)
	}
}

// TestEvalForwardAllocsSteadyState: serving runs CovidNetMini's eval
// forward through a workspace, which keeps no backward caches and so has
// nothing to grow.
func TestEvalForwardAllocsSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ws := tensor.NewWorkspace()
	model := CovidNetMini(rng, 16, 3)
	model.SetWorkspace(ws)
	x := tensor.RandUniform(rng, -1, 1, 4, 1, 16, 16)

	allocs := testing.AllocsPerRun(20, func() {
		ws.ReleaseAll()
		model.Forward(x, false)
	})
	if allocs > 0 {
		t.Errorf("CovidNetMini eval forward allocates %.1f/run in steady state, want 0", allocs)
	}
}

// TestWorkspaceBitwiseIdentity trains two identically seeded models — one
// pooled, one allocating — in lockstep and requires exactly equal outputs
// and parameters after every step. This is the contract that lets the
// workspace be adopted everywhere without perturbing any experiment.
func TestWorkspaceBitwiseIdentity(t *testing.T) {
	build := func() *Sequential {
		rng := rand.New(rand.NewSource(7))
		return NewSequential(
			NewDense(rng, "fc1", 20, 32),
			&Tanh{},
			NewDropout(rng, 0.2),
			NewDense(rng, "fc2", 32, 4),
		)
	}
	pooled, plain := build(), build()
	ws := tensor.NewWorkspace()
	pooled.SetWorkspace(ws)

	dataRng := rand.New(rand.NewSource(8))
	loss := SoftmaxCrossEntropy{}
	optP := NewSGD(0.9, 1e-4)
	optQ := NewSGD(0.9, 1e-4)

	for step := 0; step < 5; step++ {
		x := tensor.RandUniform(dataRng, -1, 1, 8, 20)
		y := tensor.New(8, 4)
		for i := 0; i < 8; i++ {
			y.Set(1, i, i%4)
		}

		ws.ReleaseAll()
		pooled.ZeroGrads()
		plain.ZeroGrads()
		outP := pooled.Forward(x, true)
		outQ := plain.Forward(x, true)
		for i, v := range outP.Data() {
			if v != outQ.Data()[i] {
				t.Fatalf("step %d: forward outputs diverge at %d: %v vs %v", step, i, v, outQ.Data()[i])
			}
		}
		lP, gP := LossForward(ws, loss, outP, y)
		lQ, gQ := loss.Forward(outQ, y)
		if lP != lQ {
			t.Fatalf("step %d: losses diverge: %v vs %v", step, lP, lQ)
		}
		for i, v := range gP.Data() {
			if v != gQ.Data()[i] {
				t.Fatalf("step %d: loss grads diverge at %d", step, i)
			}
		}
		pooled.Backward(gP)
		plain.Backward(gQ)
		optP.Step(pooled.Params(), 0.05)
		optQ.Step(plain.Params(), 0.05)

		pp, qq := pooled.Params(), plain.Params()
		for pi := range pp {
			for i, v := range pp[pi].Value.Data() {
				if v != qq[pi].Value.Data()[i] {
					t.Fatalf("step %d: param %s diverges at %d: %v vs %v",
						step, pp[pi].Name, i, v, qq[pi].Value.Data()[i])
				}
			}
		}
	}
}
