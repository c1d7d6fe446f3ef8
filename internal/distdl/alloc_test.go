package distdl

import (
	"math/rand"
	"testing"

	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestMonolithicStepAllocsSteadyState is the allocation regression gate
// for the training hot path: a Trainer.Step — workspace-pooled forward and
// backward, the gradient averaged where backward wrote it, fused SGD over
// the arena, the loss summed through the communicator's scalar scratch —
// allocates nothing at all in steady state. The single-rank world makes
// every collective short-circuit, so the number isolates the step itself
// from the goroutine-ring wire layer.
func TestMonolithicStepAllocsSteadyState(t *testing.T) {
	world := mpi.NewWorld(1)
	rng := rand.New(rand.NewSource(40))
	x := tensor.Randn(rng, 1.0, 8, 64)
	labels := make([]int, 8)
	for i := range labels {
		labels[i] = i % 2
	}
	y := nn.OneHot(labels, 2)
	err := world.Run(func(c *mpi.Comm) error {
		model := nn.MLP(rand.New(rand.NewSource(41)), 64, 128, 128, 2)
		tr := distdlNew(c, model)
		// Warm the pools: the first steps populate workspace free lists
		// and the optimizer's velocity buffers.
		for i := 0; i < 3; i++ {
			tr.Step(x, y)
		}
		allocs := testing.AllocsPerRun(20, func() {
			tr.Step(x, y)
		})
		if allocs > 0 {
			t.Errorf("Trainer.Step allocates %.0f/run in steady state, want 0", allocs)
		}
		ws := tr.Workspace()
		ws.ReleaseAll()
		if ws.InUse() != 0 {
			t.Errorf("workspace leak: %d borrows live after ReleaseAll", ws.InUse())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func distdlNew(c *mpi.Comm, model *nn.Sequential) *Trainer {
	return New(c, model, nn.SoftmaxCrossEntropy{}, nn.NewSGD(0.9, 1e-4),
		WithSchedule(nn.ConstLR(0.01))).(*Trainer)
}

// TestStepPoolSteadyState asserts the workspace itself stops allocating
// fresh tensors once warmed — the pool-miss counter must stay flat across
// further steps.
func TestStepPoolSteadyState(t *testing.T) {
	world := mpi.NewWorld(1)
	rng := rand.New(rand.NewSource(42))
	x := tensor.Randn(rng, 1.0, 8, 64)
	labels := make([]int, 8)
	for i := range labels {
		labels[i] = i % 2
	}
	y := nn.OneHot(labels, 2)
	err := world.Run(func(c *mpi.Comm) error {
		tr := distdlNew(c, nn.MLP(rand.New(rand.NewSource(43)), 64, 128, 128, 2))
		for i := 0; i < 2; i++ {
			tr.Step(x, y)
		}
		before := tr.Workspace().Allocs()
		for i := 0; i < 10; i++ {
			tr.Step(x, y)
		}
		if got := tr.Workspace().Allocs(); got != before {
			t.Errorf("workspace pool misses in steady state: Allocs went %d -> %d", before, got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
