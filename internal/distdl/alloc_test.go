package distdl

import (
	"math/rand"
	"testing"

	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// stepAllocBudget is the pinned steady-state allocation budget for one
// overlapped Trainer.Step on a single rank. The single-rank world makes
// every collective short-circuit, so the number isolates the training hot
// path itself (workspace-pooled forward/backward, allocation-free kernel
// dispatch, in-place bucket sync on the gradient arena, fused optimizer)
// from the goroutine-ring wire layer. It is the measured count, equal at
// GOMAXPROCS 1, 2 and 4: for each of the model's three gradient buckets
// an AllreduceRequest and its done channel. None is proportional to model
// size, and none comes from a sync.Pool, so the count is the same under
// -race. CI fails if a change pushes Step above it.
const stepAllocBudget = 6

// TestStepAllocsSteadyState is the allocation regression gate for the
// training hot path (run by CI; see also BenchmarkOverlapStep -benchmem
// for the wire-inclusive numbers).
func TestStepAllocsSteadyState(t *testing.T) {
	checkStepAllocs(t, "overlapped", stepAllocBudget, WithBucketBytes(1<<16), WithOverlap(true))
}

// TestMonolithicStepAllocsSteadyState: a monolithic Trainer.Step — fused
// SGD over the arena, the gradient averaged where backward wrote it, the
// loss summed through the communicator's scalar scratch — allocates
// nothing at all.
func TestMonolithicStepAllocsSteadyState(t *testing.T) {
	checkStepAllocs(t, "monolithic", 0)
}

// checkStepAllocs measures steady-state allocations of one single-rank
// Trainer.Step built with opts against budget.
func checkStepAllocs(t *testing.T, mode string, budget int, opts ...Option) {
	t.Helper()
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
		tr := distdlNewWith(c, model, opts...)
		// Warm the pools: the first steps populate workspace free lists
		// and the optimizer's velocity buffers.
		for i := 0; i < 3; i++ {
			tr.Step(x, y)
		}
		allocs := testing.AllocsPerRun(20, func() {
			tr.Step(x, y)
		})
		t.Logf("%s Trainer.Step: %.0f allocs/run (budget %d)", mode, allocs, budget)
		if allocs > float64(budget) {
			t.Errorf("%s Trainer.Step allocates %.0f/run in steady state, budget %d",
				mode, allocs, budget)
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
	return distdlNewWith(c, model, WithBucketBytes(1<<16), WithOverlap(true))
}

func distdlNewWith(c *mpi.Comm, model *nn.Sequential, opts ...Option) *Trainer {
	return New(c, model, nn.SoftmaxCrossEntropy{}, nn.NewSGD(0.9, 1e-4),
		append([]Option{WithSchedule(nn.ConstLR(0.01))}, opts...)...).(*Trainer)
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
