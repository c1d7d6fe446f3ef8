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
// dispatch, bucket pack/unpack, optimizer) from the goroutine-ring wire
// layer. It is the measured count, equal at GOMAXPROCS 1, 2 and 4: for
// each of the model's three gradient buckets an AllreduceRequest and its
// done channel (6), plus the one-element buffer of the loss
// AllreduceScalar (1). None is proportional to model size, and none comes
// from a sync.Pool, so the count is the same under -race. CI fails if a
// change pushes Step above it.
const stepAllocBudget = 7

// TestStepAllocsSteadyState is the allocation regression gate for the
// training hot path (run by CI; see also BenchmarkOverlapStep -benchmem
// for the wire-inclusive numbers).
func TestStepAllocsSteadyState(t *testing.T) {
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
		// Warm the pools: the first steps populate workspace free lists and
		// bucket buffers.
		for i := 0; i < 3; i++ {
			tr.Step(x, y)
		}
		allocs := testing.AllocsPerRun(20, func() {
			tr.Step(x, y)
		})
		t.Logf("overlapped Trainer.Step: %.0f allocs/run (budget %d)", allocs, stepAllocBudget)
		if allocs > stepAllocBudget {
			t.Errorf("overlapped Trainer.Step allocates %.0f/run in steady state, budget %d",
				allocs, stepAllocBudget)
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
		WithBucketBytes(1<<16), WithOverlap(true), WithSchedule(nn.ConstLR(0.01))).(*Trainer)
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
