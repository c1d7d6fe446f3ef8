package distdl

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/nn"
)

// soloTrainer builds a single-rank trainer around a fresh world.
func soloTrainer(modelSeed int64, dims ...int) *Trainer {
	w := mpi.NewWorld(1)
	m := nn.MLP(rand.New(rand.NewSource(modelSeed)), dims...)
	return New(w.Comm(0), m, nn.SoftmaxCrossEntropy{}, nn.NewSGD(0.9, 0), WithConfig(Config{})).(*Trainer)
}

func TestRestoreRejectsMismatchedModel(t *testing.T) {
	src := soloTrainer(1, 4, 16, 2)
	blob, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	dst := soloTrainer(1, 4, 8, 2) // different hidden width
	before := nn.FlattenValues(dst.Model.Params())
	err = dst.Restore(blob)
	if err == nil {
		t.Fatal("Restore accepted a checkpoint from a structurally different model")
	}
	if !strings.Contains(err.Error(), "incompatible") {
		t.Fatalf("error should name the incompatibility, got: %v", err)
	}
	// A failed restore must not have touched the destination model.
	after := nn.FlattenValues(dst.Model.Params())
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("failed Restore mutated the model")
		}
	}
	if dst.StepCount() != 0 {
		t.Fatalf("failed Restore changed step count to %d", dst.StepCount())
	}
}

func TestRestoreRejectsOlderStep(t *testing.T) {
	tr := soloTrainer(2, 4, 8, 2)
	old, err := tr.Checkpoint() // step 0
	if err != nil {
		t.Fatal(err)
	}
	xs, ys, _ := synthClassification(3, 8, 4)
	for i := 0; i < 3; i++ {
		tr.Step(xs, ys)
	}
	err = tr.Restore(old)
	if err == nil {
		t.Fatal("Restore accepted a checkpoint older than the trainer's step")
	}
	if !strings.Contains(err.Error(), "monotonic") {
		t.Fatalf("error should mention monotonicity, got: %v", err)
	}
	if tr.StepCount() != 3 {
		t.Fatalf("failed Restore changed step count to %d", tr.StepCount())
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	tr := soloTrainer(4, 4, 8, 2)
	if err := tr.Restore([]byte("not a checkpoint")); err == nil {
		t.Fatal("Restore accepted garbage bytes")
	}
}

func TestRestoreRoundTripAfterSteps(t *testing.T) {
	xs, ys, _ := synthClassification(5, 16, 4)
	tr := soloTrainer(6, 4, 8, 2)
	for i := 0; i < 4; i++ {
		tr.Step(xs, ys)
	}
	blob, err := tr.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	saved := nn.FlattenValues(tr.Model.Params())
	for i := 0; i < 2; i++ {
		tr.Step(xs, ys)
	}
	// A fresh trainer (step 0) may restore any checkpoint; parameters and
	// step come back exactly.
	fresh := soloTrainer(99, 4, 8, 2)
	if err := fresh.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if fresh.StepCount() != 4 {
		t.Fatalf("restored step %d, want 4", fresh.StepCount())
	}
	got := nn.FlattenValues(fresh.Model.Params())
	for i := range saved {
		if got[i] != saved[i] {
			t.Fatal("restored parameters differ from checkpointed values")
		}
	}
}

// TestRestoreLandsInArena: Restore (LoadModel, then SGD.LoadState) writes
// into the bound value arena the step reads, so the restored trainer
// continues bit for bit like the one that wrote the checkpoint.
func TestRestoreLandsInArena(t *testing.T) {
	xs, ys, _ := synthClassification(8, 16, 4)
	tr := soloTrainer(12, 4, 8, 2)
	for i := 0; i < 3; i++ {
		tr.Step(xs, ys)
	}
	blob, err := tr.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	fresh := soloTrainer(13, 4, 8, 2)
	if err := fresh.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(fresh.values, tr.values) {
		t.Fatal("restored values did not land in the value arena")
	}
	tr.Step(xs, ys)
	fresh.Step(xs, ys)
	if !slices.Equal(fresh.values, tr.values) {
		t.Fatal("step after Restore diverged from the checkpointing trainer")
	}
}

// TestRestoreIntoSmallerWorld is the elastic-recovery core: a checkpoint
// written by a 4-rank run restores into a 2-rank world, every surviving
// rank agrees bitwise, and training proceeds.
func TestRestoreIntoSmallerWorld(t *testing.T) {
	xs, ys, _ := synthClassification(7, 32, 4)

	var blob []byte
	w4 := mpi.NewWorld(4)
	err := w4.Run(func(c *mpi.Comm) error {
		m := nn.MLP(rand.New(rand.NewSource(11)), 4, 8, 2)
		tr := New(c, m, nn.SoftmaxCrossEntropy{}, nn.NewSGD(0.9, 0), WithConfig(Config{})).(*Trainer)
		for i := 0; i < 5; i++ {
			shard := Shard(32, int64(i), c.Rank(), 4)
			bx, by := GatherBatch(xs, ys, shard[:4])
			tr.Step(bx, by)
		}
		if c.Rank() == 0 {
			var err error
			blob, err = tr.Checkpoint()
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	w2 := mpi.NewWorld(2)
	err = w2.Run(func(c *mpi.Comm) error {
		m := nn.MLP(rand.New(rand.NewSource(11)), 4, 8, 2)
		tr := New(c, m, nn.SoftmaxCrossEntropy{}, nn.NewSGD(0.9, 0), WithConfig(Config{})).(*Trainer)
		if err := tr.Restore(blob); err != nil {
			return err
		}
		if tr.StepCount() != 5 {
			t.Errorf("rank %d restored step %d, want 5", c.Rank(), tr.StepCount())
		}
		if !tr.ParamsInSync() {
			t.Errorf("rank %d: params out of sync after restore into smaller world", c.Rank())
		}
		shard := Shard(32, 100, c.Rank(), 2)
		bx, by := GatherBatch(xs, ys, shard[:4])
		tr.Step(bx, by)
		if !tr.ParamsInSync() {
			t.Errorf("rank %d: params out of sync after post-restore step", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
