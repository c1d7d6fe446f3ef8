package distdl

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// soloTrainer builds a single-rank trainer around a fresh world.
func soloTrainer(modelSeed int64, dims ...int) *Trainer {
	w := mpi.NewWorld(1)
	m := nn.MLP(rand.New(rand.NewSource(modelSeed)), dims...)
	return New(w.Comm(0), m, nn.SoftmaxCrossEntropy{}, nn.NewSGD(0.9, 0)).(*Trainer)
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

// restoreCase is a model/optimizer pair with one batch to train on.
type restoreCase struct {
	name  string
	model func(rng *rand.Rand) *nn.Sequential
	opt   func() nn.StatefulOptimizer
	loss  nn.Loss
	x, y  *tensor.Tensor
}

// restoreCases are MLP+SGD, ResNetMini+SGD with weight decay (batch-norm
// statistics) and the GRU imputer+Adam. The imputer's dropout is off: its
// random stream is not training state a checkpoint carries, so with it on
// no restored run could follow the uninterrupted one.
func restoreCases() []restoreCase {
	mx, my, _ := synthClassification(8, 16, 4)
	rx, ry := goldenData(true)
	rng := rand.New(rand.NewSource(9))
	gx, gy := tensor.Randn(rng, 1, 4, 6, 3), tensor.Randn(rng, 1, 4, 6, 1)
	sgd := func() nn.StatefulOptimizer { return nn.NewSGD(0.9, 0) }
	return []restoreCase{
		{"mlp-sgd", func(rng *rand.Rand) *nn.Sequential { return nn.MLP(rng, 4, 8, 2) }, sgd, nn.SoftmaxCrossEntropy{}, mx, my},
		{"resnet-sgd-wd", func(rng *rand.Rand) *nn.Sequential { return nn.ResNetMini(rng, 2, 2, 4, 2) },
			func() nn.StatefulOptimizer { return nn.NewSGD(0.9, 1e-4) }, nn.SoftmaxCrossEntropy{}, rx, ry},
		{"gru-adam", func(rng *rand.Rand) *nn.Sequential {
			m := nn.GRUImputer(rng, 3)
			for _, l := range m.Layers {
				if d, ok := l.(*nn.Dropout); ok {
					d.Rate = 0
				}
			}
			return m
		}, func() nn.StatefulOptimizer { return nn.NewAdam() }, nn.MSE{}, gx, gy},
	}
}

// trainer builds a single-rank trainer on a model drawn from seed and
// takes steps steps.
func (rc restoreCase) trainer(seed int64, steps int) *Trainer {
	tr := New(mpi.NewWorld(1).Comm(0), rc.model(rand.New(rand.NewSource(seed))), rc.loss, rc.opt(),
		WithSchedule(nn.ConstLR(0.05))).(*Trainer)
	for i := 0; i < steps; i++ {
		tr.Step(rc.x, rc.y)
	}
	return tr
}

func mustCheckpoint(t *testing.T, tr *Trainer) []byte {
	t.Helper()
	blob, err := tr.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestRestoreLandsInArena: Restore writes into the bound value arena the
// step reads, and a fresh trainer restored from a checkpoint takes the
// next three steps bit for bit like the uninterrupted run: values,
// batch-norm statistics, optimizer state and step (compared as the
// checkpoint bytes of both trainers).
func TestRestoreLandsInArena(t *testing.T) {
	for _, rc := range restoreCases() {
		t.Run(rc.name, func(t *testing.T) {
			ref := rc.trainer(12, 3)
			fresh := rc.trainer(13, 0)
			if err := fresh.Restore(mustCheckpoint(t, ref)); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(fresh.values, ref.values) {
				t.Fatal("restored values did not land in the value arena")
			}
			for i := 1; i <= 3; i++ {
				ref.Step(rc.x, rc.y)
				fresh.Step(rc.x, rc.y)
				if !bytes.Equal(mustCheckpoint(t, fresh), mustCheckpoint(t, ref)) {
					t.Fatalf("step %d after Restore diverged from the uninterrupted run", i)
				}
			}
		})
	}
}

// TestRestoreFailureLeavesTrainerUnchanged: a Restore that fails on the
// other optimizer's state, or on a blob cut off inside its optimizer
// section, leaves values, batch-norm statistics, optimizer state and step
// bitwise as they were.
func TestRestoreFailureLeavesTrainerUnchanged(t *testing.T) {
	resnet := restoreCases()[1]
	with := func(opt func() nn.StatefulOptimizer) restoreCase {
		rc := resnet
		rc.opt = opt
		return rc
	}
	sgd, adam := resnet.opt, func() nn.StatefulOptimizer { return nn.NewAdam() }
	sgdBlob := mustCheckpoint(t, resnet.trainer(1, 3))
	adamBlob := mustCheckpoint(t, with(adam).trainer(1, 3))
	for _, tc := range []struct {
		name string
		opt  func() nn.StatefulOptimizer
		blob []byte
	}{
		{"adam-into-sgd", sgd, adamBlob},
		{"sgd-into-adam", adam, sgdBlob},
		{"truncated-optimizer-section", sgd, sgdBlob[:len(sgdBlob)-12]},
	} {
		dst := with(tc.opt).trainer(2, 2)
		values, states, state := floatBits(dst.values), stateBits(dst.Model), mustCheckpoint(t, dst)
		if err := dst.Restore(tc.blob); err == nil {
			t.Errorf("%s: Restore accepted the blob", tc.name)
			continue
		}
		if !slices.Equal(values, floatBits(dst.values)) {
			t.Errorf("%s: failed Restore changed the parameter values", tc.name)
		}
		if !slices.Equal(states, stateBits(dst.Model)) {
			t.Errorf("%s: failed Restore changed the batch-norm statistics", tc.name)
		}
		if dst.StepCount() != 2 {
			t.Errorf("%s: failed Restore changed the step to %d", tc.name, dst.StepCount())
		}
		if !bytes.Equal(state, mustCheckpoint(t, dst)) {
			t.Errorf("%s: failed Restore changed the trainer state", tc.name)
		}
	}
}

func floatBits(fs []float64) []uint64 {
	out := make([]uint64, len(fs))
	for i, f := range fs {
		out[i] = math.Float64bits(f)
	}
	return out
}

func stateBits(m *nn.Sequential) []uint64 {
	var out []uint64
	for _, s := range m.States() {
		out = append(out, floatBits(s.Data())...)
	}
	return out
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
		tr := New(c, m, nn.SoftmaxCrossEntropy{}, nn.NewSGD(0.9, 0)).(*Trainer)
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
		tr := New(c, m, nn.SoftmaxCrossEntropy{}, nn.NewSGD(0.9, 0)).(*Trainer)
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

// BenchmarkTrainerCheckpoint times Trainer.Checkpoint at gradsync-ddp's
// shape: MLP 1024-640-640-640-16 (1.49 M parameters) with SGD momentum,
// after one step so that every velocity buffer exists. It reports the blob
// size beside the time.
func BenchmarkTrainerCheckpoint(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := New(mpi.NewWorld(1).Comm(0), nn.MLP(rng, 1024, 640, 640, 640, 16), nn.SoftmaxCrossEntropy{},
		nn.NewSGD(0.9, 0)).(*Trainer)
	tr.Step(tensor.Randn(rng, 1, 8, 1024), nn.OneHot([]int{0, 1, 2, 3, 4, 5, 6, 7}, 16))
	var blob []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if blob, err = tr.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed())/1e6/float64(b.N), "ms/op")
	b.ReportMetric(float64(len(blob)), "blob_bytes")
}
