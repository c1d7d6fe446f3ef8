package distdl

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

// synthClassification builds a deterministic 2-class dataset.
func synthClassification(seed int64, n, dim int) (*tensor.Tensor, *tensor.Tensor, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(n, dim)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		for j := 0; j < dim; j++ {
			x.Set(float64(c*2-1)+float64(rng.NormFloat64()*0.8), i, j)
		}
		labels[i] = c
	}
	return x, nn.OneHot(labels, 2), labels
}

func buildModel(seed int64) *nn.Sequential {
	return nn.MLP(rand.New(rand.NewSource(seed)), 4, 16, 2)
}

func TestShardDisjointAndComplete(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5} {
		seen := map[int]int{}
		for r := 0; r < p; r++ {
			for _, i := range Shard(100, 42, r, p) {
				seen[i]++
			}
		}
		if len(seen) != 100 {
			t.Fatalf("p=%d: shards cover %d of 100", p, len(seen))
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("p=%d: index %d appears %d times", p, i, c)
			}
		}
	}
}

func TestShardDeterministicAcrossRanks(t *testing.T) {
	// The shuffle must be identical for all ranks (same seed) so the
	// partitions are consistent.
	a := Shard(50, 7, 0, 2)
	b := Shard(50, 7, 1, 2)
	both := append(append([]int(nil), a...), b...)
	sort.Ints(both)
	for i, v := range both {
		if v != i {
			t.Fatalf("shards not a partition: %v", both)
		}
	}
	// Different epochs shuffle differently.
	c := Shard(50, 8, 0, 2)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different epoch seeds should shuffle differently")
	}
}

func TestShardPanicsOnBadRank(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Shard(10, 1, 2, 2)
}

func TestBatches(t *testing.T) {
	b := Batches([]int{1, 2, 3, 4, 5}, 2)
	if len(b) != 3 || len(b[2]) != 1 || b[2][0] != 5 {
		t.Fatalf("batches: %v", b)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on batch size 0")
		}
	}()
	Batches([]int{1}, 0)
}

func TestGatherBatch(t *testing.T) {
	xs := tensor.FromSlice([]float64{0, 0, 1, 1, 2, 2, 3, 3}, 4, 2)
	ys := tensor.FromSlice([]float64{0, 1, 2, 3}, 4, 1)
	bx, by := GatherBatch(xs, ys, []int{2, 0})
	if bx.At(0, 0) != 2 || bx.At(1, 1) != 0 || by.At(0, 0) != 2 || by.At(1, 0) != 0 {
		t.Fatalf("gather: %v %v", bx.Data(), by.Data())
	}
}

func TestGatherBatchPanicsOutOfRange(t *testing.T) {
	xs := tensor.New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	gatherRows(xs, []int{5})
}

// TestDistributedMatchesSequential is the key correctness property of
// synchronous data parallelism: p workers with local batch b must produce
// exactly the same parameter trajectory as 1 worker with batch p·b
// (identical global batch, averaged gradients).
func TestDistributedMatchesSequential(t *testing.T) {
	xs, ys, _ := synthClassification(1, 64, 4)
	const steps = 5

	// Sequential reference: batch 16.
	ref := buildModel(100)
	refOpt := nn.NewSGD(0.9, 0)
	loss := nn.SoftmaxCrossEntropy{}
	for s := 0; s < steps; s++ {
		idx := make([]int, 16)
		for i := range idx {
			idx[i] = (s*16 + i) % 64
		}
		bx, by := GatherBatch(xs, ys, idx)
		ref.ZeroGrads()
		out := ref.Forward(bx, true)
		_, grad := loss.Forward(out, by)
		ref.Backward(grad)
		refOpt.Step(ref.Params(), 0.05)
	}

	// Distributed: 4 workers × batch 4 covering the same 16 samples/step.
	const p = 4
	w := mpi.NewWorld(p)
	finals := make([][]float64, p)
	err := w.Run(func(c *mpi.Comm) error {
		model := buildModel(100) // same init seed on every rank
		tr := New(c, model, loss, nn.NewSGD(0.9, 0), WithSchedule(nn.ConstLR(0.05))).(*Trainer)
		for s := 0; s < steps; s++ {
			idx := make([]int, 4)
			for i := range idx {
				idx[i] = (s*16 + c.Rank()*4 + i) % 64
			}
			bx, by := GatherBatch(xs, ys, idx)
			tr.Step(bx, by)
		}
		finals[c.Rank()] = nn.FlattenValues(model.Params())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	refFlat := nn.FlattenValues(ref.Params())
	for r := 0; r < p; r++ {
		for i := range refFlat {
			if math.Abs(finals[r][i]-refFlat[i]) > 1e-9 {
				t.Fatalf("rank %d param %d diverged: %g vs %g", r, i, finals[r][i], refFlat[i])
			}
		}
	}
}

func TestParamsStayInSync(t *testing.T) {
	xs, ys, _ := synthClassification(2, 48, 4)
	const p = 3
	w := mpi.NewWorld(p)
	err := w.Run(func(c *mpi.Comm) error {
		// Different init seeds per rank: broadcast must fix that.
		model := buildModel(int64(c.Rank()))
		tr := New(c, model, nn.SoftmaxCrossEntropy{}, nn.NewAdam()).(*Trainer)
		if !tr.ParamsInSync() {
			return fmt.Errorf("params not in sync after broadcast")
		}
		for epoch := 0; epoch < 2; epoch++ {
			shard := Shard(48, int64(epoch), c.Rank(), p)
			for _, batch := range Batches(shard, 8) {
				bx, by := GatherBatch(xs, ys, batch)
				tr.Step(bx, by)
			}
		}
		if !tr.ParamsInSync() {
			return fmt.Errorf("params diverged after training")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTrainingConvergesDistributed(t *testing.T) {
	xs, ys, labels := synthClassification(3, 80, 4)
	const p = 4
	w := mpi.NewWorld(p)
	var acc float64
	err := w.Run(func(c *mpi.Comm) error {
		model := buildModel(55)
		tr := New(c, model, nn.SoftmaxCrossEntropy{}, nn.NewSGD(0.9, 0), WithSchedule(nn.WarmupLinearScale{Base: 0.01, Workers: p, WarmupSteps: 10})).(*Trainer)
		var last float64
		for epoch := 0; epoch < 15; epoch++ {
			shard := Shard(80, int64(epoch), c.Rank(), p)
			for _, batch := range Batches(shard, 5) {
				bx, by := GatherBatch(xs, ys, batch)
				last = tr.Step(bx, by)
			}
		}
		if last > 0.2 {
			return fmt.Errorf("loss %f did not converge", last)
		}
		if c.Rank() == 0 {
			acc = nn.Accuracy(model.Forward(xs, false), labels)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Fatalf("distributed training accuracy %f", acc)
	}
}

// New refuses option combinations whose trainer would silently ignore one
// of them: the 2D trainer does not clip gradients. It panics before any
// collective, so one rank is enough to check.
func TestNewRejectsUnsupportedCombinations(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want string
	}{
		{"pipeline+clip", []Option{WithPipeline(1, 2, pipeline.GPipe), WithClipNorm(1)}, "WithClipNorm is not supported with WithPipeline"},
		{"non-ring-algo", []Option{WithAlgo(mpi.AlgoTree)}, "gradients always sync over the ring"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); !strings.Contains(fmt.Sprint(r), tc.want) {
					t.Fatalf("New panicked with %v, want %q", r, tc.want)
				}
			}()
			New(mpi.NewWorld(1).Comm(0), buildModel(1), nn.SoftmaxCrossEntropy{}, nn.NewSGD(0.9, 0), tc.opts...)
		})
	}
}

// refStep is the data-parallel step the sharded one replaced, as a test
// reference: forward and backward through the workspace like Trainer.Step,
// one ring allreduce of the mean gradient, then Optimizer.Step over every
// parameter on every rank.
func refStep(c mpi.Communicator, model *nn.Sequential, ws *tensor.Workspace, opt nn.Optimizer, x, y *tensor.Tensor, lr float64) {
	ws.ReleaseAll()
	model.ZeroGrads()
	_, grad := nn.LossForward(ws, nn.SoftmaxCrossEntropy{}, model.Forward(x, true), y)
	model.Backward(grad)
	_, grads := model.Span(model.Params())
	c.AllreduceMeanInPlace(grads, mpi.AlgoRing)
	opt.Step(model.Params(), lr)
}

// refWorld binds model's arena, broadcasts rank 0's values like New and
// returns the workspace refStep runs on.
func refWorld(c mpi.Communicator, model *nn.Sequential) *tensor.Workspace {
	values, _ := model.BindArena()
	copy(values, c.Bcast(0, values))
	ws := tensor.NewWorkspace()
	model.SetWorkspace(ws)
	return ws
}

// TestZeROMatchesDenseAdam: the data-parallel step is ZeRO-1 (reduce-scatter,
// a span step, allgather) and must leave every rank with bitwise the
// parameters, and rank 0 with bitwise the checkpoint, of the replicated step
// it replaced (refStep). SGD with momentum and weight decay, which NoDecay
// biases skip, and Adam, at world sizes that do and do not divide the
// parameter count.
func TestZeROMatchesDenseAdam(t *testing.T) {
	xs, ys, _ := synthClassification(6, 40, 4)
	const steps = 4
	for _, oc := range []struct {
		name string
		opt  func() nn.StatefulOptimizer
	}{
		{"sgd", func() nn.StatefulOptimizer { return nn.NewSGD(0.9, 1e-4) }},
		{"adam", func() nn.StatefulOptimizer { return nn.NewAdam() }},
	} {
		for _, p := range []int{2, 3, 4, 5} {
			t.Run(fmt.Sprintf("%s/p%d", oc.name, p), func(t *testing.T) {
				run := func(sharded bool) ([][]float64, []byte) {
					finals := make([][]float64, p)
					var blob []byte
					err := mpi.NewWorld(p).Run(func(c *mpi.Comm) error {
						model, opt := buildModel(200), oc.opt()
						var tr *Trainer
						var ws *tensor.Workspace
						if sharded {
							tr = New(c, model, nn.SoftmaxCrossEntropy{}, opt, WithSchedule(nn.ConstLR(0.01))).(*Trainer)
						} else {
							ws = refWorld(c, model)
						}
						for s := 0; s < steps; s++ {
							bx, by := GatherBatch(xs, ys, Shard(40, int64(s), c.Rank(), p)[:2])
							if sharded {
								tr.Step(bx, by)
							} else {
								refStep(c, model, ws, opt, bx, by, 0.01)
							}
						}
						finals[c.Rank()] = nn.FlattenValues(model.Params())
						if c.Rank() == 0 {
							blob = nn.EncodeCheckpoint(model, opt, steps)
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					return finals, blob
				}
				want, wantBlob := run(false)
				got, gotBlob := run(true)
				for r := range got {
					if !slices.Equal(floatBits(got[r]), floatBits(want[0])) {
						t.Fatalf("rank %d: sharded parameters differ from the replicated step's", r)
					}
				}
				if !bytes.Equal(gotBlob, wantBlob) {
					t.Fatal("rank 0's checkpoint differs from the replicated step's")
				}
			})
		}
	}
}

// TestZeROShardMemorySaving: each rank's optimizer state covers exactly the
// chunk its reduce-scatter owns, per slot, and the chunks tile the arena:
// at 4 ranks a quarter of the replicated state each.
func TestZeROShardMemorySaving(t *testing.T) {
	const p = 4
	n := nn.NumParams(buildModel(9).Params())
	spans := make([][2]int, p)
	err := mpi.NewWorld(p).Run(func(c *mpi.Comm) error {
		opt := nn.NewAdam()
		New(c, buildModel(9), nn.SoftmaxCrossEntropy{}, opt)
		lo, hi := opt.State().Span()
		spans[c.Rank()] = [2]int{lo, hi}
		if wlo, whi := mpi.OwnedChunk(n, p, c.Rank()); lo != wlo || hi != whi {
			return fmt.Errorf("rank %d: state spans [%d, %d), its chunk is [%d, %d)", c.Rank(), lo, hi, wlo, whi)
		}
		if hi-lo > n/p+1 {
			return fmt.Errorf("rank %d: state of %d elements for %d params on %d ranks", c.Rank(), hi-lo, n, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i][0] < spans[j][0] })
	end := 0
	for _, s := range spans {
		if s[0] != end {
			t.Fatalf("rank spans %v do not tile [0, %d)", spans, n)
		}
		end = s[1]
	}
	if end != n {
		t.Fatalf("rank spans %v do not tile [0, %d)", spans, n)
	}
}

func TestDistributedArgmaxMatchesSingle(t *testing.T) {
	xs, _, _ := synthClassification(20, 30, 4)
	model := buildModel(7)
	blob, err := nn.SaveModel(model)
	if err != nil {
		t.Fatal(err)
	}
	ref := model.Forward(xs, false).ArgmaxRows()
	for _, p := range []int{1, 2, 3, 5} {
		w := mpi.NewWorld(p)
		results := make([][]int, p)
		err := w.Run(func(c *mpi.Comm) error {
			replica := buildModel(1234)
			if err := nn.LoadModel(replica, blob); err != nil {
				return err
			}
			results[c.Rank()] = DistributedArgmax(c, replica, xs, 4)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < p; r++ {
			if len(results[r]) != len(ref) {
				t.Fatalf("p=%d rank %d: %d predictions, want %d", p, r, len(results[r]), len(ref))
			}
			for i := range ref {
				if results[r][i] != ref[i] {
					t.Fatalf("p=%d rank %d sample %d: %d vs %d", p, r, i, results[r][i], ref[i])
				}
			}
		}
	}
}

func TestDistributedArgmaxPanicsOnBadBatch(t *testing.T) {
	xs, _, _ := synthClassification(21, 4, 4)
	w := mpi.NewWorld(1)
	err := w.Run(func(c *mpi.Comm) error {
		defer func() { recover() }()
		DistributedArgmax(c, buildModel(1), xs, 0)
		return fmt.Errorf("expected panic")
	})
	if err != nil {
		t.Fatal(err)
	}
}

// halvingSchedule halves the rate every 3 steps, so a resumed run diverges
// unless it restores the schedule position.
type halvingSchedule struct{}

func (halvingSchedule) LR(step int) float64 { return 0.05 * math.Pow(0.5, float64(step/3)) }

// TestCheckpointResumeExact is the checkpoint/restart invariant (the
// workflow the NAM accelerates, ref [12]): training k steps, saving,
// resuming in a fresh process, and training k more must equal an
// uninterrupted 2k-step run bit-for-bit — including optimizer momenta
// and the schedule position.
func TestCheckpointResumeExact(t *testing.T) {
	xs, ys, _ := synthClassification(30, 40, 4)
	sched := halvingSchedule{}
	step := func(tr *Trainer, s int) {
		idx := []int{(s * 4) % 40, (s*4 + 1) % 40, (s*4 + 2) % 40, (s*4 + 3) % 40}
		bx, by := GatherBatch(xs, ys, idx)
		tr.Step(bx, by)
	}

	// Uninterrupted run: 8 steps.
	w1 := mpi.NewWorld(1)
	var ref []float64
	_ = w1.Run(func(c *mpi.Comm) error {
		tr := New(c, buildModel(500), nn.SoftmaxCrossEntropy{}, nn.NewSGD(0.9, 0), WithSchedule(sched)).(*Trainer)
		for s := 0; s < 8; s++ {
			step(tr, s)
		}
		ref = nn.FlattenValues(tr.Model.Params())
		return nil
	})

	// Interrupted: 4 steps, checkpoint, new trainer, restore, 4 more.
	var blob []byte
	w2 := mpi.NewWorld(1)
	_ = w2.Run(func(c *mpi.Comm) error {
		tr := New(c, buildModel(500), nn.SoftmaxCrossEntropy{}, nn.NewSGD(0.9, 0), WithSchedule(sched)).(*Trainer)
		for s := 0; s < 4; s++ {
			step(tr, s)
		}
		var err error
		blob, err = tr.Checkpoint()
		return err
	})

	var resumed []float64
	w3 := mpi.NewWorld(1)
	_ = w3.Run(func(c *mpi.Comm) error {
		tr := New(c, buildModel(12345), nn.SoftmaxCrossEntropy{}, nn.NewSGD(0.9, 0), WithSchedule(sched)).(*Trainer)
		if err := tr.Restore(blob); err != nil {
			return err
		}
		if tr.StepCount() != 4 {
			return fmt.Errorf("restored step count %d", tr.StepCount())
		}
		for s := 4; s < 8; s++ {
			step(tr, s)
		}
		resumed = nn.FlattenValues(tr.Model.Params())
		return nil
	})

	for i := range ref {
		if ref[i] != resumed[i] {
			t.Fatalf("param %d diverged after resume: %g vs %g", i, ref[i], resumed[i])
		}
	}
}

func TestCheckpointResumeAdam(t *testing.T) {
	xs, ys, _ := synthClassification(31, 20, 4)
	run := func(split bool) []float64 {
		var blob []byte
		var out []float64
		w := mpi.NewWorld(1)
		_ = w.Run(func(c *mpi.Comm) error {
			tr := New(c, buildModel(600), nn.SoftmaxCrossEntropy{}, nn.NewAdam(), WithSchedule(nn.ConstLR(0.01))).(*Trainer)
			for s := 0; s < 3; s++ {
				bx, by := GatherBatch(xs, ys, []int{s, s + 1})
				tr.Step(bx, by)
			}
			if split {
				var err error
				blob, err = tr.Checkpoint()
				return err
			}
			for s := 3; s < 6; s++ {
				bx, by := GatherBatch(xs, ys, []int{s, s + 1})
				tr.Step(bx, by)
			}
			out = nn.FlattenValues(tr.Model.Params())
			return nil
		})
		if !split {
			return out
		}
		w2 := mpi.NewWorld(1)
		_ = w2.Run(func(c *mpi.Comm) error {
			tr := New(c, buildModel(77), nn.SoftmaxCrossEntropy{}, nn.NewAdam(), WithSchedule(nn.ConstLR(0.01))).(*Trainer)
			if err := tr.Restore(blob); err != nil {
				return err
			}
			for s := 3; s < 6; s++ {
				bx, by := GatherBatch(xs, ys, []int{s, s + 1})
				tr.Step(bx, by)
			}
			out = nn.FlattenValues(tr.Model.Params())
			return nil
		})
		return out
	}
	a := run(false)
	b := run(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Adam resume diverged at %d", i)
		}
	}
}

// TestElasticRestart simulates a node failure between epochs: a 4-rank
// run checkpoints, the "failed" world is torn down, and training resumes
// on a 2-rank world from the checkpoint — the elastic-training workflow
// the checkpoint/restart machinery enables. Loss must keep improving
// after the restart.
func TestElasticRestart(t *testing.T) {
	xs, ys, _ := synthClassification(40, 60, 4)
	var blob []byte
	var lossBefore float64
	w4 := mpi.NewWorld(4)
	err := w4.Run(func(c *mpi.Comm) error {
		tr := New(c, buildModel(700), nn.SoftmaxCrossEntropy{}, nn.NewSGD(0.9, 0), WithSchedule(nn.ConstLR(0.05))).(*Trainer)
		for epoch := 0; epoch < 4; epoch++ {
			shard := Shard(60, int64(epoch), c.Rank(), 4)
			for _, batch := range Batches(shard, 5) {
				bx, by := GatherBatch(xs, ys, batch)
				l := tr.Step(bx, by)
				if c.Rank() == 0 {
					lossBefore = l
				}
			}
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

	// "Two nodes died": resume on a 2-rank world.
	var lossAfter float64
	w2 := mpi.NewWorld(2)
	err = w2.Run(func(c *mpi.Comm) error {
		tr := New(c, buildModel(701), nn.SoftmaxCrossEntropy{}, nn.NewSGD(0.9, 0), WithSchedule(nn.ConstLR(0.05))).(*Trainer)
		if err := tr.Restore(blob); err != nil {
			return err
		}
		if !tr.ParamsInSync() {
			// Restore happened per rank from the same blob: still in sync.
			return fmt.Errorf("ranks out of sync after restore")
		}
		for epoch := 4; epoch < 10; epoch++ {
			shard := Shard(60, int64(epoch), c.Rank(), 2)
			for _, batch := range Batches(shard, 5) {
				bx, by := GatherBatch(xs, ys, batch)
				l := tr.Step(bx, by)
				if c.Rank() == 0 {
					lossAfter = l
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if lossAfter >= lossBefore {
		t.Fatalf("training did not keep improving after elastic restart: %f -> %f", lossBefore, lossAfter)
	}
}

// --- distributed inference (serving's offline counterpart) ---

func TestDistributedPredictMatchesLocal(t *testing.T) {
	x, _, _ := synthClassification(31, 23, 4)
	// Local reference: one model, full batch, softmax probabilities.
	ref := nn.Activate(nil, buildModel(99).Forward(x, false), nn.ActSoftmax)

	for _, p := range []int{1, 2, 3, 4} {
		w := mpi.NewWorld(p)
		err := w.Run(func(c *mpi.Comm) error {
			model := buildModel(99) // same seed on every rank = same params
			probs := DistributedPredict(c, model, x, 5, nn.ActSoftmax)
			if probs.Dim(0) != 23 || probs.Dim(1) != 2 {
				return fmt.Errorf("rank %d: shape %v", c.Rank(), probs.Shape())
			}
			for i, v := range probs.Data() {
				if math.Abs(v-ref.Data()[i]) > 1e-12 {
					return fmt.Errorf("rank %d: element %d differs: %g vs %g", c.Rank(), i, v, ref.Data()[i])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestDistributedPredictRowsAreProbabilities(t *testing.T) {
	x, _, _ := synthClassification(33, 11, 4)
	w := mpi.NewWorld(2)
	err := w.Run(func(c *mpi.Comm) error {
		probs := DistributedPredict(c, buildModel(5), x, 4, nn.ActSoftmax)
		for i := 0; i < probs.Dim(0); i++ {
			sum := 0.0
			for j := 0; j < probs.Dim(1); j++ {
				v := probs.At(i, j)
				if v < 0 || v > 1 {
					return fmt.Errorf("probability out of range: %g", v)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return fmt.Errorf("row %d sums to %g", i, sum)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistributedArgmaxConsistentWithPredict(t *testing.T) {
	x, _, _ := synthClassification(35, 17, 4)
	w := mpi.NewWorld(3)
	err := w.Run(func(c *mpi.Comm) error {
		model := buildModel(7)
		preds := DistributedArgmax(c, model, x, 4)
		probs := DistributedPredict(c, model, x, 4, nn.ActSigmoid)
		if len(preds) != 17 {
			return fmt.Errorf("got %d predictions", len(preds))
		}
		for i, cls := range preds {
			if cls != probs.ArgmaxRows()[i] {
				return fmt.Errorf("sample %d: argmax %d vs probability argmax %d", i, cls, probs.ArgmaxRows()[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTopK(t *testing.T) {
	probs := []float64{0.1, 0.5, 0.05, 0.3, 0.05}
	if got := TopK(probs, 3); got[0] != 1 || got[1] != 3 || got[2] != 0 {
		t.Fatalf("TopK(3) = %v, want [1 3 0]", got)
	}
	if got := TopK(probs, 99); len(got) != 5 {
		t.Fatalf("overlong k not clamped: %v", got)
	}
	if got := TopK(probs, 0); len(got) != 0 {
		t.Fatalf("k=0 should be empty, got %v", got)
	}
	// Ties keep the lower index first (stable sort).
	if got := TopK([]float64{0.2, 0.4, 0.4}, 2); got[0] != 1 || got[1] != 2 {
		t.Fatalf("tie-break wrong: %v", got)
	}
}
