package distdl

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Tests of the sharded step's edges: a checkpoint one rank writes alone
// while the others run ahead, a sharded state restored into another world
// size, and gradient clipping across shards.

// oneWriterBlobs trains an MLP of 1 258 parameters (uneven chunks at 4
// ranks) for 9 steps on 4 ranks. Rank 0 checkpoints before step 0 and
// after steps 3, 6 and 9, alone and with no barrier, as benchmark/train.go
// and the ft supervisor's rank 0 do, while the other ranks run ahead into
// their next step. It returns rank 0's blobs.
func oneWriterBlobs(t *testing.T, opt func() nn.StatefulOptimizer) [][]byte {
	t.Helper()
	xs, ys, _ := synthClassification(90, 64, 12)
	var blobs [][]byte
	err := mpi.NewWorld(4).Run(func(c *mpi.Comm) error {
		model := nn.MLP(rand.New(rand.NewSource(91)), 12, 32, 24, 2)
		tr := New(c, model, nn.SoftmaxCrossEntropy{}, opt(), WithSchedule(nn.ConstLR(0.05))).(*Trainer)
		for s := 0; ; s++ {
			if c.Rank() == 0 && s%3 == 0 {
				blob, err := tr.Checkpoint()
				if err != nil {
					return err
				}
				blobs = append(blobs, blob)
			}
			if s == 9 {
				return nil
			}
			bx, by := GatherBatch(xs, ys, Shard(64, int64(s), c.Rank(), 4)[:4])
			tr.Step(bx, by)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return blobs
}

// TestOneWriterCheckpoint: rank 0's blobs, which read the other ranks'
// optimizer state in place while those ranks are already in their next
// step, are byte for byte the blobs of the replicated step, whose digests
// were recorded by this test body before the step was sharded. Under
// -race it is the check that no rank writes its state or values before
// rank 0 has joined the next reduce-scatter.
func TestOneWriterCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  func() nn.StatefulOptimizer
		want []string // steps 0, 3, 6, 9
	}{
		{"sgd", func() nn.StatefulOptimizer { return nn.NewSGD(0.9, 1e-4) }, []string{
			"4e0bf1b2d8ce2bd43ebf2b4af651b2ef5f47ff57cb810f3ee75948cfd3e1fd32",
			"3af8a583fc33900b7c056d4378603ad3be4c84fa2ccf177925c0d14851a97972",
			"a1b9c871bcee34ae10a7b5670d9c242902d41bbd3942fb9238f55dd78d531e6e",
			"136bcb650aa9c93672ab2ce70a5c9cff3ff1cd9c9a5c37248ef2839678970c84",
		}},
		{"adam", func() nn.StatefulOptimizer { return nn.NewAdam() }, []string{
			"14805da7afb1e2bd11d8b6d515dd152e063e246b2fc0109e13c187d9b97fe034",
			"dd271acf6bc7373cce617bee75dc245967585c7063b53e1b03ee700a6067a16e",
			"88940ee0ae5d265f046cf0ecaf600432584dda2ca2ced54c2b3744d22a375d6b",
			"0a2ba5aab17f70ab09d660475c6f474bf2562e6e41ab6566c4ae84b15b2b935c",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i, blob := range oneWriterBlobs(t, tc.opt) {
				sum := sha256.Sum256(blob)
				if got := hex.EncodeToString(sum[:]); got != tc.want[i] {
					t.Errorf("step %d: blob digest %s, want %s", 3*i, got, tc.want[i])
				}
			}
		})
	}
}

// TestShardedAdamRestoreIntoSmallerWorld: a 4-rank sharded Adam blob
// restored into a 2-rank world, whose chunk boundaries differ, continues
// bit for bit like the replicated path: two ranks that load the whole blob
// into a plain Adam and take refStep. Both sides write rank 0's checkpoint
// after each of three steps, and the blobs must be equal.
func TestShardedAdamRestoreIntoSmallerWorld(t *testing.T) {
	blobs := oneWriterBlobs(t, func() nn.StatefulOptimizer { return nn.NewAdam() })
	start := blobs[len(blobs)-1]
	xs, ys, _ := synthClassification(92, 32, 12)
	run := func(sharded bool) [][]byte {
		var out [][]byte
		err := mpi.NewWorld(2).Run(func(c *mpi.Comm) error {
			model, opt := nn.MLP(rand.New(rand.NewSource(93)), 12, 32, 24, 2), nn.NewAdam()
			var tr *Trainer
			var ws *tensor.Workspace
			if sharded {
				tr = New(c, model, nn.SoftmaxCrossEntropy{}, opt, WithSchedule(nn.ConstLR(0.05))).(*Trainer)
				if err := tr.Restore(start); err != nil {
					return err
				}
			} else {
				ws = refWorld(c, model)
				ck, err := nn.DecodeCheckpoint(start, model, opt)
				if err != nil {
					return err
				}
				ck.Apply()
			}
			for s := 9; s < 12; s++ {
				bx, by := GatherBatch(xs, ys, Shard(32, int64(s), c.Rank(), 2)[:4])
				if sharded {
					tr.Step(bx, by)
				} else {
					refStep(c, model, ws, opt, bx, by, 0.05)
				}
				if c.Rank() == 0 {
					out = append(out, nn.EncodeCheckpoint(model, opt, s+1))
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want, got := run(false), run(true)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("step %d after the restore: the 2-rank sharded run left the replicated one", 10+i)
		}
	}
}

// TestShardedClipMatchesClipGradNorm: with WithClipNorm, each rank clips
// its chunk by the global norm that one scalar allreduce of the chunk sums
// of squares gives. The parameters must match a single process that clips
// the whole batch's gradient with nn.ClipGradNorm to within 1e-12 (the sums
// round in another order), the clip must engage on every step, and all
// ranks must agree bit for bit.
func TestShardedClipMatchesClipGradNorm(t *testing.T) {
	const steps, clip, lr = 4, 0.05, 0.1
	xs, ys, _ := synthClassification(94, 32, 4)
	loss := nn.SoftmaxCrossEntropy{}
	for _, p := range []int{2, 4} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			batch := func(s, r int) []int { return Shard(32, int64(s), r, p)[:8/p] }
			ref, refOpt := buildModel(95), nn.NewSGD(0.9, 1e-4)
			for s := 0; s < steps; s++ {
				var idx []int
				for r := 0; r < p; r++ {
					idx = append(idx, batch(s, r)...)
				}
				bx, by := GatherBatch(xs, ys, idx)
				ref.ZeroGrads()
				_, g := loss.Forward(ref.Forward(bx, true), by)
				ref.Backward(g)
				if norm := nn.ClipGradNorm(ref.Params(), clip); norm <= clip {
					t.Fatalf("step %d: gradient norm %g does not exceed the clip %g", s, norm, clip)
				}
				refOpt.Step(ref.Params(), lr)
			}
			want := nn.FlattenValues(ref.Params())

			finals := make([][]float64, p)
			err := mpi.NewWorld(p).Run(func(c *mpi.Comm) error {
				model := buildModel(95)
				tr := New(c, model, loss, nn.NewSGD(0.9, 1e-4), WithSchedule(nn.ConstLR(lr)), WithClipNorm(clip)).(*Trainer)
				for s := 0; s < steps; s++ {
					bx, by := GatherBatch(xs, ys, batch(s, c.Rank()))
					tr.Step(bx, by)
				}
				finals[c.Rank()] = nn.FlattenValues(model.Params())
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for r, got := range finals {
				if !slices.Equal(floatBits(got), floatBits(finals[0])) {
					t.Fatalf("rank %d's parameters differ from rank 0's", r)
				}
			}
			for i := range want {
				if d := math.Abs(finals[0][i] - want[i]); d > 1e-12 {
					t.Fatalf("parameter %d: sharded clip %v, ClipGradNorm reference %v (|d| = %g)", i, finals[0][i], want[i], d)
				}
			}
		})
	}
}
