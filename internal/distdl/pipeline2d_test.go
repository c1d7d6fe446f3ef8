package distdl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

// 2D (data × pipeline) equivalence: a W = S·R grid training on R equal
// minibatch shards must reproduce, bitwise, the reference obtained by
// running the single-rank micro-accumulation loop on each shard and
// averaging the two shard gradients elementwise. With R = 2 the ring
// allreduce computes exactly g0[i]+g1[i] on both members (one addition
// per element, and FP addition is commutative), so no tolerance is
// needed.

func build2DModel(seed int64) *nn.Sequential {
	return nn.MLP(rand.New(rand.NewSource(seed)), 10, 18, 16, 14, 6)
}

func shardBatch(seed int64, rows int) (*tensor.Tensor, *tensor.Tensor) {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.Randn(rng, 1, rows, 10)
	y := tensor.New(rows, 6)
	for r := 0; r < rows; r++ {
		y.Data()[r*6+rng.Intn(6)] = 1
	}
	return x, y
}

// microAccumGrads runs the micro-batched gradient-accumulation reference
// on one shard and returns the resulting flat gradient and weighted loss.
// Identical math to the pipeline engine's per-micro scaling.
func microAccumGrads(model *nn.Sequential, loss nn.Loss, x, y *tensor.Tensor, M int) float64 {
	n := x.Dim(0)
	base, rem := n/M, n%M
	rowLenX := x.Size() / n
	rowLenY := y.Size() / n
	total := 0.0
	offX, offY := 0, 0
	for m := 0; m < M; m++ {
		rows := base
		if m < rem {
			rows++
		}
		shapeX := append([]int(nil), x.Shape()...)
		shapeX[0] = rows
		xm := tensor.New(shapeX...)
		copy(xm.Data(), x.Data()[offX:offX+rows*rowLenX])
		offX += rows * rowLenX
		shapeY := append([]int(nil), y.Shape()...)
		shapeY[0] = rows
		ym := tensor.New(shapeY...)
		copy(ym.Data(), y.Data()[offY:offY+rows*rowLenY])
		offY += rows * rowLenY

		out := model.Forward(xm, true)
		w := float64(rows) / float64(n)
		l, g := loss.Forward(out, ym)
		g.Scale(w)
		model.Backward(g)
		total += float64(l * w)
	}
	return total
}

func run2DEquivalence(t *testing.T, S, R, M, steps int, sched pipeline.Schedule) {
	t.Helper()
	run2DEquivalenceOver(t, S, R, M, steps, sched, func(c *mpi.Comm) mpi.Communicator { return c })
}

// run2DEquivalenceOver is run2DEquivalence with the trainer handed
// wrap(c) instead of the bare world communicator.
func run2DEquivalenceOver(t *testing.T, S, R, M, steps int, sched pipeline.Schedule, wrap func(*mpi.Comm) mpi.Communicator) {
	t.Helper()
	const rowsPerShard = 8
	loss := nn.SoftmaxCrossEntropy{}

	// Reference: one model per shard accumulates its micro grads; the 2D
	// gradient is the elementwise mean; identical SGD updates keep every
	// shard model in lockstep (they all start from the same seed).
	refs := make([]*nn.Sequential, R)
	refParams := make([][]*nn.Param, R)
	for r := range refs {
		refs[r] = build2DModel(3)
		refParams[r] = refs[r].Params()
	}
	refOpts := make([]*nn.SGD, R) // an optimizer steps one run of parameters
	for r := range refOpts {
		refOpts[r] = nn.NewSGD(0.9, 0)
	}
	refLosses := make([]float64, steps)
	for s := 0; s < steps; s++ {
		lsum := 0.0
		for r := 0; r < R; r++ {
			refs[r].ZeroGrads()
			x, y := shardBatch(int64(100+s*R+r), rowsPerShard)
			lsum += microAccumGrads(refs[r], loss, x, y, M)
		}
		refLosses[s] = lsum / float64(R)
		// Elementwise-average the shard gradients into every shard model,
		// mirroring the allreduce, then step each so they stay identical.
		nP := len(refParams[0])
		for p := 0; p < nP; p++ {
			g0 := refParams[0][p].Grad.Data()
			for r := 1; r < R; r++ {
				gr := refParams[r][p].Grad.Data()
				for i := range g0 {
					g0[i] += gr[i]
				}
			}
			inv := 1 / float64(R)
			for i := range g0 {
				g0[i] *= inv
			}
			for r := 1; r < R; r++ {
				copy(refParams[r][p].Grad.Data(), g0)
			}
		}
		for r := 0; r < R; r++ {
			refOpts[r].Step(refParams[r], 0.05)
		}
	}
	refValues := nn.FlattenValues(refParams[0])

	w := mpi.NewWorld(S * R)
	err := w.Run(func(c *mpi.Comm) error {
		model := build2DModel(3)
		tr := New(wrap(c), model, loss, nn.NewSGD(0.9, 0),
			WithSchedule(nn.ConstLR(0.05)),
			WithPipeline(S, M, sched),
		).(*PipelineTrainer)
		if tr.Replicas() != R {
			return fmt.Errorf("rank %d: got %d replicas, want %d", c.Rank(), tr.Replicas(), R)
		}
		for s := 0; s < steps; s++ {
			x, y := shardBatch(int64(100+s*R+tr.Replica()), rowsPerShard)
			got := tr.Step(x, y)
			if got != refLosses[s] {
				return fmt.Errorf("rank %d step %d: loss %v, ref %v", c.Rank(), s, got, refLosses[s])
			}
		}
		// Local chunk parameters must match the reference bitwise.
		gotParams := model.Params()
		for _, ci := range tr.Stage().LocalChunks() {
			for _, p := range tr.Stage().ChunkParams(ci) {
				for i, gp := range gotParams {
					if gp != p {
						continue
					}
					rp := refParams[0][i]
					for j := range p.Value.Data() {
						if p.Value.Data()[j] != rp.Value.Data()[j] {
							return fmt.Errorf("rank %d: param %s[%d] = %v, ref %v",
								c.Rank(), p.Name, j, p.Value.Data()[j], rp.Value.Data()[j])
						}
					}
				}
			}
		}
		// After SyncFullModel every rank holds the full reference model.
		tr.SyncFullModel()
		gotValues := nn.FlattenValues(gotParams)
		for i := range gotValues {
			if gotValues[i] != refValues[i] {
				return fmt.Errorf("rank %d: synced model diverges at flat[%d]", c.Rank(), i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func Test2DGPipeTwoByTwo(t *testing.T)    { run2DEquivalence(t, 2, 2, 4, 3, pipeline.GPipe) }
func Test2DOneFOneBTwoByTwo(t *testing.T) { run2DEquivalence(t, 2, 2, 4, 3, pipeline.OneFOneB) }
func Test2DOneFOneBThreeStages(t *testing.T) {
	run2DEquivalence(t, 3, 2, 4, 2, pipeline.OneFOneB)
}

// countingComm is a minimal pass-through interposer: it counts the calls
// that reach the wire through it and wraps the groups its Split returns,
// the way a tracing communicator does. Each rank owns its counts.
type countingComm struct {
	mpi.Communicator
	n *struct{ splits, sends, allreduces int }
}

func (c countingComm) Split(color, key int) mpi.Communicator {
	c.n.splits++
	child := c.Communicator.Split(color, key)
	if child == nil {
		return nil
	}
	return countingComm{child, c.n}
}

func (c countingComm) Send(dst, tag int, data []float64) {
	c.n.sends++
	c.Communicator.Send(dst, tag, data)
}

func (c countingComm) AllreduceInPlace(data []float64, op mpi.ReduceOp, algo mpi.Algo) {
	c.n.allreduces++
	c.Communicator.AllreduceInPlace(data, op, algo)
}

func (c countingComm) AllreduceMeanInPlace(data []float64, algo mpi.Algo) {
	c.n.allreduces++
	c.Communicator.AllreduceMeanInPlace(data, algo)
}

func (c countingComm) AllreduceScalar(v float64, op mpi.ReduceOp) float64 {
	c.n.allreduces++
	return c.Communicator.AllreduceScalar(v, op)
}

// Test2DOverWrappedCommunicator pins the WithPipeline seam: handed any
// mpi.Communicator, the 2D trainer splits it through the interface, so
// the pipeline p2p traffic and the per-chunk gradient sync of both axes
// go through the wrapper — and the run stays bitwise equal to the
// reference (hence to the run over the bare *mpi.Comm above).
func Test2DOverWrappedCommunicator(t *testing.T) {
	const S, R, M, steps = 2, 2, 4, 3
	counts := make([]struct{ splits, sends, allreduces int }, S*R)
	run2DEquivalenceOver(t, S, R, M, steps, pipeline.OneFOneB, func(c *mpi.Comm) mpi.Communicator {
		return countingComm{c, &counts[c.Rank()]}
	})
	for r, n := range counts {
		// Two axes; at least one activation or gradient leaves every stage
		// per micro-batch; one loss sync per step plus the chunk syncs.
		if n.splits != 2 || n.sends < steps*M || n.allreduces <= steps {
			t.Fatalf("rank %d: wrapper saw %+v", r, n)
		}
	}
}

// Test2DPassThroughCommMatchesBare runs one 2-stage × 2-replica 1F1B
// grid over the bare *mpi.Comm and over a pass-through interposer whose
// Split wraps both axis groups: every rank's losses and final parameters
// must come out bitwise equal. It is the contract an interposer between
// a 2D trainer and the wire, such as a tracing communicator, relies on.
func Test2DPassThroughCommMatchesBare(t *testing.T) {
	const S, R, M, steps = 2, 2, 4, 3
	run := func(wrap func(*mpi.Comm) mpi.Communicator) [][]float64 {
		out := make([][]float64, S*R)
		err := mpi.NewWorld(S * R).Run(func(c *mpi.Comm) error {
			model := build2DModel(3)
			tr := New(wrap(c), model, nn.SoftmaxCrossEntropy{}, nn.NewSGD(0.9, 0),
				WithPipeline(S, M, pipeline.OneFOneB)).(*PipelineTrainer)
			x, y := shardBatch(int64(100+tr.Replica()), 8)
			for s := 0; s < steps; s++ {
				out[c.Rank()] = append(out[c.Rank()], tr.Step(x, y))
			}
			tr.SyncFullModel()
			out[c.Rank()] = append(out[c.Rank()], nn.FlattenValues(model.Params())...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	bare := run(func(c *mpi.Comm) mpi.Communicator { return c })
	counts := make([]struct{ splits, sends, allreduces int }, S*R)
	wrapped := run(func(c *mpi.Comm) mpi.Communicator { return countingComm{c, &counts[c.Rank()]} })
	for r := range bare {
		for i := range bare[r] {
			if math.Float64bits(wrapped[r][i]) != math.Float64bits(bare[r][i]) {
				t.Fatalf("rank %d value %d: wrapped %v, bare %v", r, i, wrapped[r][i], bare[r][i])
			}
		}
	}
}

// Test2DPurePipeline pins the R = 1 degenerate case: WithPipeline with
// stages == world size is plain pipeline parallelism (no data axis), and
// no chunk gradient is averaged (nothing to average across).
func Test2DPurePipeline(t *testing.T) { run2DEquivalence(t, 3, 1, 4, 2, pipeline.GPipe) }

// Test2DStepAllocSteadyState extends the steady-state allocation gate to
// the 2D path: after warmup, further Steps must not miss the workspace
// pool, and the per-chunk flat-gradient buffers must not regrow.
func Test2DStepAllocSteadyState(t *testing.T) {
	const S, R, M = 2, 2, 4
	loss := nn.SoftmaxCrossEntropy{}
	w := mpi.NewWorld(S * R)
	err := w.Run(func(c *mpi.Comm) error {
		model := build2DModel(3)
		tr := New(c, model, loss, nn.NewSGD(0.9, 0),
			WithPipeline(S, M, pipeline.OneFOneB),
		).(*PipelineTrainer)
		x, y := shardBatch(int64(7+tr.Replica()), 8)
		for s := 0; s < 3; s++ {
			tr.Step(x, y)
		}
		warm := tr.Stage().Workspace().Allocs()
		for s := 0; s < 4; s++ {
			tr.Step(x, y)
		}
		if got := tr.Stage().Workspace().Allocs(); got != warm {
			return fmt.Errorf("rank %d: workspace pool misses grew %d -> %d in steady state", c.Rank(), warm, got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
