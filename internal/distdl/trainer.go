// Package distdl implements Horovod-style distributed data-parallel deep
// learning on top of the mpi runtime and the nn library (§III-A of the
// paper: "The DL model's distributed training employs a multi-node data
// parallelism strategy ... using multiple GPUs and communicating with MPI
// to synchronise the learning process").
//
// Each rank holds a full model replica; per step, replicas compute
// gradients on disjoint minibatches, average them with an allreduce
// (selectable algorithm), and apply identical
// optimizer updates — so all replicas stay bit-identical without any
// parameter server. A ZeRO-1 style mode shards optimizer state across
// ranks (as in DeepSpeed, which the paper names as the successor tooling).
package distdl

import (
	"fmt"
	"time"

	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Config tunes a distributed trainer.
type Config struct {
	// Algo is the gradient allreduce algorithm (ring by default).
	Algo mpi.Algo
	// ClipNorm, when positive, clips the global gradient norm after
	// averaging (needed by the recurrent models). Only the plain trainer
	// implements it: New panics if it is combined with WithZeRO or
	// WithPipeline.
	ClipNorm float64
	// Schedule yields the learning rate per optimizer step; defaults to
	// a constant 0.01 when nil.
	Schedule nn.Schedule
	// Tracer, when non-nil, receives compute/comm sub-spans and one step
	// span per optimizer step on this rank's track, so the per-step
	// communication fraction is readable straight off the timeline. The
	// nil default costs nothing on the hot path.
	Tracer *telemetry.Tracer
}

// Trainer drives one rank's replica. Comm is an interface so a fault
// injector (internal/ft) or any other interposer can sit between the
// trainer and the wire.
type Trainer struct {
	Comm  mpi.Communicator
	Model *nn.Sequential
	Loss  nn.Loss
	Opt   nn.Optimizer
	Cfg   Config

	params []*nn.Param
	// values and grads are the model's parameter arena
	// (nn.Sequential.BindArena): the gradient allreduce runs on grads in
	// place, where backward wrote them.
	values, grads []float64
	step          int
	// ws is the trainer-owned tensor workspace threaded through the model
	// and loss: every forward/backward temporary is borrowed from it and
	// recycled at the top of the next Step, so steady-state training
	// allocates (almost) nothing. Results are bitwise identical to the
	// allocating path — pooled buffers are zero-filled on Get and the same
	// kernels run in the same order.
	ws *tensor.Workspace
	// ComputeNs and CommNs accumulate wall time spent in local
	// compute (forward/backward/optimizer) versus communication
	// (gradient and loss sync) across all steps — the raw inputs to the
	// comm-fraction breakdown, tracked whether or not a Tracer is set.
	ComputeNs int64
	CommNs    int64
}

// newTrainer wires a replica to its communicator over the model's bound
// parameter arena, whose values New has broadcast from rank 0 (the Horovod
// `broadcast_parameters` step).
func newTrainer(comm mpi.Communicator, model *nn.Sequential, loss nn.Loss, opt nn.Optimizer, cfg Config) *Trainer {
	if cfg.Algo == "" {
		cfg.Algo = mpi.AlgoRing
	}
	if cfg.Schedule == nil {
		cfg.Schedule = nn.ConstLR(0.01)
	}
	t := &Trainer{Comm: comm, Model: model, Loss: loss, Opt: opt, Cfg: cfg,
		params: model.Params(), ws: tensor.NewWorkspace()}
	t.values, t.grads = model.Span(t.params)
	model.SetWorkspace(t.ws)
	return t
}

// Step runs one synchronous data-parallel optimizer step on this rank's
// minibatch and returns the *globally averaged* loss. The gradient is
// averaged by one blocking allreduce over the whole arena, in place, after
// backward has finished.
func (t *Trainer) Step(x, y *tensor.Tensor) float64 {
	tr := t.Cfg.Tracer
	rank := t.Comm.Rank()
	stepStart := tr.Start()

	// Recycle every workspace tensor borrowed by the previous step (and by
	// any evaluation forwards run since) back to the pool.
	t.ws.ReleaseAll()

	c0 := time.Now()
	t.Model.ZeroGrads()
	out := t.Model.Forward(x, true)
	loss, grad := nn.LossForward(t.ws, t.Loss, out, y)
	t.Model.Backward(grad)
	t.ComputeNs += time.Since(c0).Nanoseconds()
	tr.End(rank, telemetry.CatCompute, "fwd-bwd", stepStart, 0, "")

	t.syncGrads(tr, rank)

	optStart := tr.Start()
	o0 := time.Now()
	if t.Cfg.ClipNorm > 0 {
		nn.ClipGradNorm(t.params, t.Cfg.ClipNorm)
	}
	t.Opt.Step(t.params, t.Cfg.Schedule.LR(t.step))
	t.ComputeNs += time.Since(o0).Nanoseconds()
	tr.End(rank, telemetry.CatCompute, "optimizer", optStart, 0, "")
	t.step++

	lossStart := tr.Start()
	c2 := time.Now()
	mean := t.Comm.AllreduceScalar(loss, mpi.OpSum) / float64(t.Comm.Size())
	t.CommNs += time.Since(c2).Nanoseconds()
	tr.End(rank, telemetry.CatComm, "loss-sync", lossStart, 8, "")
	tr.End(rank, telemetry.CatStep, "step", stepStart, 0, "")
	return mean
}

// syncGrads averages the whole gradient arena in one blocking allreduce,
// in place.
func (t *Trainer) syncGrads(tr *telemetry.Tracer, rank int) {
	flat := t.grads
	commStart := tr.Start()
	c1 := time.Now()
	if t.Comm.Size() > 1 {
		t.Comm.AllreduceMeanInPlace(flat, t.Cfg.Algo)
	}
	t.CommNs += time.Since(c1).Nanoseconds()
	tr.End(rank, telemetry.CatComm, "grad-sync", commStart, 8*int64(len(flat)), string(t.Cfg.Algo))
}

// CommFraction returns the share of this rank's accumulated step time
// spent communicating — the quantity whose growth with worker count
// bounds data-parallel scaling efficiency (§III-A).
func (t *Trainer) CommFraction() float64 {
	total := t.ComputeNs + t.CommNs
	if total == 0 {
		return 0
	}
	return float64(t.CommNs) / float64(total)
}

// StepCount returns the number of optimizer steps taken.
func (t *Trainer) StepCount() int { return t.step }

// Workspace exposes the trainer-owned tensor pool. Evaluation loops that
// run many Model.Forward calls between optimizer steps should call
// ReleaseAll between batches so eval borrows are recycled instead of
// accumulating until the next Step.
func (t *Trainer) Workspace() *tensor.Workspace { return t.ws }

// GatherBatch assembles a minibatch (x, y) from row-major sample tensors
// given selected indices. xs has shape (N, ...), ys (N, ...); the outputs
// keep trailing dims.
func GatherBatch(xs, ys *tensor.Tensor, idx []int) (*tensor.Tensor, *tensor.Tensor) {
	return gatherRows(xs, idx), gatherRows(ys, idx)
}

func gatherRows(src *tensor.Tensor, idx []int) *tensor.Tensor {
	outShape := append([]int{len(idx)}, src.Shape()[1:]...)
	return gatherRowsInto(tensor.New(outShape...), src, idx)
}

// gatherRowsInto copies the selected rows of src into out, which must
// have shape (len(idx), src dims 1..).
func gatherRowsInto(out, src *tensor.Tensor, idx []int) *tensor.Tensor {
	shape := src.Shape()
	rowLen := 1
	for _, d := range shape[1:] {
		rowLen *= d
	}
	for i, r := range idx {
		if r < 0 || r >= shape[0] {
			panic(fmt.Sprintf("distdl: sample index %d out of range [0,%d)", r, shape[0]))
		}
		copy(out.Data()[i*rowLen:(i+1)*rowLen], src.Data()[r*rowLen:(r+1)*rowLen])
	}
	return out
}

// Checkpoint serializes the full training state — model parameters and
// batch-norm statistics, optimizer state, and the step counter — so a run
// can resume exactly (the checkpoint/restart workflow the NAM module
// accelerates, ref [12]). Requires a StatefulOptimizer.
func (t *Trainer) Checkpoint() ([]byte, error) {
	so, err := t.statefulOpt()
	if err != nil {
		return nil, err
	}
	return nn.EncodeCheckpoint(t.Model, so, t.step), nil
}

// Restore loads a Checkpoint into a trainer with a structurally identical
// model and the same optimizer kind. The blob, and step monotonicity, are
// fully checked before any state is mutated, so a failed Restore leaves
// the trainer untouched. The world size may differ from the writer's: the
// snapshot is a full replica, which lets a fault-tolerant run resume into
// a smaller elastic world.
func (t *Trainer) Restore(blob []byte) error {
	so, err := t.statefulOpt()
	if err != nil {
		return err
	}
	c, err := nn.DecodeCheckpoint(blob, t.Model, so)
	if err != nil {
		return fmt.Errorf("distdl: checkpoint incompatible with trainer: %w", err)
	}
	if c.Step < t.step {
		return fmt.Errorf("distdl: checkpoint step %d is behind trainer step %d: refusing non-monotonic restore",
			c.Step, t.step)
	}
	c.Apply()
	t.step = c.Step
	return nil
}

func (t *Trainer) statefulOpt() (nn.StatefulOptimizer, error) {
	so, ok := t.Opt.(nn.StatefulOptimizer)
	if !ok {
		return nil, fmt.Errorf("distdl: optimizer %s does not support checkpointing", t.Opt.Name())
	}
	return so, nil
}

// ParamsInSync reports whether all ranks hold identical parameters: the
// fundamental invariant of synchronous data parallelism. It is a
// collective call (all ranks must enter).
func (t *Trainer) ParamsInSync() bool {
	minV := t.Comm.Allreduce(t.values, mpi.OpMin, mpi.AlgoTree)
	maxV := t.Comm.Allreduce(t.values, mpi.OpMax, mpi.AlgoTree)
	for i := range minV {
		if minV[i] != maxV[i] {
			return false
		}
	}
	return true
}
