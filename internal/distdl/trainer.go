// Package distdl implements Horovod-style distributed data-parallel deep
// learning on top of the mpi runtime and the nn library (§III-A of the
// paper: "The DL model's distributed training employs a multi-node data
// parallelism strategy ... using multiple GPUs and communicating with MPI
// to synchronise the learning process").
//
// Each rank holds a full model replica and computes gradients on its own
// minibatch. A step is ZeRO stage 1, as in DeepSpeed, which the paper names
// as the successor tooling: the ring reduce-scatter leaves each rank one
// averaged chunk of the gradient arena, the rank's optimizer updates that
// chunk and keeps state for it alone, and an allgather of the values makes
// every replica whole and bit-identical again, with no parameter server.
// That moves the bytes of one ring allreduce, and each rank's optimizer
// sweeps 1/p of the arena.
package distdl

import (
	"fmt"
	"math"
	"time"

	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// config tunes a distributed trainer.
type config struct {
	// clipNorm, when positive, clips the global gradient norm after
	// averaging (needed by the recurrent models). New panics if it is
	// combined with WithPipeline.
	clipNorm float64
	// schedule yields the learning rate per optimizer step; defaults to
	// a constant 0.01 when nil.
	schedule nn.Schedule
	// tracer, when non-nil, receives compute/comm sub-spans and one step
	// span per optimizer step on this rank's track, so the per-step
	// communication fraction is readable straight off the timeline. The
	// nil default costs nothing on the hot path.
	tracer *telemetry.Tracer
}

// Trainer drives one rank's replica. Comm is an interface so an
// interposer (the benchmark's tracing communicator) can sit between the
// trainer and the wire.
type Trainer struct {
	Comm  mpi.Communicator
	Model *nn.Sequential
	Loss  nn.Loss
	Opt   nn.Optimizer
	cfg   config

	params []*nn.Param
	// values and grads are the model's parameter arena
	// (nn.Sequential.BindArena): the gradient collective runs on grads in
	// place, where backward wrote them.
	values, grads []float64
	// [lo, hi) is the span of the arena this rank's optimizer steps and
	// keeps state for: its reduce-scatter chunk, all of it when p = 1.
	lo, hi int
	step   int
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
// `broadcast_parameters` step). A stateful optimizer's state is reserved
// for the span this rank steps and, when p > 1, shared with every rank
// (the MPI_Win_allocate_shared pattern), so that Checkpoint can read it.
func newTrainer(comm mpi.Communicator, model *nn.Sequential, loss nn.Loss, opt nn.Optimizer, cfg config) *Trainer {
	if cfg.schedule == nil {
		cfg.schedule = nn.ConstLR(0.01)
	}
	t := &Trainer{Comm: comm, Model: model, Loss: loss, Opt: opt, cfg: cfg,
		params: model.Params(), ws: tensor.NewWorkspace()}
	t.values, t.grads = model.Span(t.params)
	model.SetWorkspace(t.ws)
	p := comm.Size()
	t.lo, t.hi = mpi.OwnedChunk(len(t.values), p, comm.Rank())
	if so, ok := opt.(nn.StatefulOptimizer); ok {
		st := so.State()
		mine := st.Reserve(t.params, t.lo, t.hi)
		if p > 1 {
			// Rank r owns chunk r+1: rank p-1's state comes first.
			all := comm.ShareBuffer(mine)
			st.Share(append(all[p-1:], all[:p-1]...))
		}
	}
	return t
}

// Step runs one synchronous data-parallel optimizer step on this rank's
// minibatch and returns the *globally averaged* loss. After backward, it
// reduce-scatters the gradient arena in place, steps this rank's chunk and
// allgathers the values; with one rank it makes no collective. The owned
// chunk carries a ring allreduce's bits, and the optimizer updates one
// element at a time, so every parameter gets the bits of a replicated step
// that allreduced the gradient and stepped the whole arena.
func (t *Trainer) Step(x, y *tensor.Tensor) float64 {
	tr := t.cfg.tracer
	rank := t.Comm.Rank()
	stepStart := tr.Start()

	// Recycle every workspace tensor borrowed by the previous step (and by
	// any evaluation forwards run since) back to the pool.
	t.ws.ReleaseAll()

	c0 := time.Now()
	t.Model.ZeroGrads()
	out := t.Model.Forward(x, true)
	loss, grad := nn.LossForward(t.ws, t.Loss, out, y)
	t.Model.BackwardParams(grad)
	t.ComputeNs += time.Since(c0).Nanoseconds()
	tr.End(rank, telemetry.CatCompute, "fwd-bwd", stepStart, 0, "")

	t.syncGrads(tr, rank)

	optStart := tr.Start()
	o0 := time.Now()
	if t.cfg.clipNorm > 0 {
		t.clipGrads()
	}
	t.Opt.StepSpan(t.params, t.lo, t.hi, t.cfg.schedule.LR(t.step))
	t.ComputeNs += time.Since(o0).Nanoseconds()
	tr.End(rank, telemetry.CatCompute, "optimizer", optStart, 0, "")
	t.step++

	if t.Comm.Size() > 1 {
		agStart := tr.Start()
		g0 := time.Now()
		t.Comm.AllgatherInPlace(t.values)
		t.CommNs += time.Since(g0).Nanoseconds()
		tr.End(rank, telemetry.CatComm, "param-allgather", agStart, 8*int64(len(t.values)), "ring")
	}

	lossStart := tr.Start()
	c2 := time.Now()
	mean := t.Comm.AllreduceScalar(loss, mpi.OpSum) / float64(t.Comm.Size())
	t.CommNs += time.Since(c2).Nanoseconds()
	tr.End(rank, telemetry.CatComm, "loss-sync", lossStart, 8, "")
	tr.End(rank, telemetry.CatStep, "step", stepStart, 0, "")
	return mean
}

// syncGrads averages, in place, the span of the gradient arena this rank
// steps, by a ring reduce-scatter.
func (t *Trainer) syncGrads(tr *telemetry.Tracer, rank int) {
	commStart := tr.Start()
	c1 := time.Now()
	if p := t.Comm.Size(); p > 1 {
		t.Comm.ReduceScatterInPlace(t.grads, mpi.OpSum, 1/float64(p))
	}
	t.CommNs += time.Since(c1).Nanoseconds()
	tr.End(rank, telemetry.CatComm, "grad-sync", commStart, 8*int64(len(t.grads)), "ring")
}

// clipGrads scales the averaged gradient span this rank steps so that the
// global L2 norm is at most clipNorm: each rank sums its span's squares,
// and more than one rank add them up with one scalar allreduce.
func (t *Trainer) clipGrads() {
	g, sq := t.grads[t.lo:t.hi], 0.0
	for _, v := range g {
		sq += float64(v * v)
	}
	if t.Comm.Size() > 1 {
		sq = t.Comm.AllreduceScalar(sq, mpi.OpSum)
	}
	if norm := math.Sqrt(sq); norm > t.cfg.clipNorm {
		tensor.VecScaleInto(g, g, t.cfg.clipNorm/norm)
	}
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
//
// One rank calls it alone, between its Steps, while the other ranks may
// be inside their next Step; it makes no collective, which would interleave
// with theirs. It reads the other ranks' optimizer state in place, through
// the references New shared. That is safe: a rank writes its state only in
// its optimizer step, after a reduce-scatter that cannot finish before
// every rank, this one included, has joined it; and this rank's last
// allgather could not finish before every rank had ended its step.
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
// snapshot is a full replica, of which each rank keeps the optimizer state
// of its own span, which lets a fault-tolerant run resume into a smaller
// elastic world.
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
