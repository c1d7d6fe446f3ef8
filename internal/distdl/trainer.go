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
	"strconv"
	"sync/atomic"
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
	// BucketBytes, when positive, switches gradient sync from one
	// monolithic allreduce to per-bucket allreduces over a fixed
	// reverse-layer bucket layout (bucket.go). The layout depends only on
	// the model and this cap, so the reduction order — and hence the
	// result — is identical whether buckets are exchanged blocking or
	// overlapped.
	BucketBytes int
	// Overlap launches each bucket's allreduce from the backward hook the
	// moment its layers' gradients are final, hiding the transfer behind
	// the rest of the backward pass (requires bucketing; BucketBytes
	// defaults to DefaultBucketBytes when unset). Uses the nonblocking
	// ring allreduce, which matches the blocking ring bitwise — with the
	// default AlgoRing, overlap on/off produce identical parameters.
	Overlap bool
	// ClipNorm, when positive, clips the global gradient norm after
	// averaging (needed by the recurrent models).
	ClipNorm float64
	// Schedule yields the learning rate per optimizer step; defaults to
	// a constant 0.01 when nil.
	Schedule nn.Schedule
	// Tracer, when non-nil, receives compute/comm sub-spans and one step
	// span per optimizer step on this rank's track, so the per-step
	// communication fraction is readable straight off the timeline. The
	// nil default costs nothing on the hot path.
	Tracer *telemetry.Tracer
	// Metrics, when non-nil, registers this trainer's gauges (the
	// per-rank overlap ratio) at construction.
	Metrics *telemetry.Registry
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
	// hookFn caches the backwardHook method value so overlapped Steps do
	// not allocate a new closure per step.
	hookFn nn.BackwardHook
	// ComputeNs and CommNs accumulate wall time spent in local
	// compute (forward/backward/optimizer) versus communication
	// (gradient and loss sync) across all steps — the raw inputs to the
	// comm-fraction breakdown, tracked whether or not a Tracer is set.
	// For overlapped sync, CommNs charges only the *unhidden* wait time
	// in the drain, so CommFraction directly reflects the overlap win.
	ComputeNs int64
	CommNs    int64

	// Bucketed/overlapped sync state (nil / unused when BucketBytes == 0).
	bkt      *Bucketer
	inflight []*mpi.AllreduceRequest // per bucket, launch order
	launched []time.Time             // per-bucket Iallreduce launch times
	// overlapHiddenNs / overlapTotalNs accumulate, per bucket allreduce,
	// the wall time that ran concurrently with backward compute vs the
	// operation's total duration. Atomics: OverlapRatio may be read by a
	// metrics scraper while Step runs.
	overlapHiddenNs int64
	overlapTotalNs  int64
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
	if cfg.Overlap && cfg.BucketBytes <= 0 {
		cfg.BucketBytes = DefaultBucketBytes
	}
	t := &Trainer{Comm: comm, Model: model, Loss: loss, Opt: opt, Cfg: cfg,
		params: model.Params(), ws: tensor.NewWorkspace()}
	t.values, t.grads = model.Span(t.params)
	model.SetWorkspace(t.ws)
	t.hookFn = t.backwardHook
	if cfg.BucketBytes > 0 {
		t.bkt = NewBucketer(model, cfg.BucketBytes)
		t.inflight = make([]*mpi.AllreduceRequest, t.bkt.NumBuckets())
		t.launched = make([]time.Time, t.bkt.NumBuckets())
	}
	if cfg.Metrics != nil {
		cfg.Metrics.SetHelp("msa_distdl_overlap_ratio",
			"fraction of gradient allreduce wall time hidden behind backward compute")
		cfg.Metrics.GaugeFunc("msa_distdl_overlap_ratio", t.OverlapRatio,
			telemetry.Label{Key: "rank", Value: strconv.Itoa(comm.Rank())})
	}
	return t
}

// Step runs one synchronous data-parallel optimizer step on this rank's
// minibatch and returns the *globally averaged* loss.
//
// Gradient synchronization runs in one of three modes: a single blocking
// allreduce over the whole flat gradient (the default), blocking
// per-bucket allreduces (BucketBytes > 0), or overlapped per-bucket
// nonblocking allreduces launched from the backward hook as each bucket's
// gradients become final (Overlap). The bucketed modes share one fixed
// layout, so with the ring algorithm they produce bitwise-identical
// parameters.
func (t *Trainer) Step(x, y *tensor.Tensor) float64 {
	tr := t.Cfg.Tracer
	rank := t.Comm.Rank()
	stepStart := tr.Start()

	// Recycle every workspace tensor borrowed by the previous step (and by
	// any evaluation forwards run since) back to the pool.
	t.ws.ReleaseAll()

	overlapped := t.bkt != nil && t.Cfg.Overlap
	if overlapped {
		t.bkt.Reset()
		for i := range t.inflight {
			t.inflight[i] = nil
		}
		t.Model.SetBackwardHook(t.hookFn)
	}

	c0 := time.Now()
	t.Model.ZeroGrads()
	out := t.Model.Forward(x, true)
	loss, grad := nn.LossForward(t.ws, t.Loss, out, y)
	t.Model.Backward(grad)
	if overlapped {
		t.Model.SetBackwardHook(nil)
	}
	bwdEnd := time.Now()
	t.ComputeNs += bwdEnd.Sub(c0).Nanoseconds()
	tr.End(rank, telemetry.CatCompute, "fwd-bwd", stepStart, 0, "")

	switch {
	case t.bkt == nil:
		t.syncMonolithic(tr, rank)
	case overlapped:
		t.drainBuckets(tr, rank, bwdEnd)
	default:
		t.syncBucketsBlocking(tr, rank)
	}

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

// syncMonolithic averages the whole gradient arena in one blocking
// allreduce, in place.
func (t *Trainer) syncMonolithic(tr *telemetry.Tracer, rank int) {
	flat := t.grads
	commStart := tr.Start()
	c1 := time.Now()
	if t.Comm.Size() > 1 {
		t.Comm.AllreduceMeanInPlace(flat, t.Cfg.Algo)
	}
	t.CommNs += time.Since(c1).Nanoseconds()
	tr.End(rank, telemetry.CatComm, "grad-sync", commStart, 8*int64(len(flat)), string(t.Cfg.Algo))
}

// syncBucketsBlocking exchanges each bucket with a blocking allreduce, in
// layout order. Same reduction order as the overlapped path, just without
// the overlap — the reference the bitwise-identity guarantee is stated
// against.
func (t *Trainer) syncBucketsBlocking(tr *telemetry.Tracer, rank int) {
	inv := 1 / float64(t.Comm.Size())
	for _, bk := range t.bkt.Buckets() {
		flat := bk.Grads()
		commStart := tr.Start()
		c1 := time.Now()
		t.Comm.AllreduceInPlace(flat, mpi.OpSum, t.Cfg.Algo)
		t.CommNs += time.Since(c1).Nanoseconds()
		tensor.VecScaleInto(flat, flat, inv)
		tr.End(rank, telemetry.CatComm, bk.span,
			commStart, 8*int64(bk.Elems), string(t.Cfg.Algo))
	}
}

// backwardHook is installed on the model during an overlapped Step: fired
// after each layer's Backward, it launches a bucket's nonblocking
// allreduce the moment the bucket's last contributing layer finishes.
func (t *Trainer) backwardHook(layerIdx int, _ nn.Layer) {
	if bi := t.bkt.MarkLayerDone(layerIdx); bi >= 0 {
		t.launchBucket(bi)
	}
}

// launchBucket starts bucket bi's nonblocking ring allreduce on its span
// of the gradient arena (IallreduceShared): no copy per launch. This is
// safe because the rest of backward writes only the gradients of earlier
// layers, which lie outside the span, and drainBuckets waits on every
// request before Step returns.
func (t *Trainer) launchBucket(bi int) {
	bk := t.bkt.Buckets()[bi]
	t.launched[bi] = time.Now()
	t.inflight[bi] = t.Comm.IallreduceShared(bk.Grads(), mpi.OpSum)
}

// drainBuckets waits for every in-flight bucket allreduce (in launch
// order), scales each reduced span to the mean in place, and accounts
// overlap: the span of each operation that ran before bwdEnd was hidden
// behind backward compute.
func (t *Trainer) drainBuckets(tr *telemetry.Tracer, rank int, bwdEnd time.Time) {
	inv := 1 / float64(t.Comm.Size())
	for bi := range t.inflight {
		if t.inflight[bi] == nil {
			// Every Sequential layer's Backward runs, so every bucket is
			// launched by the hook; this is a guard for exotic models.
			t.launchBucket(bi)
		}
		req := t.inflight[bi]
		bk := t.bkt.Buckets()[bi]
		waitStart := tr.Start()
		w := time.Now()
		flat := req.Wait()
		t.CommNs += time.Since(w).Nanoseconds()
		completed := req.CompletedAt()
		total := completed.Sub(t.launched[bi])
		hidden := total
		if completed.After(bwdEnd) {
			hidden = bwdEnd.Sub(t.launched[bi])
		}
		if hidden < 0 {
			hidden = 0
		}
		if total > 0 {
			atomic.AddInt64(&t.overlapHiddenNs, hidden.Nanoseconds())
			atomic.AddInt64(&t.overlapTotalNs, total.Nanoseconds())
		}
		tensor.VecScaleInto(flat, flat, inv)
		tr.End(rank, telemetry.CatComm, bk.span,
			waitStart, 8*int64(bk.Elems), "iallreduce-ring")
		t.inflight[bi] = nil
	}
}

// CommFraction returns the share of this rank's accumulated step time
// spent communicating — the quantity whose growth with worker count
// bounds data-parallel scaling efficiency (§III-A). Overlapped sync
// charges only unhidden wait time, so enabling overlap lowers this.
func (t *Trainer) CommFraction() float64 {
	total := t.ComputeNs + t.CommNs
	if total == 0 {
		return 0
	}
	return float64(t.CommNs) / float64(total)
}

// OverlapRatio returns the fraction of cumulative bucket-allreduce wall
// time that ran concurrently with backward compute (0 when overlap never
// ran). Safe to call from a metrics scraper while training runs.
func (t *Trainer) OverlapRatio() float64 {
	total := atomic.LoadInt64(&t.overlapTotalNs)
	if total == 0 {
		return 0
	}
	return float64(atomic.LoadInt64(&t.overlapHiddenNs)) / float64(total)
}

// NumBuckets returns the number of gradient buckets in the configured
// layout (0 in monolithic mode).
func (t *Trainer) NumBuckets() int {
	if t.bkt == nil {
		return 0
	}
	return t.bkt.NumBuckets()
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
