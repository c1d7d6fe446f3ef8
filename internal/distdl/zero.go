package distdl

import (
	"math"
	"time"

	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// ZeROTrainer implements ZeRO stage-1 optimizer-state sharding as in
// DeepSpeed (which the paper names as the more recent alternative to
// Horovod, §III-A): gradients are reduce-scattered so each rank owns the
// averaged gradient for only its parameter shard, the Adam moments exist
// only for that shard (cutting optimizer memory by the world size), the
// rank updates its shard, and an allgather restores the full updated
// parameter vector everywhere.
type ZeROTrainer struct {
	Comm  mpi.Communicator
	Model *nn.Sequential
	Loss  nn.Loss
	Cfg   Config

	// values and grads are the model's parameter arena: the gradient
	// slab is reduce-scattered as is, and the shard update writes
	// values[lo:hi] in place.
	values, grads []float64
	n             int // total parameter count
	lo, hi        int // this rank's shard bounds

	// Adam state for the local shard only.
	m, v              []float64
	beta1, beta2, eps float64
	step              int

	// ComputeNs and CommNs mirror Trainer's compute/communication wall
	// time split (reduce-scatter + allgather count as communication).
	ComputeNs int64
	CommNs    int64

	// ws pools every forward/backward temporary, recycled per Step (see
	// Trainer.ws).
	ws *tensor.Workspace
}

// newZeROTrainer builds a sharded-optimizer replica over the model's bound
// parameter arena, whose values New has broadcast from rank 0. The world
// size must divide nothing in particular: shards use the same chunking as
// the ring collectives.
func newZeROTrainer(comm mpi.Communicator, model *nn.Sequential, loss nn.Loss, cfg Config) *ZeROTrainer {
	if cfg.Algo == "" {
		cfg.Algo = mpi.AlgoRing
	}
	if cfg.Schedule == nil {
		cfg.Schedule = nn.ConstLR(0.01)
	}
	values, grads := model.Span(model.Params())
	n := len(values)
	p, r := comm.Size(), comm.Rank()
	lo, hi := r*n/p, (r+1)*n/p
	t := &ZeROTrainer{
		Comm: comm, Model: model, Loss: loss, Cfg: cfg,
		values: values, grads: grads, n: n, lo: lo, hi: hi,
		m: make([]float64, hi-lo), v: make([]float64, hi-lo),
		beta1: 0.9, beta2: 0.999, eps: 1e-8,
		ws: tensor.NewWorkspace(),
	}
	model.SetWorkspace(t.ws)
	return t
}

// ShardSize returns the number of optimizer-state elements held locally
// (the memory-saving headline of ZeRO).
func (t *ZeROTrainer) ShardSize() int { return t.hi - t.lo }

// Step runs one sharded optimizer step and returns the global mean loss.
func (t *ZeROTrainer) Step(x, y *tensor.Tensor) float64 {
	tr := t.Cfg.Tracer
	rank := t.Comm.Rank()
	stepStart := tr.Start()

	t.ws.ReleaseAll()

	c0 := time.Now()
	t.Model.ZeroGrads()
	out := t.Model.Forward(x, true)
	loss, grad := nn.LossForward(t.ws, t.Loss, out, y)
	t.Model.Backward(grad)
	t.ComputeNs += time.Since(c0).Nanoseconds()
	tr.End(rank, telemetry.CatCompute, "fwd-bwd", stepStart, 0, "")

	var shard []float64
	p := t.Comm.Size()
	rsStart := tr.Start()
	w1 := time.Now()
	if p > 1 {
		shard = t.Comm.ReduceScatter(t.grads, mpi.OpSum)
		inv := 1 / float64(p)
		for i := range shard {
			shard[i] *= inv
		}
	} else {
		shard = t.grads[t.lo:t.hi]
	}
	t.CommNs += time.Since(w1).Nanoseconds()
	tr.End(rank, telemetry.CatComm, "grad-reduce-scatter", rsStart, int64(t.n)*8, string(t.Cfg.Algo))

	// Adam on the local shard.
	adamStart := tr.Start()
	a0 := time.Now()
	t.step++
	lr := t.Cfg.Schedule.LR(t.step - 1)
	c1 := 1 - math.Pow(t.beta1, float64(t.step))
	c2 := 1 - math.Pow(t.beta2, float64(t.step))
	local := t.values[t.lo:t.hi]
	for i, g := range shard {
		t.m[i] = t.beta1*t.m[i] + (1-t.beta1)*g
		t.v[i] = t.beta2*t.v[i] + (1-t.beta2)*g*g
		mh := t.m[i] / c1
		vh := t.v[i] / c2
		local[i] -= lr * mh / (math.Sqrt(vh) + t.eps)
	}

	t.ComputeNs += time.Since(a0).Nanoseconds()
	tr.End(rank, telemetry.CatCompute, "adam-shard", adamStart, 0, "")

	// Allgather the updated shards into the value arena. Shards may differ
	// in size by one chunk-boundary element, so exchange via Gather+Bcast
	// on uneven worlds (rank 0 assembles the shards in its own arena) and
	// fast Allgather when even.
	agStart := tr.Start()
	g0 := time.Now()
	if p > 1 {
		if t.n%p == 0 {
			copy(t.values, t.Comm.Allgather(local))
		} else {
			parts := t.Comm.Gather(0, local)
			off := 0
			for _, pt := range parts {
				off += copy(t.values[off:], pt)
			}
			copy(t.values, t.Comm.Bcast(0, t.values))
		}
	}
	t.CommNs += time.Since(g0).Nanoseconds()
	tr.End(rank, telemetry.CatComm, "param-allgather", agStart, int64(t.n)*8, "")

	lossStart := tr.Start()
	w2 := time.Now()
	mean := t.Comm.AllreduceScalar(loss, mpi.OpSum) / float64(p)
	t.CommNs += time.Since(w2).Nanoseconds()
	tr.End(rank, telemetry.CatComm, "loss-sync", lossStart, 8, "")
	tr.End(rank, telemetry.CatStep, "step", stepStart, 0, "")
	return mean
}

// CommFraction returns the communication share of accumulated step time.
func (t *ZeROTrainer) CommFraction() float64 {
	total := t.ComputeNs + t.CommNs
	if total == 0 {
		return 0
	}
	return float64(t.CommNs) / float64(total)
}

// StepCount returns optimizer steps taken.
func (t *ZeROTrainer) StepCount() int { return t.step }

// Workspace exposes the trainer-owned tensor pool (see Trainer.Workspace).
func (t *ZeROTrainer) Workspace() *tensor.Workspace { return t.ws }
