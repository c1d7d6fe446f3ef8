package distdl

import (
	"fmt"
	"time"

	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

// 2D (data × pipeline) training. The world's W ranks are a grid of
// R = W/S replicas × S pipeline stages: rank = rep·S + stage. Each
// replica group runs the model as an S-stage pipeline over its own
// minibatch shard; corresponding stages across replicas form
// data-parallel groups that average their chunk gradients. Both axes are
// groups split off the given communicator, so pipeline p2p traffic and
// per-stage allreduce rings coexist without cross-talk (disjoint tag
// blocks), and a wrapped communicator (tracing, fault injection) sees the
// traffic on both.

// PipelineTrainer drives one rank of a 2D data×pipeline grid. It
// implements Stepper; construct it via New(..., WithPipeline(...)).
type PipelineTrainer struct {
	Comm  mpi.Communicator
	Model *nn.Sequential
	Loss  nn.Loss
	Opt   nn.Optimizer
	Cfg   Config

	stage *pipeline.Stage
	pipe  mpi.Communicator // this rank's replica group (pipeline axis)
	dp    mpi.Communicator // this rank's stage group (data axis)
	rep   int              // replica index: world rank / stages

	localParams []*nn.Param // concatenated params of this rank's chunks
	// chunkGrads are the local chunks' non-empty spans of the gradient
	// arena, in ascending chunk order: the order every member of a
	// data-parallel group averages them in.
	chunkGrads [][]float64

	step      int
	computeNS int64
	commNS    int64
}

// newPipelineTrainer splits comm into the 2D grid and builds this rank's
// pipeline stage. New has already broadcast the parameters from world
// rank 0, so every replica and stage starts from identical weights.
func newPipelineTrainer(wc mpi.Communicator, model *nn.Sequential, loss nn.Loss, opt nn.Optimizer, cfg Config, pc pipeOptions) *PipelineTrainer {
	W, S := wc.Size(), pc.stages
	if S < 1 || W%S != 0 {
		panic(fmt.Sprintf("distdl: world size %d is not divisible by %d pipeline stages", W, S))
	}
	if cfg.Schedule == nil {
		cfg.Schedule = nn.ConstLR(0.01)
	}
	t := &PipelineTrainer{
		Comm: wc, Model: model, Loss: loss, Opt: opt, Cfg: cfg,
		rep: wc.Rank() / S,
	}
	t.pipe = wc.Split(t.rep, wc.Rank())
	t.dp = wc.Split(wc.Rank()%S, wc.Rank()) // color: this rank's pipeline stage
	st, err := pipeline.New(t.pipe, model, loss, pipeline.Config{
		MicroBatches:  pc.microBatches,
		Schedule:      pc.schedule,
		VirtualChunks: pc.virtualChunks,
		Tracer:        cfg.Tracer,
	})
	if err != nil {
		panic(fmt.Sprintf("distdl: building pipeline stage: %v", err))
	}
	t.stage = st
	for _, c := range st.LocalChunks() {
		ps := st.ChunkParams(c)
		t.localParams = append(t.localParams, ps...)
		if _, g := model.Span(ps); len(g) > 0 {
			t.chunkGrads = append(t.chunkGrads, g)
		}
	}
	return t
}

// Step runs one synchronous 2D optimizer step on this replica's minibatch
// shard and returns the globally averaged loss. Every rank of a replica
// group passes the same (x, y); different replica groups pass different
// shards (of equal size, to keep the gradient a true global average).
// There is no gradient clipping on this path (the global norm would need
// a cross-stage reduction mid-step), so New rejects WithClipNorm here.
func (t *PipelineTrainer) Step(x, y *tensor.Tensor) float64 {
	t0 := time.Now()
	commBefore := t.commNS
	t.Model.ZeroGrads()
	loss := t.stage.Step(x, y)
	c0 := time.Now()
	if t.dp.Size() > 1 {
		for _, g := range t.chunkGrads {
			t.dp.AllreduceMeanInPlace(g, mpi.AlgoRing)
		}
	}
	t.commNS += time.Since(c0).Nanoseconds()
	t.Opt.Step(t.localParams, t.Cfg.Schedule.LR(t.step))
	t.step++
	c0 = time.Now()
	if t.dp.Size() > 1 {
		loss = t.dp.AllreduceScalar(loss, mpi.OpSum) / float64(t.dp.Size())
	}
	now := time.Now()
	t.commNS += now.Sub(c0).Nanoseconds()
	t.computeNS += now.Sub(t0).Nanoseconds() - (t.commNS - commBefore)
	return loss
}

// Stage exposes the underlying pipeline executor (busy time, workspace,
// chunk layout).
func (t *PipelineTrainer) Stage() *pipeline.Stage { return t.stage }

// Replica returns this rank's replica index along the data axis.
func (t *PipelineTrainer) Replica() int { return t.rep }

// Replicas returns the number of data-parallel replica groups.
func (t *PipelineTrainer) Replicas() int { return t.dp.Size() }

// SyncFullModel broadcasts every chunk's parameters from its owning stage
// within this replica group, so the rank holds the complete trained model
// (for evaluation or checkpointing). Collective over the replica group.
func (t *PipelineTrainer) SyncFullModel() { t.stage.SyncFullModel() }

// StepCount returns the number of optimizer steps taken.
func (t *PipelineTrainer) StepCount() int { return t.step }

// CommFraction returns the share of accumulated step time this rank spent
// in data-parallel gradient/loss sync. Pipeline p2p waits are not charged
// here — they are the bubble (see pipeline.PlannedBubble).
func (t *PipelineTrainer) CommFraction() float64 {
	total := t.computeNS + t.commNS
	if total == 0 {
		return 0
	}
	return float64(t.commNS) / float64(total)
}
