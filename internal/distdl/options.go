package distdl

import (
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Unified trainer construction. New is the single entry point for every
// distributed-training flavour — data parallelism (a ZeRO-1 sharded step),
// 2D pipelines — configured with functional options.

// Stepper is the training-loop surface every trainer flavour shares: run
// one synchronous optimizer step on this rank's minibatch (returning the
// globally averaged loss), report progress, and report the communication
// share of step time.
type Stepper interface {
	Step(x, y *tensor.Tensor) float64
	StepCount() int
	CommFraction() float64
}

// Option configures New.
type Option func(*newConfig)

type newConfig struct {
	cfg  config
	pipe pipeOptions
}

// pipeOptions collects the pipeline-parallel axis of a 2D trainer.
type pipeOptions struct {
	stages        int
	microBatches  int
	schedule      pipeline.Schedule
	virtualChunks int
}

// WithAlgo accepts mpi.AlgoRing only: gradients always sync over the ring.
//
// Deprecated: New panics on any other algorithm. WithAlgo stays only for
// callers outside this module that still pass it.
func WithAlgo(a mpi.Algo) Option {
	return func(*newConfig) {
		if a != mpi.AlgoRing {
			panic("distdl: WithAlgo(" + string(a) + "): gradients always sync over the ring")
		}
	}
}

// WithClipNorm clips the global gradient norm after averaging. Only the
// data-parallel trainer clips: New panics if it is combined with
// WithPipeline.
func WithClipNorm(c float64) Option { return func(n *newConfig) { n.cfg.clipNorm = c } }

// WithSchedule sets the learning-rate schedule.
func WithSchedule(s nn.Schedule) Option { return func(n *newConfig) { n.cfg.schedule = s } }

// WithTracer attaches a span tracer to the trainer's step pipeline.
func WithTracer(t *telemetry.Tracer) Option { return func(n *newConfig) { n.cfg.tracer = t } }

// WithPipeline selects the 2D (data × pipeline) trainer: the world's W
// ranks form W/stages replica groups, each running the model as a
// `stages`-deep pipeline with the given micro-batch count and schedule,
// while corresponding stages across replicas average their chunk
// gradients data-parallel. stages must divide the world size; stages ==
// world size is pure pipeline parallelism (one replica). Requires a
// communicator it can Split along both axes. Mutually exclusive with
// WithClipNorm.
func WithPipeline(stages, microBatches int, schedule pipeline.Schedule) Option {
	return func(n *newConfig) {
		n.pipe.stages = stages
		n.pipe.microBatches = microBatches
		n.pipe.schedule = schedule
	}
}

// WithVirtualChunks sets the interleaving depth v of the pipeline axis:
// each stage hosts v model chunks (chunk c lives on stage c mod S).
// Unset (0), the schedule's default applies (see pipeline.Config's
// VirtualChunks); only meaningful together with WithPipeline.
func WithVirtualChunks(v int) Option { return func(n *newConfig) { n.pipe.virtualChunks = v } }

// New builds a distributed trainer for one rank over comm, binding the
// model's parameter arena (nn.Sequential.BindArena) and broadcasting rank
// 0's parameters so every replica starts identical. The concrete type
// behind the returned Stepper is *Trainer, or *PipelineTrainer under
// WithPipeline; callers needing the wider concrete surface (Checkpoint,
// Restore, ParamsInSync, SyncFullModel) type-assert accordingly. A
// *Trainer reserves opt's state for the span of the arena its rank steps,
// discarding any state opt held.
func New(comm mpi.Communicator, model *nn.Sequential, loss nn.Loss, opt nn.Optimizer, opts ...Option) Stepper {
	var n newConfig
	for _, o := range opts {
		o(&n)
	}
	pipe := n.pipe.stages > 0
	if pipe && n.cfg.clipNorm > 0 {
		panic("distdl: WithClipNorm is not supported with WithPipeline")
	}
	values, _ := model.BindArena()
	copy(values, comm.Bcast(0, values))
	if pipe {
		return newPipelineTrainer(comm, model, loss, opt, n.cfg, n.pipe)
	}
	return newTrainer(comm, model, loss, opt, n.cfg)
}
