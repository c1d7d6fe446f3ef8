package core

import (
	"math/rand"
	"time"

	"fmt"

	"repro/internal/data"
	"repro/internal/distdl"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// DDPConfig configures a distributed data-parallel training run: the
// Horovod workflow of §III-A executed on the goroutine-rank MPI runtime.
type DDPConfig struct {
	Workers int
	Epochs  int
	Batch   int // per-worker batch
	BaseLR  float64
	// Warmup enables the warmup + linear-scaling large-batch rule; 0
	// disables it (constant BaseLR, the ablation of E4).
	Warmup int
	// PipelineStages, when > 1, switches to 2D (data × pipeline) training:
	// the Workers ranks form Workers/PipelineStages replica groups, each
	// running the model as a PipelineStages-deep pipeline. Must divide
	// Workers. The pipeline path has its own per-chunk gradient sync.
	PipelineStages int
	// MicroBatches is the pipeline micro-batch count per step (M);
	// defaults to 4 when PipelineStages > 1 and this is 0.
	MicroBatches int
	// PipeSchedule selects gpipe or 1f1b (default gpipe).
	PipeSchedule pipeline.Schedule
	// VirtualChunks is the interleaving depth v (0 = schedule default).
	VirtualChunks int
	Seed          int64
	// Tracer, when non-nil, is attached to the MPI world (per-rank
	// collective spans) and both trainer kinds (compute/comm/step spans),
	// yielding one Chrome-trace track per rank.
	Tracer *telemetry.Tracer
	// Registry, when non-nil, receives the world's collective counters
	// (per-kind totals, message and element volume) for Prometheus export.
	Registry *telemetry.Registry
}

// DDPResult aggregates a run.
type DDPResult struct {
	FinalLoss   float64
	TrainMetric float64 // accuracy (single-label) or micro-F1 (multi-label)
	ValMetric   float64
	WallSeconds float64
	Steps       int
	// GradBytes counts every float64 rank 0 sent over the run — gradient
	// sync, parameter broadcast, loss sync and pipeline traffic — at 8
	// bytes each: the measured wire volume, not a model of it.
	GradBytes int64
	// CommFraction is rank 0's communication share of step time.
	CommFraction float64
	// BubbleFraction is the pipeline schedule's idle fraction (0 unless
	// PipelineStages > 1): the planned-schedule replay measure, which is
	// independent of host core count (see pipeline.PlannedBubble).
	BubbleFraction float64
}

// TrainResNetBigEarthNet trains the mini ResNet on a synthetic
// BigEarthNet split, data-parallel over cfg.Workers simulated GPUs, and
// reports multi-label micro-F1 (the BigEarthNet metric).
func TrainResNetBigEarthNet(cfg DDPConfig, ds *data.Multispectral, split data.Split) DDPResult {
	bands := ds.X.Dim(1)
	build := func() *nn.Sequential {
		return nn.ResNetMini(rand.New(rand.NewSource(cfg.Seed)), bands, ds.Classes, 8, 2)
	}
	loss := nn.BCEWithLogits{}
	evalFn := func(m *nn.Sequential, idx []int) float64 {
		x := data.SelectRows(ds.X, idx)
		y := data.SelectRows(ds.Y, idx)
		return nn.MultiLabelF1(m.Forward(x, false), y)
	}
	return runDDP(cfg, build, loss, ds.X, ds.Y, split, evalFn)
}

// TrainCovidNet trains the CXR screening CNN and reports accuracy.
func TrainCovidNet(cfg DDPConfig, ds *data.CXRDataset, split data.Split) DDPResult {
	oneHot := ds.OneHotLabels()
	build := func() *nn.Sequential {
		return nn.CovidNetMini(rand.New(rand.NewSource(cfg.Seed)), ds.X.Dim(2), data.CXRClasses)
	}
	loss := nn.SoftmaxCrossEntropy{}
	evalFn := func(m *nn.Sequential, idx []int) float64 {
		x := data.SelectRows(ds.X, idx)
		labels := data.SelectLabels(ds.Labels, idx)
		return nn.Accuracy(m.Forward(x, false), labels)
	}
	return runDDP(cfg, build, loss, ds.X, oneHot, split, evalFn)
}

// runDDP executes the generic distributed training loop: one goroutine
// rank per worker, epoch-seeded shard shuffling, synchronous gradient
// allreduce, and rank-0 evaluation.
func runDDP(cfg DDPConfig, build func() *nn.Sequential, loss nn.Loss,
	xs, ys *tensor.Tensor, split data.Split, evalFn func(*nn.Sequential, []int) float64) DDPResult {

	if cfg.Workers < 1 || cfg.Batch < 1 {
		panic("core: DDP needs at least one worker and a positive batch")
	}
	pipelined := cfg.PipelineStages > 1
	if pipelined {
		if cfg.Workers%cfg.PipelineStages != 0 {
			panic(fmt.Sprintf("core: %d workers not divisible by %d pipeline stages", cfg.Workers, cfg.PipelineStages))
		}
		if cfg.MicroBatches == 0 {
			cfg.MicroBatches = 4
		}
		if cfg.Batch < cfg.MicroBatches {
			panic(fmt.Sprintf("core: per-replica batch %d smaller than %d micro-batches", cfg.Batch, cfg.MicroBatches))
		}
	}
	var sched nn.Schedule
	if cfg.Warmup > 0 {
		sched = nn.WarmupLinearScale{Base: cfg.BaseLR, Workers: cfg.Workers, WarmupSteps: cfg.Warmup}
	} else {
		sched = nn.ConstLR(cfg.BaseLR)
	}

	world := mpi.NewWorld(cfg.Workers)
	if cfg.Tracer != nil {
		world.SetTracer(cfg.Tracer)
	}
	if cfg.Registry != nil {
		world.RegisterMetrics(cfg.Registry)
	}
	var out DDPResult
	start := time.Now()
	err := world.Run(func(c *mpi.Comm) error {
		model := build()
		var tr distdl.Stepper
		if pipelined {
			tr = distdl.New(c, model, loss, nn.NewSGD(0.9, 1e-4),
				distdl.WithSchedule(sched), distdl.WithTracer(cfg.Tracer),
				distdl.WithPipeline(cfg.PipelineStages, cfg.MicroBatches, cfg.PipeSchedule),
				distdl.WithVirtualChunks(cfg.VirtualChunks))
		} else {
			tr = distdl.New(c, model, loss, nn.NewSGD(0.9, 1e-4),
				distdl.WithSchedule(sched), distdl.WithTracer(cfg.Tracer))
		}
		pipeTr, _ := tr.(*distdl.PipelineTrainer)
		// Data sharding: in DDP every rank is its own shard; in 2D every
		// replica group is one shard, and all its stage ranks must iterate
		// the identical batch sequence.
		shardIdx, shards := c.Rank(), cfg.Workers
		if pipeTr != nil {
			shardIdx, shards = pipeTr.Replica(), pipeTr.Replicas()
		}
		// Every step is a collective, so every shard runs the step count of
		// the smallest one (⌊n/shards⌋ rows); a larger shard's extra row
		// waits for the next epoch's shuffle. A pipelined tail batch too
		// small to split into micro-batches is skipped on every shard.
		small := len(split.Train) / shards
		steps := (small + cfg.Batch - 1) / cfg.Batch
		if tail := small % cfg.Batch; pipeTr != nil && tail > 0 && tail < cfg.MicroBatches {
			steps--
		}
		var last float64
		for epoch := 0; epoch < cfg.Epochs; epoch++ {
			shard := distdl.Shard(len(split.Train), cfg.Seed+int64(epoch), shardIdx, shards)
			for _, batch := range distdl.Batches(shard, cfg.Batch)[:steps] {
				idx := make([]int, len(batch))
				for i, b := range batch {
					idx[i] = split.Train[b]
				}
				bx, by := distdl.GatherBatch(xs, ys, idx)
				last = tr.Step(bx, by)
			}
		}
		if pipeTr != nil {
			// Collective per replica group: afterwards every rank holds the
			// full trained model, so rank-0 evaluation sees all chunks.
			pipeTr.SyncFullModel()
		}
		if c.Rank() == 0 {
			out.FinalLoss = last
			out.Steps = tr.StepCount()
			out.CommFraction = tr.CommFraction()
			if pipeTr != nil {
				out.BubbleFraction = pipeline.PlannedBubble(
					cfg.PipelineStages, cfg.VirtualChunks, cfg.MicroBatches, cfg.PipeSchedule, 1, 2)
			}
			out.TrainMetric = evalFn(model, split.Train)
			if len(split.Val) > 0 {
				out.ValMetric = evalFn(model, split.Val)
			}
		}
		return nil
	})
	if err != nil {
		panic(err) // ranks only return nil here
	}
	out.WallSeconds = time.Since(start).Seconds()
	out.GradBytes = 8 * world.RankStats(0).ElemsSent
	return out
}

// ImputerKind selects the §IV-B model variant.
type ImputerKind string

// Imputer variants: the paper's GRU, its 1-D CNN alternative, and the
// GRU-D extension from the related work (Che et al. [39]).
const (
	ImputerGRU  ImputerKind = "gru"
	ImputerCNN  ImputerKind = "cnn"
	ImputerGRUD ImputerKind = "grud"
)

// TrainGRUImputer trains a §IV-B imputation model with Adam. The model is
// fitted on trainTask's hidden positions and scored on evalTask's — the
// two tasks hide *different* random positions of the same stays, so the
// evaluation measures generalization, not memorization.
func TrainGRUImputer(trainTask, evalTask *data.ImputationTask, epochs int, lr float64, kind ImputerKind, seed int64) (evalMAE float64, model *nn.Sequential) {
	rng := rand.New(rand.NewSource(seed))
	features := trainTask.Input.Dim(2)
	switch kind {
	case ImputerCNN:
		model = nn.Conv1DImputer(rng, features)
	case ImputerGRUD:
		model = nn.GRUDImputer(rng, features)
	default:
		model = nn.GRUImputer(rng, features)
	}
	opt := nn.NewAdam()
	loss := nn.MaskedMAE{Mask: trainTask.EvalMask}
	for e := 0; e < epochs; e++ {
		model.ZeroGrads()
		pred := model.Forward(trainTask.Input, true)
		_, grad := loss.Forward(pred, trainTask.Target)
		model.Backward(grad)
		nn.ClipGradNorm(model.Params(), 5)
		opt.Step(model.Params(), lr)
	}
	pred := model.Forward(evalTask.Input, false)
	return evalTask.MAEOn(pred), model
}
