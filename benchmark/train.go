package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/distdl"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// modelSeed fixes every model's initial weights: -seed varies the generated
// inputs only, so that two seeds train the same network on different data.
const modelSeed = 7

// windowSteps is the span over which process-wide allocations are counted.
const windowSteps = 20

// trainSpec describes one training workload. Rank and batch counts are
// fixed here and never derived from the host.
type trainSpec struct {
	name string
	// ranks is the mpi world size; 0 means no mpi at all (the plain
	// single-worker loop of gru-impute).
	ranks int
	// stages and micros select distdl.WithPipeline when stages > 0.
	stages, micros int
	// batch is the per-rank batch (per-replica under the pipeline); 0 means
	// full batch.
	batch  int
	lr     float64
	warmup int
	// A run is a sequence of identical segments: segSteps steps, then the
	// quality evaluation (workloads with one) and the checkpoint (ckpt).
	// The pinned job is jobSegs segments; ttq_s is its wall time. The job
	// is pinned in steps, not "until the target", because the step at which
	// a target is first met moves by tens of percent from one data seed to
	// the next; the target is a gate instead: the run fails unless the
	// quality at the job's end meets it (lowerBetter: at most, else at
	// least).
	segSteps, jobSegs int
	eval              bool
	target            float64
	lowerBetter       bool
	ckpt              bool
	// prep generates the inputs from the seed.
	prep func(seed int64, smoke bool) *trainData
}

// meets reports whether quality q passes the workload's gate.
func (s *trainSpec) meets(q float64) bool {
	if s.lowerBetter {
		return q <= s.target
	}
	return q >= s.target
}

// trainData is the generated input of a training workload plus the
// workload's own model, loss and quality measure.
type trainData struct {
	xs, ys *tensor.Tensor
	train  []int // row indices used for training
	build  func() *nn.Sequential
	loss   nn.Loss
	opt    func() nn.StatefulOptimizer
	clip   float64
	// eval scores the model on held-out data; ws recycles the forward
	// borrows between batches.
	eval func(m *nn.Sequential, ws *tensor.Workspace) float64
	// baseline is the quality of the trivial predictor (forward fill for
	// imputation), printed beside the model's; 0 when there is none.
	baseline float64
	genTime  time.Duration
}

// stepRec is one measured step as rank 0 saw it.
type stepRec struct {
	data, step time.Duration
	loss       float64
}

// segRec is one finished segment: the time its steps took (data loading
// included), and the time of its evaluation and checkpoint.
type segRec struct {
	steps, eval, ckpt time.Duration
}

// trainOutcome is everything one run of a training workload produced.
type trainOutcome struct {
	spec  *trainSpec
	td    *trainData
	smoke bool
	setup time.Duration
	warm  []float64 // losses of the warm-up steps, rank 0
	steps []stepRec
	segs  []segRec
	// stepsToTarget is the step of the first evaluation that met the gate,
	// 0 if none did; jobQuality is the quality at the job's end.
	stepsToTarget int
	jobQuality    float64
	inSync        bool
	t0ns, t1ns    int64 // measured phase on the trace clock

	poolMisses   int64
	mallocs      uint64
	mallocSteps  int
	commFraction float64
	mpiStats     mpi.Stats // summed over ranks, measured phase only
	syncProbeMs  []float64
	syncBytes    int64
	ckptEncodeMs []float64
	ckptWriteMs  []float64
	ckptBytes    int
	ckptOK       bool
	idleShare    float64
	imbalance    float64

	layers []*tracedLayer // rank 0's wrappers
	tracks []*track       // one per rank
	errs   []string
}

// plainStepper is the single-worker training loop of gru-impute: the same
// calls core.TrainGRUImputer makes, with a workspace so that the step is
// allocation-free like the distributed trainers.
type plainStepper struct {
	model  *nn.Sequential
	loss   nn.Loss
	opt    nn.Optimizer
	params []*nn.Param
	ws     *tensor.Workspace
	lr     float64
	clip   float64
}

func (p *plainStepper) Step(x, y *tensor.Tensor) float64 {
	p.ws.ReleaseAll()
	p.model.ZeroGrads()
	out := p.model.Forward(x, true)
	loss, grad := nn.LossForward(p.ws, p.loss, out, y)
	p.model.Backward(grad)
	if p.clip > 0 {
		nn.ClipGradNorm(p.params, p.clip)
	}
	p.opt.Step(p.params, p.lr)
	return loss
}

// batchIter walks one shard's minibatches epoch after epoch, skipping a
// short tail batch so that every step has the same global batch size.
type batchIter struct {
	td            *trainData
	seed          int64
	shard, shards int
	batch         int
	epoch         int
	pending       [][]int
	idx           []int
}

func (it *batchIter) next() (*tensor.Tensor, *tensor.Tensor) {
	if it.batch == 0 {
		return it.td.xs, it.td.ys
	}
	for len(it.pending) == 0 || len(it.pending[0]) < it.batch {
		if len(it.pending) > 0 {
			it.pending = it.pending[1:]
			continue
		}
		sh := distdl.Shard(len(it.td.train), it.seed+int64(it.epoch), it.shard, it.shards)
		it.epoch++
		it.pending = distdl.Batches(sh, it.batch)
	}
	b := it.pending[0]
	it.pending = it.pending[1:]
	it.idx = it.idx[:0]
	for _, i := range b {
		it.idx = append(it.idx, it.td.train[i])
	}
	return distdl.GatherBatch(it.td.xs, it.td.ys, it.idx)
}

// runOpts selects how one run of a training workload is driven.
type runOpts struct {
	seed    int64
	seconds float64
	ts      *traceSet // nil: bare program, no wrappers
	smoke   bool
	// setupOnly stops after set-up (data, construction, warm-up); used to
	// sample setup_s several times in one process.
	setupOnly bool
	// finishJob keeps stepping past -seconds until the pinned job is done.
	finishJob bool
	// ranks overrides spec.ranks (the single-rank phase of scaling_eff).
	ranks  int
	outDir string
}

// run executes one set-up and, unless setupOnly, one measured phase.
func (s *trainSpec) run(o runOpts) *trainOutcome {
	out := &trainOutcome{spec: s, smoke: o.smoke, ckptOK: true}
	setupStart := time.Now()
	td := s.prep(o.seed, o.smoke)
	td.genTime = time.Since(setupStart)
	out.td = td
	ranks := s.ranks
	if o.ranks > 0 {
		ranks = o.ranks
	}
	nRanks := max(ranks, 1)
	out.tracks = make([]*track, nRanks)
	traced := o.ts != nil
	for r := range out.tracks {
		if traced {
			out.tracks[r] = o.ts.track("%s/rank%d", s.name, r)
		}
	}

	var store *storage.ModelStore
	if s.ckpt {
		dir := filepath.Join(o.outDir, fmt.Sprintf("store-%s-%d", s.name, os.Getpid()))
		st, err := storage.NewModelStore(dir)
		if err != nil {
			out.errs = append(out.errs, "opening model store: "+err.Error())
			return out
		}
		store = st
		defer os.RemoveAll(dir)
	}

	var stopStep atomic.Int64
	stopStep.Store(math.MaxInt64)
	models := make([]*nn.Sequential, nRanks)
	busy := make([]int64, nRanks) // per-rank layer busy time, pipeline only
	var world *mpi.World
	if ranks > 0 {
		world = mpi.NewWorld(ranks)
	}
	// Each rank reads its own traffic counters at the edges of its own
	// measured phase (and around the sync probes, which are not part of the
	// program), so the per-step message and byte counts are exact.
	traffic := make([]mpi.Stats, nRanks)
	addStats := func(dst *mpi.Stats, a, b mpi.Stats, sign int64) {
		dst.MessagesSent += sign * (a.MessagesSent - b.MessagesSent)
		dst.ElemsSent += sign * (a.ElemsSent - b.ElemsSent)
		dst.Collectives += sign * (a.Collectives - b.Collectives)
	}

	rankLoop := func(c *mpi.Comm) error { // the error World.Run wants is always nil
		rank := 0
		if c != nil {
			rank = c.Rank()
		}
		tr := out.tracks[rank]
		model := td.build()
		models[rank] = model
		var layers []*tracedLayer
		if traced {
			layers = wrapModel(model, tr)
		}
		opt := td.opt()
		var nnOpt nn.Optimizer = opt
		if traced {
			nnOpt = &tracedOpt{StatefulOptimizer: opt, tr: tr}
		}

		// Build the stepper: the program's own trainer for the
		// distributed workloads, the plain loop otherwise.
		var stepper interface {
			Step(x, y *tensor.Tensor) float64
		}
		var ddp *distdl.Trainer
		var pipe *distdl.PipelineTrainer
		var ws *tensor.Workspace
		shard, shards := rank, nRanks
		switch {
		case c == nil:
			ws = tensor.NewWorkspace()
			model.SetWorkspace(ws)
			stepper = &plainStepper{model: model, loss: td.loss, opt: nnOpt,
				params: model.Params(), ws: ws, lr: s.lr, clip: td.clip}
		case s.stages > 0:
			// WithPipeline needs the concrete *mpi.Comm (it splits it), so
			// this path has no communicator wrapper; its mpi numbers come
			// from the world's own counters and the stage's busy/window.
			pipe = distdl.New(c, model, td.loss, nnOpt, distdl.WithSchedule(nn.ConstLR(s.lr)),
				distdl.WithPipeline(s.stages, s.micros, pipeline.OneFOneB)).(*distdl.PipelineTrainer)
			stepper, ws = pipe, pipe.Stage().Workspace()
			shard, shards = pipe.Replica(), pipe.Replicas()
		default:
			var comm mpi.Communicator = c
			if traced {
				comm = &tracedComm{Communicator: c, tr: tr}
			}
			ddp = distdl.New(comm, model, td.loss, nnOpt, distdl.WithAlgo(mpi.AlgoRing),
				distdl.WithSchedule(nn.ConstLR(s.lr)), distdl.WithClipNorm(td.clip)).(*distdl.Trainer)
			stepper, ws = ddp, ddp.Workspace()
		}
		it := &batchIter{td: td, seed: o.seed, shard: shard, shards: shards, batch: s.batch}

		for i := 0; i < s.warmup; i++ {
			x, y := it.next()
			l := stepper.Step(x, y)
			if rank == 0 {
				out.warm = append(out.warm, l)
			}
		}
		if rank == 0 {
			out.setup = time.Since(setupStart)
			out.layers = layers
		}
		if o.setupOnly {
			return nil
		}

		// ---- measured phase ----
		var syncBuf []float64
		if ddp != nil && o.ts != nil {
			syncBuf = make([]float64, nn.NumParams(model.Params()))
		}
		var stats0 mpi.Stats
		if c != nil {
			c.Barrier()
			stats0 = world.RankStats(rank)
		}
		var m0 runtime.MemStats
		var start time.Time
		deadline := time.Duration(o.seconds * float64(time.Second))
		if rank == 0 {
			out.syncBytes = bytesOf(syncBuf)
			out.poolMisses = -int64(ws.Allocs())
			out.t0ns = o.ts.since()
			start = time.Now()
		}
		var seg segRec
		for step := 0; int64(step) < stopStep.Load(); step++ {
			if rank == 0 && step == windowSteps {
				runtime.ReadMemStats(&m0)
			}
			t0 := time.Now()
			id := tr.begin("data.batch", 0)
			x, y := it.next()
			tr.end(id)
			t1 := time.Now()
			id = tr.begin("distdl.step", 0)
			loss := stepper.Step(x, y)
			tr.end(id)
			t2 := time.Now()
			if pipe != nil {
				busy[rank] += pipe.Stage().BusyNS()
			}
			done := step + 1
			if rank == 0 && step == 2*windowSteps-1 {
				var m1 runtime.MemStats
				runtime.ReadMemStats(&m1)
				out.mallocs, out.mallocSteps = m1.Mallocs-m0.Mallocs, windowSteps
			}

			// A gradient-sized allreduce right after a barrier: the cost of
			// the transfer alone, without waiting for a slower rank.
			if syncBuf != nil && done%10 == 0 {
				id = tr.begin("probe.sync", 0)
				pre := world.RankStats(rank)
				c.Barrier()
				p0 := time.Now()
				c.AllreduceInPlace(syncBuf, mpi.OpSum, mpi.AlgoRing)
				d := time.Since(p0)
				addStats(&traffic[rank], world.RankStats(rank), pre, -1)
				tr.end(id)
				if rank == 0 {
					out.syncProbeMs = append(out.syncProbeMs, ms(d))
				}
			}
			if rank != 0 {
				continue
			}

			out.steps = append(out.steps, stepRec{data: t1.Sub(t0), step: t2.Sub(t1), loss: loss})
			seg.steps += t2.Sub(t0)
			if done%s.segSteps != 0 {
				continue
			}

			// ---- segment end: evaluate, checkpoint, decide to stop ----
			if s.eval {
				e0 := time.Now()
				id = tr.begin("nn.eval", 0)
				q := td.eval(model, ws)
				tr.end(id)
				seg.eval = time.Since(e0)
				if len(out.segs) < s.jobSegs {
					out.jobQuality = q
				}
				if s.meets(q) && out.stepsToTarget == 0 {
					out.stepsToTarget = done
				}
			}
			if s.ckpt {
				c0 := time.Now()
				id = tr.begin("distdl.checkpoint", 0)
				blob, err := ddp.Checkpoint()
				tr.end(id)
				c1 := time.Now()
				if err == nil {
					id = tr.begin("storage.save", int64(len(blob)))
					err = store.SaveBlob("ckpt", blob)
					tr.end(id)
				}
				if err != nil {
					out.ckptOK = false
					out.errs = append(out.errs, "checkpoint: "+err.Error())
				}
				seg.ckpt = time.Since(c0)
				out.ckptEncodeMs = append(out.ckptEncodeMs, ms(c1.Sub(c0)))
				out.ckptWriteMs = append(out.ckptWriteMs, ms(time.Since(c1)))
				out.ckptBytes = len(blob)
			}
			out.segs = append(out.segs, seg)
			seg = segRec{}
			// The run ends on a segment boundary once the time is up and,
			// if asked to, the pinned job is done.
			if time.Since(start) >= deadline && (len(out.segs) >= s.jobSegs || !o.finishJob) {
				// One more step runs: another rank may already have
				// started it, but none can finish it, and so reach this
				// check again, before rank 0 has entered it too.
				stopStep.Store(int64(done + 1))
			}
		}
		if c != nil {
			addStats(&traffic[rank], world.RankStats(rank), stats0, 1)
		}
		if rank == 0 {
			out.t1ns = o.ts.since()
			out.poolMisses += int64(ws.Allocs())
		}
		switch {
		case ddp != nil:
			sync := ddp.ParamsInSync()
			if rank == 0 {
				out.inSync = sync
				out.commFraction = ddp.CommFraction()
			}
		case pipe != nil:
			pipe.SyncFullModel()
			if rank == 0 {
				out.commFraction = pipe.CommFraction()
			}
		}
		return nil
	}

	if world != nil {
		if err := world.Run(rankLoop); err != nil {
			out.errs = append(out.errs, "world.Run: "+err.Error())
			return out
		}
	} else {
		_ = rankLoop(nil)
	}
	if o.setupOnly {
		return out
	}

	for _, t := range traffic {
		addStats(&out.mpiStats, t, mpi.Stats{}, 1)
	}
	if s.stages > 0 {
		// After SyncFullModel every rank holds the whole model; replicas
		// must agree bitwise (synchronous data parallelism across them).
		out.inSync = sameValues(models[0], models[ranks-1])
		var sum, peak float64
		for _, b := range busy {
			sum += float64(b)
			peak = math.Max(peak, float64(b))
		}
		if stepWall := sumSteps(out.steps); stepWall > 0 && sum > 0 {
			out.idleShare = 1 - sum/(float64(ranks)*float64(stepWall))
			out.imbalance = peak / (sum / float64(ranks))
		}
	} else if ranks == 0 {
		out.inSync = true
	}
	if store != nil && out.ckptBytes > 0 {
		if b, err := store.Blob("ckpt"); err != nil || len(b) != out.ckptBytes {
			out.ckptOK = false
			out.errs = append(out.errs, "checkpoint read-back differs from what was written")
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func sumSteps(steps []stepRec) time.Duration {
	var d time.Duration
	for _, r := range steps {
		d += r.step
	}
	return d
}

func sameValues(a, b *nn.Sequential) bool {
	return slices.Equal(nn.FlattenValues(a.Params()), nn.FlattenValues(b.Params()))
}

// referenceLosses replays the first k steps on one model in one goroutine
// with plain nn calls: every shard's batch is cut into the workload's
// micro-batches, gradients accumulate, are averaged over shards, and one
// optimizer step follows. The distributed trainers must report the same
// losses (to rounding: the sum order of an allreduce differs).
func (s *trainSpec) referenceLosses(td *trainData, seed int64, k int) []float64 {
	shards := max(s.ranks, 1)
	M := 1
	if s.stages > 0 {
		shards, M = s.ranks/s.stages, s.micros
	}
	its := make([]*batchIter, shards)
	for r := range its {
		its[r] = &batchIter{td: td, seed: seed, shard: r, shards: shards, batch: s.batch}
	}
	model := td.build()
	params := model.Params()
	opt := td.opt()
	losses := make([]float64, k)
	for step := 0; step < k; step++ {
		model.ZeroGrads()
		for _, it := range its {
			x, y := it.next()
			n := x.Dim(0)
			rowX, rowY := x.Size()/n, y.Size()/n
			off := 0
			for m := 0; m < M; m++ {
				rows := n / M
				if m < n%M {
					rows++
				}
				xm := tensor.FromSlice(x.Data()[off*rowX:(off+rows)*rowX], append([]int{rows}, x.Shape()[1:]...)...)
				ym := tensor.FromSlice(y.Data()[off*rowY:(off+rows)*rowY], append([]int{rows}, y.Shape()[1:]...)...)
				off += rows
				w := float64(rows) / float64(n)
				l, g := td.loss.Forward(model.Forward(xm, true), ym)
				model.Backward(g.Scale(w))
				losses[step] += l * w / float64(shards)
			}
		}
		for _, p := range params {
			p.Grad.Scale(1 / float64(shards))
		}
		if td.clip > 0 {
			nn.ClipGradNorm(params, td.clip)
		}
		opt.Step(params, s.lr)
	}
	return losses
}

// ---- the four training workloads ----

func genPatches(seed int64, smoke bool) (*data.Multispectral, data.Split) {
	samples := 1024
	if smoke {
		samples = 128
	}
	ds := data.GenMultispectral(data.MultispectralConfig{Samples: samples, Seed: seed})
	return ds, data.TrainValSplit(samples, 0.25, seed)
}

// microF1 is nn.MultiLabelF1 over the validation rows, forwarded in
// batches so the workspace stays small.
func microF1(m *nn.Sequential, ws *tensor.Workspace, xs, ys *tensor.Tensor, val []int) float64 {
	const evalBatch = 64
	var logits []float64
	for lo := 0; lo < len(val); lo += evalBatch {
		x := data.SelectRows(xs, val[lo:min(lo+evalBatch, len(val))])
		logits = append(logits, m.Forward(x, false).Data()...)
		ws.ReleaseAll()
	}
	return nn.MultiLabelF1(tensor.FromSlice(logits, len(val), ys.Dim(1)), data.SelectRows(ys, val))
}

func resnetData(seed int64, smoke bool) *trainData {
	ds, split := genPatches(seed, smoke)
	return &trainData{
		xs: ds.X, ys: ds.Y, train: split.Train,
		build: func() *nn.Sequential {
			return nn.ResNetMini(rand.New(rand.NewSource(modelSeed)), ds.X.Dim(1), ds.Classes, 8, 2)
		},
		loss: nn.BCEWithLogits{},
		opt:  func() nn.StatefulOptimizer { return nn.NewSGD(0.9, 0) },
		eval: func(m *nn.Sequential, ws *tensor.Workspace) float64 {
			return microF1(m, ws, ds.X, ds.Y, split.Val)
		},
	}
}

func mlpData(seed int64, smoke bool) *trainData {
	ds, split := genPatches(seed, smoke)
	feats, labels := ds.FlattenFeatures()
	hidden := 640
	if smoke {
		hidden = 64
	}
	return &trainData{
		xs: feats, ys: nn.OneHot(labels, 16), train: split.Train,
		build: func() *nn.Sequential {
			return nn.MLP(rand.New(rand.NewSource(modelSeed)), feats.Dim(1), hidden, hidden, hidden, 16)
		},
		loss: nn.SoftmaxCrossEntropy{},
		opt:  func() nn.StatefulOptimizer { return nn.NewSGD(0.9, 0) },
	}
}

func icuData(seed int64, smoke bool) *trainData {
	patients := 256
	if smoke {
		patients = 16
	}
	ds := data.GenICU(data.ICUConfig{Patients: patients, Steps: 32, ARDSFraction: 0.4, Seed: seed})
	// Train and evaluation hide different positions of the same stays, so
	// the score measures generalisation (as core.TrainGRUImputer does).
	trainTask := ds.MakeImputationTask(data.ChPaO2, 0.25, seed+1)
	evalTask := ds.MakeImputationTask(data.ChPaO2, 0.25, seed+2)
	return &trainData{
		xs: trainTask.Input, ys: trainTask.Target,
		build: func() *nn.Sequential {
			return nn.GRUImputer(rand.New(rand.NewSource(modelSeed)), trainTask.Input.Dim(2))
		},
		loss: nn.MaskedMAE{Mask: trainTask.EvalMask},
		opt:  func() nn.StatefulOptimizer { return nn.NewAdam() },
		clip: 5,
		eval: func(m *nn.Sequential, ws *tensor.Workspace) float64 {
			mae := evalTask.MAEOn(m.Forward(evalTask.Input, false))
			ws.ReleaseAll()
			return mae
		},
		baseline: evalTask.MAEOn(evalTask.ForwardFillBaseline()),
	}
}

var trainSpecs = []*trainSpec{
	{name: "resnet-ddp", ranks: 2, batch: 16, lr: 0.02, warmup: 5,
		segSteps: 20, jobSegs: 7, eval: true, target: 0.45, prep: resnetData},
	{name: "gradsync-ddp", ranks: 4, batch: 8, lr: 0.01, warmup: 5,
		segSteps: 20, jobSegs: 4, ckpt: true, prep: mlpData},
	{name: "gru-impute", ranks: 0, lr: 5e-3, warmup: 2,
		segSteps: 10, jobSegs: 7, eval: true, target: 0.33, lowerBetter: true, prep: icuData},
	{name: "pipe-2d", ranks: 4, stages: 2, micros: 4, batch: 16, lr: 0.02, warmup: 5,
		segSteps: 20, jobSegs: 6, prep: resnetData},
}
