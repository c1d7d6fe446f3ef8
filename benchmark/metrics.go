package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/pipeline"
)

// metricDef names one metric of BENCHMARK.json; bench_test.go checks that
// the two lists below and the JSON file agree.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end metrics only
}

// Every workload reports every end-to-end metric (README.md says what each
// one means on a training and on a serving workload).
var e2eDefs = []metricDef{
	{"ttq_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

// Per-layer metrics come from the traced run only. A metric whose layer
// does not run in a workload (mpi on gru-impute, fleet on training) is
// reported as 0 there.
var layerDefs = []metricDef{
	{"tensor.matmul_gflops", "GFLOP/s", "higher", 0},
	{"tensor.conv_train_gflops", "GFLOP/s", "higher", 0},
	{"tensor.conv_infer_gflops", "GFLOP/s", "higher", 0},
	{"tensor.vec_gbps", "GB/s", "higher", 0},
	{"tensor.par_eff", "share", "higher", 0},
	{"tensor.flops_per_step", "count", "lower", 0},
	{"tensor.ws_pool_misses_per_step", "count", "lower", 0},
	{"nn.fwd_ms_per_step", "ms", "lower", 0},
	{"nn.bwd_ms_per_step", "ms", "lower", 0},
	{"nn.conv_ms", "ms", "lower", 0},
	{"nn.bn_ms", "ms", "lower", 0},
	{"nn.dense_ms", "ms", "lower", 0},
	{"nn.gru_ms", "ms", "lower", 0},
	{"nn.act_pool_ms", "ms", "lower", 0},
	{"nn.optimizer_ms", "ms", "lower", 0},
	{"nn.eval_ms", "ms", "lower", 0},
	{"nn.steps_to_target", "count", "lower", 0},
	{"mpi.step_share", "share", "lower", 0},
	{"mpi.allreduce_ms_per_step", "ms", "lower", 0},
	{"mpi.allreduce_sync_ms", "ms", "lower", 0},
	{"mpi.wait_share", "share", "lower", 0},
	{"mpi.busbw_gbps", "GB/s", "higher", 0},
	{"mpi.scalar_allreduce_us", "us", "lower", 0},
	{"mpi.calls_per_step", "count", "lower", 0},
	{"mpi.bytes_per_step", "count", "lower", 0},
	{"mpi.p2p_ms_per_step", "ms", "lower", 0},
	{"mpi.p2p_msgs_per_step", "count", "lower", 0},
	{"distdl.step_ms_p50", "ms", "lower", 0},
	{"distdl.step_ms_p95", "ms", "lower", 0},
	{"distdl.glue_ms_per_step", "ms", "lower", 0},
	{"distdl.comm_fraction", "share", "lower", 0},
	{"distdl.allocs_per_step", "count", "lower", 0},
	{"distdl.ckpt_encode_ms", "ms", "lower", 0},
	{"distdl.scaling_eff", "share", "higher", 0},
	{"pipeline.bubble_planned", "share", "lower", 0},
	{"pipeline.idle_share", "share", "lower", 0},
	{"pipeline.stage_imbalance", "ratio", "lower", 0},
	{"data.batch_ms_per_step", "ms", "lower", 0},
	{"data.gen_s", "s", "lower", 0},
	{"storage.ckpt_write_ms", "ms", "lower", 0},
	{"storage.ckpt_bytes", "count", "lower", 0},
	{"storage.load_ms", "ms", "lower", 0},
	{"serve.infer_ms_per_batch_p50", "ms", "lower", 0},
	{"serve.infer_ms_per_sample", "ms", "lower", 0},
	{"serve.mean_batch", "count", "higher", 0},
	{"serve.wait_ms_mean", "ms", "lower", 0},
	{"serve.replica_util", "share", "lower", 0},
	{"serve.shed", "count", "lower", 0},
	{"serve.expired", "count", "lower", 0},
	{"serve.latency_p99_ms", "ms", "lower", 0},
	{"serve.latency_p999_ms", "ms", "lower", 0},
	{"serve.slo_ok_frac", "share", "higher", 0},
	{"fleet.cache_hit_rate", "share", "higher", 0},
	{"fleet.hit_path_us_p50", "us", "lower", 0},
	{"fleet.fast_group_share", "share", "higher", 0},
	{"fleet.overhead_us", "us", "lower", 0},
	{"trace.overhead_frac", "share", "lower", 0},
	{"trace.untracked_share", "share", "lower", 0},
	{"loadgen.max_late_ms", "ms", "lower", 0},
}

// result is what one workload run reports.
type result struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	notes     []string // why operations were counted as failed
	// extra holds quartiles and sample counts printed beside the metrics.
	extra map[string]string
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, extra: map[string]string{}}
}

// op counts one checked operation; a false ok counts it as failed.
func (r *result) op(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.notes) < 20 {
			r.notes = append(r.notes, fmt.Sprintf(format, args...))
		}
	}
}

// timing records a metric from its per-window samples (a window is one
// training segment, one serving round, or one set-up). The value is the
// quartile on the fast side: the upper quartile of a rate, the lower
// quartile of a time. Work per window is constant and interference from
// other tenants of the host only ever slows a window down, in phases that
// last seconds, so the fast-side quartile repeats from run to run where
// the median flips between the host's two speeds. The median, the other
// quartile and the sample count are printed beside it.
func (r *result) timing(name string, vals []float64, higherBetter bool) {
	q1, q3 := quantile(vals, 0.25), quantile(vals, 0.75)
	r.metrics[name] = q1
	if higherBetter {
		r.metrics[name] = q3
	}
	r.extra[name] = fmt.Sprintf("q1 %.4g median %.4g q3 %.4g n %d", q1, median(vals), q3, len(vals))
}

// ---- training ----

func globalBatch(o *trainOutcome) int {
	s := o.spec
	if s.batch == 0 {
		return o.td.xs.Dim(0)
	}
	if s.stages > 0 {
		return s.batch * s.ranks / s.stages
	}
	return s.batch * max(s.ranks, 1)
}

// segRates returns global samples per second for each segment: data
// loading and the steps count; the segment's evaluation and checkpoint do
// not (they are part of ttq_s).
func segRates(o *trainOutcome) []float64 {
	rates := make([]float64, len(o.segs))
	for i, sg := range o.segs {
		rates[i] = float64(globalBatch(o)*o.spec.segSteps) / sg.steps.Seconds()
	}
	return rates
}

// fastRate is the run's throughput as throughput_per_s reports it.
func fastRate(o *trainOutcome) float64 {
	if len(o.segs) == 0 {
		return 0
	}
	return quantile(segRates(o), 0.75)
}

// checkTraining counts the measured steps and the output checks of a
// training run into res.
func checkTraining(res *result, o *trainOutcome, seed int64) {
	s := o.spec
	for _, e := range o.errs {
		res.op(false, "%s", e)
	}
	res.op(len(o.steps) > 0, "no measured step ran")
	for i, r := range o.steps {
		res.op(!math.IsNaN(r.loss) && !math.IsInf(r.loss, 0), "step %d: loss %v", i, r.loss)
	}
	if s.ranks > 0 {
		k := min(2, len(o.warm)) // smoke runs warm up for one step only
		for i, ref := range s.referenceLosses(o.td, seed, k) {
			res.op(math.Abs(ref-o.warm[i]) <= 1e-9*math.Max(1, math.Abs(ref)),
				"step %d: trainer loss %.12g, single-process reference %.12g", i, o.warm[i], ref)
		}
		res.op(o.inSync, "replicas hold different parameters after training")
	}
	if s.ckpt {
		res.op(o.ckptOK && o.ckptBytes > 0, "checkpoint was not written and read back intact")
	}
	// Learning checks need a run long enough to learn; smoke runs are not.
	if !o.smoke && len(o.warm) > 0 && len(o.steps) > 0 {
		last := o.steps[len(o.steps)-1].loss
		res.op(last < o.warm[0], "loss did not fall: first %.6g, last %.6g", o.warm[0], last)
	}
	if s.eval {
		res.op(s.meets(o.jobQuality), "quality %.4g at the end of the %d-step job misses the gate %.3g",
			o.jobQuality, s.jobSegs*s.segSteps, s.target)
	}
}

func trainE2E(res *result, o *trainOutcome) {
	s := o.spec
	res.timing("throughput_per_s", segRates(o), true)
	var p50, p90, wall []float64
	for i, sg := range o.segs {
		var steps []float64
		for _, r := range o.steps[i*s.segSteps : (i+1)*s.segSteps] {
			steps = append(steps, ms(r.data+r.step))
		}
		p50 = append(p50, quantile(steps, 0.5))
		p90 = append(p90, quantile(steps, 0.9))
		wall = append(wall, (sg.steps + sg.eval + sg.ckpt).Seconds())
	}
	res.timing("latency_p50_ms", p50, false)
	res.timing("latency_p90_ms", p90, false)
	// The pinned job is jobSegs identical segments; the run keeps
	// repeating the segment until the time is up, and every repetition is
	// a sample of its wall time.
	res.timing("ttq_s", wall, false)
	res.metrics["ttq_s"] *= float64(s.jobSegs)
	res.extra["ttq_s"] = fmt.Sprintf("%d x segment (%s)", s.jobSegs, res.extra["ttq_s"])
	if s.eval {
		res.extra["ttq_s"] += fmt.Sprintf(" gate %.3g first met at step %d, quality at job end %.4g, baseline %.4g",
			s.target, o.stepsToTarget, o.jobQuality, o.td.baseline)
	}
}

// sumSpans adds up, over the given tracks and the measured phase, the self
// and total time and the count of every span name.
func sumSpans(tracks []*track, from, to int64) (self, total, count map[string]int64) {
	self, total, count = map[string]int64{}, map[string]int64{}, map[string]int64{}
	for _, t := range tracks {
		s, tt, c := t.selfTimes(from, to, "")
		for k, v := range s {
			self[k] += v
		}
		for k, v := range tt {
			total[k] += v
		}
		for k, v := range c {
			count[k] += v
		}
	}
	return
}

func nsMs(ns int64) float64 { return ms(time.Duration(ns)) }

// layerTimes fills the nn.* metrics from span sums, per unit of work
// (a training step or an inferred batch).
func layerTimes(m map[string]float64, self, total map[string]int64, units float64) {
	var fwd, bwd int64
	for name, v := range self {
		switch {
		case strings.HasPrefix(name, "nn.fwd."):
			fwd += v
		case strings.HasPrefix(name, "nn.bwd."):
			bwd += v
		}
	}
	m["nn.fwd_ms_per_step"] = nsMs(fwd) / units
	m["nn.bwd_ms_per_step"] = nsMs(bwd) / units
	for _, k := range []string{"conv", "bn", "dense", "gru", "act_pool"} {
		m["nn."+k+"_ms"] = nsMs(self["nn.fwd."+k]+self["nn.bwd."+k]) / units
	}
	m["nn.optimizer_ms"] = nsMs(total["nn.optimizer"]) / units
}

func trainLayers(res *result, o *trainOutcome, pr probeResult) {
	m, s := res.metrics, o.spec
	n := float64(len(o.steps))
	if n == 0 {
		return
	}
	// Layer times of one model replica: rank 0, or under the pipeline the
	// ranks of replica 0, which hold one chunk set each. Evaluation
	// forwards sit under the nn.eval span and are taken out of the
	// per-step numbers.
	own := o.tracks[:1]
	if s.stages > 0 && len(o.tracks) >= s.stages {
		own = o.tracks[:s.stages]
	}
	self, total, count := sumSpans(own, o.t0ns, o.t1ns)
	evalSelf, _, _ := o.tracks[0].selfTimes(o.t0ns, o.t1ns, "nn.eval")
	for k, v := range evalSelf {
		self[k] -= v
	}
	layerTimes(m, self, total, n)
	var evals []float64
	for _, sg := range o.segs {
		if sg.eval > 0 {
			evals = append(evals, ms(sg.eval))
		}
	}
	m["nn.eval_ms"] = median(evals)
	m["nn.steps_to_target"] = float64(o.stepsToTarget)

	var flops int64
	for _, l := range o.layers {
		flops += l.flops
	}
	// Forward multiply-adds seen by rank 0's wrappers (warm-up and
	// evaluation forwards included in the count), times three for the two
	// backward products, per measured step.
	m["tensor.flops_per_step"] = 3 * float64(flops) / (n + float64(s.warmup))
	m["tensor.ws_pool_misses_per_step"] = float64(o.poolMisses) / n
	m["tensor.matmul_gflops"] = pr.matmulGflops
	m["tensor.conv_train_gflops"] = pr.convTrainGflops
	m["tensor.conv_infer_gflops"] = pr.convInferGflops
	m["tensor.vec_gbps"] = pr.vecGbps
	m["tensor.par_eff"] = pr.parEff

	steps := make([]float64, len(o.steps))
	var dataMs float64
	for i, r := range o.steps {
		steps[i] = ms(r.step)
		dataMs += ms(r.data)
	}
	stepMean := mean(steps)
	m["distdl.step_ms_p50"] = median(steps)
	m["distdl.step_ms_p95"] = quantile(steps, 0.95)
	// Glue is the step's self time: flatten/unflatten, loss, zero-grads,
	// workspace release. Under the pipeline the unwrapped mpi calls are in
	// it too and are taken out below.
	m["distdl.glue_ms_per_step"] = nsMs(self["distdl.step"]) / float64(len(own)) / n
	m["distdl.comm_fraction"] = o.commFraction
	if o.mallocSteps > 0 {
		m["distdl.allocs_per_step"] = float64(o.mallocs) / float64(o.mallocSteps)
	}
	m["distdl.ckpt_encode_ms"] = median(o.ckptEncodeMs)
	m["storage.ckpt_write_ms"] = median(o.ckptWriteMs)
	m["storage.ckpt_bytes"] = float64(o.ckptBytes)
	m["data.batch_ms_per_step"] = dataMs / n
	m["data.gen_s"] = o.td.genTime.Seconds()

	if s.ranks > 0 {
		ranks := float64(s.ranks)
		m["mpi.calls_per_step"] = float64(o.mpiStats.Collectives) / ranks / n
		m["mpi.bytes_per_step"] = float64(o.mpiStats.ElemsSent) * 8 / ranks / n
		m["mpi.p2p_msgs_per_step"] = float64(o.mpiStats.MessagesSent) / ranks / n
		var mpiMs float64
		if s.stages > 0 {
			// No communicator wrapper fits under WithPipeline: the
			// trainer's own counters give the data-parallel sync, and the
			// time a stage is inside a step but not computing is p2p.
			m["mpi.allreduce_ms_per_step"] = o.commFraction * stepMean
			m["mpi.p2p_ms_per_step"] = o.idleShare*stepMean - m["mpi.allreduce_ms_per_step"]
			mpiMs = o.idleShare * stepMean
			m["distdl.glue_ms_per_step"] = math.Max(0, m["distdl.glue_ms_per_step"]-mpiMs)
		} else {
			m["mpi.allreduce_ms_per_step"] = nsMs(total["mpi.allreduce"]) / n
			if c := count["mpi.allreduce_scalar"]; c > 0 {
				m["mpi.scalar_allreduce_us"] = float64(total["mpi.allreduce_scalar"]) / 1e3 / float64(c)
			}
			mpiMs = nsMs(total["mpi.allreduce"]+total["mpi.allreduce_scalar"]) / n
			if sync := median(o.syncProbeMs); sync > 0 {
				m["mpi.allreduce_sync_ms"] = sync
				m["mpi.wait_share"] = math.Max(0, 1-sync/m["mpi.allreduce_ms_per_step"])
				m["mpi.busbw_gbps"] = 2 * (ranks - 1) / ranks * float64(o.syncBytes) / (sync / 1e3) / 1e9
			}
		}
		m["mpi.step_share"] = mpiMs / stepMean
	}
	if s.stages > 0 {
		m["pipeline.bubble_planned"] = pipeline.PlannedBubble(s.stages, 0, s.micros, pipeline.OneFOneB, 1, 2)
		m["pipeline.idle_share"] = o.idleShare
		m["pipeline.stage_imbalance"] = o.imbalance
	}
	// Rank 0's measured wall not inside any top-level span is what the
	// harness loop itself costs.
	if wall := o.t1ns - o.t0ns; wall > 0 {
		m["trace.untracked_share"] = 1 - float64(o.tracks[0].rootCover(o.t0ns, o.t1ns))/float64(wall)
	}
}

// ---- serving ----

func latenciesMs(reqs []reqRec) []float64 {
	v := make([]float64, 0, len(reqs))
	for _, q := range reqs {
		v = append(v, ms(q.latency))
	}
	return v
}

func checkServing(res *result, r *serveRun) {
	for _, rd := range r.rounds {
		for _, q := range rd.reqs {
			res.op(q.ok, "a request failed, was refused, or its reply differs from the direct forward")
		}
	}
	st := r.fl.Snapshot()
	if r.spec.cacheSize > 0 {
		res.op(st.CacheHits > 0, "the result cache was never hit")
	} else {
		res.op(st.CacheHits == 0, "the result cache answered %d requests of a cache-off workload", st.CacheHits)
	}
}

func serveE2E(res *result, r *serveRun) {
	var cap, ttq, p50, p90 []float64
	for _, rd := range r.rounds {
		if rd.open {
			lat := latenciesMs(rd.reqs)
			p50 = append(p50, quantile(lat, 0.5))
			p90 = append(p90, quantile(lat, 0.9))
			continue
		}
		var done []float64
		for _, q := range rd.reqs {
			if q.ok {
				done = append(done, q.done.Seconds())
			}
		}
		rate := float64(len(done)) / rd.wall.Seconds()
		cap = append(cap, rate)
		// Time to deliver the pinned job; a round that ends before the
		// job is done is extrapolated at the round's own rate.
		sort.Float64s(done)
		if job := r.spec.jobReplies; len(done) >= job {
			ttq = append(ttq, done[job-1])
		} else if rate > 0 {
			ttq = append(ttq, float64(job)/rate)
		}
	}
	res.timing("throughput_per_s", cap, true)
	res.timing("ttq_s", ttq, false)
	res.timing("latency_p50_ms", p50, false)
	res.timing("latency_p90_ms", p90, false)
}

func serveLayers(res *result, r *serveRun, pr probeResult) {
	m, b := res.metrics, r.bstats
	if b.batches == 0 {
		return
	}
	batches := float64(b.batches)
	m["serve.infer_ms_per_batch_p50"] = median(b.perBatch)
	m["serve.infer_ms_per_sample"] = ms(b.busy) / float64(b.rows)
	m["serve.mean_batch"] = float64(b.rows) / batches

	// A request waits for whatever its latency does not spend inferring:
	// mean latency minus the mean time of the batch that carried a sample.
	var weighted float64
	for i, d := range b.perBatch {
		weighted += d * float64(b.perRows[i])
	}
	var lat, pooledOpen []float64
	var closedWall, closedBusy, late float64
	var sent, within int
	for _, rd := range r.rounds {
		lat = append(lat, latenciesMs(rd.reqs)...)
		if rd.open {
			pooledOpen = append(pooledOpen, latenciesMs(rd.reqs)...)
			late = math.Max(late, ms(rd.maxLate))
			for _, q := range rd.reqs {
				sent++
				if q.ok && q.latency <= r.spec.limit {
					within++
				}
			}
		} else {
			closedWall += rd.wall.Seconds()
			closedBusy += rd.busy.Seconds()
		}
	}
	m["serve.wait_ms_mean"] = math.Max(0, mean(lat)-weighted/float64(b.rows))
	replicas := 0
	for _, g := range r.spec.groups {
		replicas += g.Replicas
	}
	if closedWall > 0 {
		m["serve.replica_util"] = closedBusy / (closedWall * float64(replicas))
	}
	m["serve.latency_p99_ms"] = quantile(pooledOpen, 0.99)
	m["serve.latency_p999_ms"] = quantile(pooledOpen, 0.999)
	if sent > 0 {
		m["serve.slo_ok_frac"] = float64(within) / float64(sent)
		res.extra["serve.slo_ok_frac"] = fmt.Sprintf("within %v: %d of %d", r.spec.limit, within, sent)
	}
	m["loadgen.max_late_ms"] = late

	st := r.fl.Snapshot()
	m["serve.shed"] = float64(st.Shed)
	m["serve.expired"] = float64(st.Expired)
	if n := st.CacheHits + st.CacheMiss; n > 0 {
		m["fleet.cache_hit_rate"] = float64(st.CacheHits) / float64(n)
	}
	var fast, all int64
	best := math.Inf(1)
	for _, g := range r.spec.groups {
		best = math.Min(best, g.LatencyScore)
	}
	for i, g := range st.Groups[serveModelName] {
		all += g.Served
		if r.spec.groups[i].LatencyScore == best {
			fast += g.Served
		}
	}
	if all > 0 {
		m["fleet.fast_group_share"] = float64(fast) / float64(all)
	}

	tracks := make([]*track, 0, len(r.ts.tracks))
	for _, t := range r.ts.tracks {
		if t != r.reqTrack {
			tracks = append(tracks, t)
		}
	}
	self, total, _ := sumSpans(tracks, 0, math.MaxInt64)
	layerTimes(m, self, total, batches)
	var flops int64
	for _, l := range r.layers {
		flops += l.flops
	}
	m["tensor.flops_per_step"] = float64(flops) / batches
	m["tensor.matmul_gflops"] = pr.matmulGflops
	m["tensor.conv_train_gflops"] = pr.convTrainGflops
	m["tensor.conv_infer_gflops"] = pr.convInferGflops
	m["tensor.vec_gbps"] = pr.vecGbps
	m["tensor.par_eff"] = pr.parEff
	m["data.gen_s"] = r.genTime.Seconds()
}
