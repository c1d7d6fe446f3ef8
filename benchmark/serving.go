package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/fleet"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// serveSpec describes one serving workload: a model published through the
// registry and deployed on a fleet, driven by alternating closed-loop (A)
// and open-loop (B) rounds from one process.
type serveSpec struct {
	name   string
	groups []fleet.GroupSpec
	cfg    serve.Config
	// cacheSize > 0 sends requests through Fleet.PredictCached.
	cacheSize int
	// inputs is the size of the request population; hot > 0 draws hotFrac
	// of the requests from its first hot entries.
	inputs  int
	hot     int
	hotFrac float64
	callers int           // closed loop: concurrent callers
	rate    float64       // open loop: Poisson arrivals per second
	limit   time.Duration // latency limit of the open-loop rounds
	// jobReplies is the pinned closed-loop job: ttq_s is the time a round
	// takes to deliver this many correct replies.
	jobReplies int
	// warm is the number of warm-up requests sent during set-up.
	warm  int
	build func() *nn.Sequential
	gen   func(seed int64, n int) []*tensor.Tensor
}

const serveModelName = "bench"

func covidInputs(seed int64, n int) []*tensor.Tensor {
	ds := data.GenCXR(data.CXRConfig{Samples: n, Size: 32, Seed: seed})
	per := ds.X.Size() / n
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		xs[i] = tensor.FromSlice(ds.X.Data()[i*per:(i+1)*per], ds.X.Shape()[1:]...)
	}
	return xs
}

func vectorInputs(seed int64, n int) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		xs[i] = tensor.Randn(rng, 1, 64)
	}
	return xs
}

var serveSpecs = []*serveSpec{
	{name: "serve-model",
		groups: []fleet.GroupSpec{{Name: "esb", Kind: "ESB", Replicas: 2, LatencyScore: 1e-3}},
		cfg: serve.Config{MaxBatch: 8, BatchWindow: time.Millisecond, QueueCap: 64,
			DefaultDeadline: 250 * time.Millisecond},
		inputs: 512, callers: 16, rate: 200, limit: 100 * time.Millisecond, jobReplies: 600, warm: 400,
		build: func() *nn.Sequential {
			return nn.CovidNetMini(rand.New(rand.NewSource(modelSeed)), 32, data.CXRClasses)
		},
		gen: covidInputs},
	{name: "serve-cached",
		groups: []fleet.GroupSpec{
			{Name: "cm", Kind: "CM", Replicas: 2, LatencyScore: 2e-3},
			{Name: "esb", Kind: "ESB", Replicas: 2, LatencyScore: 1e-3}},
		cfg: serve.Config{MaxBatch: 8, BatchWindow: time.Millisecond, QueueCap: 64,
			DefaultDeadline: 250 * time.Millisecond},
		cacheSize: 256, inputs: 1024, hot: 128, hotFrac: 0.9,
		callers: 4, rate: 2000, limit: 5 * time.Millisecond, jobReplies: 25000, warm: 20000,
		build: func() *nn.Sequential {
			return nn.MLP(rand.New(rand.NewSource(modelSeed)), 64, 32, 4)
		},
		gen: vectorInputs},
}

// pick draws the next request's input index: uniform over the population,
// or mostly from the hot set when the workload has one.
func (s *serveSpec) pick(rng *rand.Rand, n int) int {
	if s.hot > 0 && s.hot < n {
		if rng.Float64() < s.hotFrac {
			return rng.Intn(s.hot)
		}
		return s.hot + rng.Intn(n-s.hot)
	}
	return rng.Intn(n)
}

// arrival is one open-loop request: when it is due (from the round's
// start) and which input it carries.
type arrival struct {
	due   time.Duration
	input int
}

// schedule generates the Poisson arrival schedule of one open-loop round
// from the seed alone.
func (s *serveSpec) schedule(seed int64, round int, dur time.Duration, n int) []arrival {
	rng := rand.New(rand.NewSource(seed*7919 + int64(round)*104729 + 1))
	var out []arrival
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / s.rate * float64(time.Second))
		if t >= dur {
			return out
		}
		out = append(out, arrival{due: t, input: s.pick(rng, n)})
	}
}

// reqRec is one finished request.
type reqRec struct {
	done    time.Duration // completion, from the round's start
	latency time.Duration // closed loop: from send; open loop: from due
	ok      bool          // served and equal to the direct forward
}

type roundRec struct {
	open    bool
	wall    time.Duration
	reqs    []reqRec
	maxLate time.Duration
	busy    time.Duration // backend busy time inside the round (traced)
}

// serveRun is one deployed fleet plus what the rounds recorded.
type serveRun struct {
	spec     *serveSpec
	fl       *fleet.Fleet
	reg      *fleet.Registry
	blob     []byte
	dir      string
	inputs   []*tensor.Tensor
	expect   [][]float64
	setup    time.Duration
	genTime  time.Duration
	rounds   []roundRec
	bstats   *backendStats
	mu       sync.Mutex     // guards layers: replicas may be built concurrently
	layers   []*tracedLayer // every replica's wrapped layers (traced run)
	ts       *traceSet
	reqTrack *track
}

// factory restores the published checkpoint into a fresh model per replica;
// in the traced run the model's layers and the backend are wrapped.
func (r *serveRun) factory(_ string, blob []byte) (serve.Backend, error) {
	if r.ts == nil {
		return r.factoryBare(blob)
	}
	m := r.spec.build()
	if err := nn.LoadModel(m, blob); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	tr := r.ts.track("%s/replica%d", r.spec.name, len(r.ts.tracks))
	r.layers = append(r.layers, wrapModel(m, tr)...)
	return &tracedBackend{inner: serve.NewModelBackend(m, nn.ActSoftmax), tr: tr, st: r.bstats}, nil
}

// setUp generates the inputs, publishes and deploys the model, and warms
// the fleet with closed-loop requests.
func (s *serveSpec) setUp(seed int64, smoke bool, ts *traceSet, outDir string) (*serveRun, error) {
	start := time.Now()
	r := &serveRun{spec: s, ts: ts, bstats: &backendStats{}}
	n := s.inputs
	if smoke {
		n = min(n, 64)
	}
	r.inputs = s.gen(seed, n)
	r.genTime = time.Since(start)
	blob, err := nn.SaveModel(s.build())
	if err != nil {
		return nil, err
	}
	r.blob = blob
	r.dir = filepath.Join(outDir, fmt.Sprintf("store-%s-%d", s.name, os.Getpid()))
	store, err := storage.NewModelStore(r.dir)
	if err != nil {
		return nil, err
	}
	if r.reg, err = fleet.NewRegistry(store); err != nil {
		return nil, err
	}
	if _, err = r.reg.Publish(serveModelName, blob, map[string]string{"workload": s.name}); err != nil {
		return nil, err
	}
	r.fl, err = fleet.New(fleet.Config{Registry: r.reg, BackendFactory: r.factory,
		Groups: s.groups, Serve: s.cfg, CacheSize: s.cacheSize})
	if err != nil {
		return nil, err
	}
	if err = r.fl.Deploy(serveModelName); err != nil {
		r.close()
		return nil, err
	}
	warm := s.warm
	if smoke {
		warm = 20
	}
	rng := rand.New(rand.NewSource(seed + 17))
	var wg sync.WaitGroup
	for c := 0; c < s.callers; c++ {
		idx := make([]int, warm/s.callers+1)
		for i := range idx {
			idx[i] = s.pick(rng, n)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range idx {
				_, _ = r.predict(i) // warm-up replies are not scored
			}
		}()
	}
	wg.Wait()
	r.setup = time.Since(start)
	return r, nil
}

func (r *serveRun) close() {
	if r.fl != nil {
		r.fl.Close()
	}
	os.RemoveAll(r.dir)
}

func (r *serveRun) predict(i int) (serve.Prediction, error) {
	if r.spec.cacheSize > 0 {
		return r.fl.PredictCached(context.Background(), serveModelName, r.inputs[i])
	}
	return r.fl.Predict(context.Background(), serveModelName, r.inputs[i])
}

// computeExpected runs every input through a direct model.Forward, one
// sample at a time, outside the serving stack: the reference each reply is
// checked against.
func (r *serveRun) computeExpected() error {
	m := r.spec.build()
	if err := nn.LoadModel(m, r.blob); err != nil {
		return err
	}
	r.expect = make([][]float64, len(r.inputs))
	for i, x := range r.inputs {
		batch := x.Reshape(append([]int{1}, x.Shape()...)...)
		probs := nn.Activate(nil, m.Forward(batch, false), nn.ActSoftmax)
		r.expect[i] = append([]float64(nil), probs.Data()...)
	}
	return nil
}

// check reports whether a served reply equals the direct forward: same
// argmax, probabilities within 1e-9 (batch composition may reorder sums).
func (r *serveRun) check(i int, p serve.Prediction, err error) bool {
	if err != nil || len(p.Probs) != len(r.expect[i]) {
		return false
	}
	best := 0
	for k, v := range r.expect[i] {
		if math.Abs(v-p.Probs[k]) > 1e-9 {
			return false
		}
		if v > r.expect[i][best] {
			best = k
		}
	}
	return p.Class == best
}

// closedRound runs the A round: callers each send their next request when
// the previous one resolves, until dur has passed.
func (r *serveRun) closedRound(seed int64, round int, dur time.Duration) roundRec {
	s := r.spec
	per := make([][]reqRec, s.callers)
	busy0 := r.busy()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < s.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*31 + int64(round)*1009 + int64(c)))
			for time.Since(start) < dur {
				i := s.pick(rng, len(r.inputs))
				t0 := time.Now()
				p, err := r.predict(i)
				t1 := time.Now()
				per[c] = append(per[c], reqRec{done: t1.Sub(start), latency: t1.Sub(t0), ok: r.check(i, p, err)})
				r.reqTrack.add("request.closed", t0, t1, int64(i))
			}
		}(c)
	}
	wg.Wait()
	rec := roundRec{wall: time.Since(start), busy: r.busy() - busy0}
	for _, p := range per {
		rec.reqs = append(rec.reqs, p...)
	}
	return rec
}

// openRound runs the B round: one dispatcher walks the arrival schedule
// and parks one goroutine per in-flight request; latency counts from the
// instant a request was due, so a late dispatcher cannot hide queueing.
func (r *serveRun) openRound(seed int64, round int, dur time.Duration) roundRec {
	sched := r.spec.schedule(seed, round, dur, len(r.inputs))
	recs := make([]reqRec, len(sched))
	var maxLate time.Duration
	busy0 := r.busy()
	start := time.Now()
	var wg sync.WaitGroup
	for k, a := range sched {
		for {
			wait := a.due - time.Since(start)
			if wait <= 0 {
				break
			}
			if wait > 200*time.Microsecond {
				time.Sleep(wait - 100*time.Microsecond)
			} else {
				runtime.Gosched()
			}
		}
		if late := time.Since(start) - a.due; late > maxLate {
			maxLate = late
		}
		wg.Add(1)
		go func(k int, a arrival) {
			defer wg.Done()
			p, err := r.predict(a.input)
			end := time.Now()
			recs[k] = reqRec{done: end.Sub(start), latency: end.Sub(start) - a.due, ok: r.check(a.input, p, err)}
			r.reqTrack.add("request.open", start.Add(a.due), end, int64(a.input))
		}(k, a)
	}
	wg.Wait()
	return roundRec{open: true, wall: time.Since(start), reqs: recs, maxLate: maxLate, busy: r.busy() - busy0}
}

func (r *serveRun) busy() time.Duration {
	r.bstats.mu.Lock()
	defer r.bstats.mu.Unlock()
	return r.bstats.busy
}

// measure alternates A and B rounds for about seconds in total.
func (r *serveRun) measure(seed int64, seconds float64) {
	pairs := 8
	if seconds < 2 {
		pairs = 1
	}
	dur := time.Duration(seconds / float64(2*pairs) * float64(time.Second))
	for p := 0; p < pairs; p++ {
		r.rounds = append(r.rounds, r.closedRound(seed, 2*p, dur))
		r.rounds = append(r.rounds, r.openRound(seed, 2*p+1, dur))
	}
}

// probes takes the serving measurements that need their own small
// experiment, after the rounds of the traced run.
func (r *serveRun) probes(res *result, smoke bool) {
	m := res.metrics
	n := 100
	if smoke {
		n = 10
	}
	ctx := context.Background()

	// Registry read + restore into a fresh model: what every replica
	// start pays.
	t0 := time.Now()
	if e, err := r.reg.Stable(serveModelName); err == nil {
		if blob, err := r.reg.Blob(e); err == nil {
			err = nn.LoadModel(r.spec.build(), blob)
			res.op(err == nil, "restoring the published checkpoint: %v", err)
		}
	}
	m["storage.load_ms"] = ms(time.Since(t0))

	// Hit path: the second of two identical cached requests must be a hit
	// (the fleet's own counter says so) and must equal the first reply.
	if r.spec.cacheSize > 0 {
		var hits []float64
		for i := 0; i < n; i++ {
			k := i % len(r.inputs)
			first, err1 := r.fl.PredictCached(ctx, serveModelName, r.inputs[k])
			before := r.fl.Snapshot().CacheHits
			t0 := time.Now()
			second, err2 := r.fl.PredictCached(ctx, serveModelName, r.inputs[k])
			d := time.Since(t0)
			if r.fl.Snapshot().CacheHits == before+1 {
				hits = append(hits, float64(d.Nanoseconds())/1e3)
			}
			same := err1 == nil && err2 == nil && first.Class == second.Class && len(first.Probs) == len(second.Probs)
			for j := 0; same && j < len(first.Probs); j++ {
				same = first.Probs[j] == second.Probs[j]
			}
			res.op(same, "cache-hit reply differs from the miss reply for input %d", k)
		}
		m["fleet.hit_path_us_p50"] = median(hits)
	}

	// Fleet overhead: sequential requests through the fleet against the
	// same through a stand-alone server with the same configuration.
	backend, err := r.factoryBare(r.blob)
	if err != nil {
		res.op(false, "building the stand-alone server: %v", err)
		return
	}
	srv := serve.New([]serve.Backend{backend}, r.spec.cfg)
	defer srv.Close()
	var viaFleet, direct []float64
	for i := 0; i < n; i++ {
		x := r.inputs[i%len(r.inputs)]
		t0 := time.Now()
		_, err1 := r.fl.Predict(ctx, serveModelName, x)
		t1 := time.Now()
		_, err2 := srv.Predict(ctx, x)
		t2 := time.Now()
		if err1 == nil && err2 == nil {
			viaFleet = append(viaFleet, float64(t1.Sub(t0).Nanoseconds())/1e3)
			direct = append(direct, float64(t2.Sub(t1).Nanoseconds())/1e3)
		}
	}
	m["fleet.overhead_us"] = median(viaFleet) - median(direct)
}

// factoryBare builds an unwrapped backend from a checkpoint blob.
func (r *serveRun) factoryBare(blob []byte) (serve.Backend, error) {
	m := r.spec.build()
	if err := nn.LoadModel(m, blob); err != nil {
		return nil, err
	}
	return serve.NewModelBackend(m, nn.ActSoftmax), nil
}
