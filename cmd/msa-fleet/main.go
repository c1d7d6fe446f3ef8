// Command msa-fleet runs the multi-model serving fleet through its
// closed-loop storm scenario: versioned checkpoints are published to a
// fleet.Registry, deployed across heterogeneous CM/ESB/DAM replica groups
// (sized and latency-scored by serve.DerivePlan over the DEEP modules),
// and stormed with bursty diurnal traffic while the control plane earns
// its keep live — a deliberately broken canary build is deployed
// mid-storm and auto-rolled-back by the error-rate guardrail, a healthy
// canary is deployed later and auto-promoted (registry included), and the
// SLO-driven autoscaler resizes the groups through the peaks and troughs
// with graceful drains throughout.
//
// The run ends with the storm report: throughput, latency quantiles, SLO
// attainment, outcome conservation (zero dropped in-flight requests),
// cache hit rate, canary verdicts, and every scale event.
//
// Usage:
//
//	msa-fleet                          # ~1M-request storm at default pacing
//	msa-fleet -requests 100000        # shorter storm, same scenario
//	msa-fleet -serve :9090            # live /metrics /trace during the storm
//	msa-fleet -report storm.json      # machine-readable report artifact
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/data"
	"repro/internal/distdl"
	"repro/internal/fleet"
	"repro/internal/msa"
	"repro/internal/nn"
	"repro/internal/perfmodel"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

const modelName = "bigearthnet-mlp"

func main() {
	ckptDir := flag.String("checkpoint", "", "model store directory (empty = fresh temp dir)")
	samples := flag.Int("samples", 64, "synthetic dataset size for the version warm-up training runs")
	requests := flag.Int("requests", 1_000_000, "approximate total storm arrivals (split across phases)")
	phases := flag.Int("phases", 32, "storm phases (one diurnal cycle)")
	phaseDur := flag.Duration("phase-dur", 250*time.Millisecond, "pacing per phase (a phase whose arrivals outrun the fleet extends)")
	workers := flag.Int("workers", 256, "concurrent storm senders")
	sloP99 := flag.Duration("slo", 50*time.Millisecond, "p99 latency objective the autoscaler defends and attainment is measured against")
	speedup := flag.Float64("speedup", 50, "modeled module service times are divided by this so the storm runs at laptop wall-clock; group ratios are unaffected")
	cacheSize := flag.Int("cache", 4096, "idempotent-result cache entries (0 disables)")
	seed := flag.Int64("seed", 42, "global seed (traffic shape, training)")
	serveAddr := flag.String("serve", "", "serve the live observability endpoint (/metrics /trace /healthz) at host:port during the storm")
	reportPath := flag.String("report", "", "write the machine-readable storm report JSON here")
	flag.Parse()
	if *speedup <= 0 {
		fatal(errors.New("-speedup must be > 0"))
	}

	// --- 1. Publish two real model versions (v1: briefly trained, v2:
	// trained longer) into the registry's model store.
	dir := *ckptDir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "msa-fleet-ckpt"); err != nil {
			fatal(err)
		}
	}
	store, err := storage.NewModelStore(dir)
	if err != nil {
		fatal(err)
	}
	reg, err := fleet.NewRegistry(store)
	if err != nil {
		fatal(err)
	}

	ds := data.GenMultispectral(data.MultispectralConfig{Samples: *samples, Seed: *seed, Size: 8})
	features := ds.X.Size() / ds.X.Dim(0)
	factory := func() *nn.Sequential {
		rng := rand.New(rand.NewSource(*seed))
		return nn.NewSequential(
			&nn.Flatten{},
			nn.NewDense(rng, "fc1", features, 32),
			&nn.ReLU{},
			nn.NewDense(rng, "fc2", 32, ds.Classes),
		)
	}

	publish := func(epochs int, note string) fleet.Entry {
		m := factory()
		trainQuick(m, ds, epochs, *seed)
		blob, err := nn.SaveModel(m)
		if err != nil {
			fatal(err)
		}
		e, err := reg.Publish(modelName, blob, map[string]string{"epochs": fmt.Sprint(epochs), "note": note})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("published %s (%s, %d epochs, %d bytes)\n", e.Ref(), note, epochs, len(blob))
		return e
	}
	publish(1, "baseline")
	v2 := publish(4, "improved")
	v3 := publish(4, "bad-build") // same weights; the deploy injects a broken runtime

	// --- 2. Replica groups from the DEEP modules: serve.DerivePlan maps
	// the per-sample workload onto each module's silicon; its PerSample is
	// both the modeled service time and the router's latency score.
	w := perfmodel.InferenceWorkload("mlp-fwd", 3.9e9, 5e7)
	sys := msa.DEEP()
	var groups []fleet.GroupSpec
	fmt.Printf("\nreplica groups (modeled times ÷%g):\n", *speedup)
	for _, kind := range []msa.ModuleKind{msa.ClusterModule, msa.BoosterModule, msa.DataAnalytics} {
		m := sys.Module(kind)
		plan := serve.DerivePlan(w, m, 8).Scaled(*speedup)
		spec := fleet.GroupSpec{
			Name: m.Name, Kind: string(m.Kind),
			Replicas: 2, MaxReplicas: plan.Replicas,
			LatencyScore: plan.PerSample.Seconds(),
			Overhead:     plan.Overhead, PerSample: plan.PerSample,
		}
		groups = append(groups, spec)
		fmt.Printf("  %-8s [%s] 1..%d replicas, %s/sample + %s/batch\n",
			spec.Name, spec.Kind, spec.MaxReplicas,
			spec.PerSample.Round(time.Microsecond), spec.Overhead.Round(time.Microsecond))
	}

	tracer := telemetry.NewTracer(1 << 14)
	f, err := fleet.New(fleet.Config{
		Registry: reg,
		BackendFactory: func(_ string, blob []byte) (serve.Backend, error) {
			m := factory()
			if err := nn.LoadModel(m, blob); err != nil {
				return nil, err
			}
			return serve.NewModelBackend(m, nn.ActSigmoid), nil
		},
		Groups: groups,
		Serve: serve.Config{
			MaxBatch: 16, BatchWindow: 500 * time.Microsecond,
			QueueCap: 64, DefaultDeadline: 2 * time.Second,
		},
		CacheSize: *cacheSize,
		Tracer:    tracer,
	})
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := f.Deploy(modelName); err != nil {
		fatal(err)
	}

	if *serveAddr != "" {
		obsReg := telemetry.NewRegistry()
		telemetry.RegisterMemMetrics(obsReg)
		f.RegisterMetrics(obsReg)
		obs, err := telemetry.Serve(*serveAddr, telemetry.ServeConfig{Registry: obsReg, Tracer: tracer})
		if err != nil {
			fatal(err)
		}
		defer obs.Close()
		fmt.Printf("\nobservability endpoint at http://%s\n", obs.Addr)
	}

	// --- 3. Autoscaler: queue depth leads, rolling p99 confirms.
	scaler, err := f.NewAutoscaler(modelName, fleet.AutoscaleConfig{
		SLO:       fleet.SLO{P99: *sloP99},
		Interval:  25 * time.Millisecond,
		DownAfter: 4, Cooldown: 2,
	})
	if err != nil {
		fatal(err)
	}
	scaler.Run()
	defer scaler.Stop()

	// --- 4. The storm: one diurnal cycle with flash-crowd bursts; the bad
	// canary lands on the morning ramp, the good one after the peak.
	badPhase := *phases / 5
	goodPhase := *phases / 2
	// Promotion threshold scales with the run so short validation runs and
	// the full-size storm both reach a verdict before the traffic ends: the
	// canary sees roughly WeightPct% of the post-goodPhase half of traffic.
	promoteAfter := int64(*requests / 40)
	if promoteAfter < 200 {
		promoteAfter = 200
	}
	shape := serve.ShapeConfig{
		BaseRate:  float64(*requests) / float64(*phases),
		Amplitude: 0.8, Period: *phases, Phases: *phases,
		BurstProb: 0.25, BurstMean: 0.5 * float64(*requests) / float64(*phases),
		Seed: *seed,
	}
	fmt.Printf("\nstorm: ~%d requests over %d phases of %s, SLO p99 %s, canaries at phases %d (bad) and %d (good)\n",
		*requests, *phases, *phaseDur, *sloP99, badPhase, goodPhase)

	canarySpec := fleet.GroupSpec{
		Name: "canary", Kind: "ESB", Replicas: 2, MaxReplicas: 4,
		Overhead: groups[1].Overhead, PerSample: groups[1].PerSample,
	}
	start := time.Now()
	rep := f.RunStorm(fleet.StormConfig{
		Model:      modelName,
		Shape:      shape,
		PhaseDur:   *phaseDur,
		Workers:    *workers,
		SLO:        fleet.SLO{P99: *sloP99},
		CacheEvery: 10,
		Sample: func(phase, i int) *tensor.Tensor {
			return sampleRow(ds.X, (phase+i*7)%ds.X.Dim(0))
		},
		OnPhase: func(p int) {
			switch p {
			case badPhase:
				bad := canarySpec
				bad.Backend = func([]byte) (serve.Backend, error) { return brokenBackend{}, nil }
				if err := f.DeployCanary(modelName, v3.Version, bad, fleet.CanaryPolicy{
					WeightPct: 10, MaxErrorRate: 0.05, MinRequests: 50, PromoteAfter: 1 << 30,
				}); err != nil {
					fmt.Printf("phase %d: bad canary deploy: %v\n", p, err)
					return
				}
				fmt.Printf("phase %2d: deployed BAD canary %s (broken runtime)\n", p, v3.Ref())
			case goodPhase:
				if err := f.DeployCanary(modelName, v2.Version, canarySpec, fleet.CanaryPolicy{
					WeightPct: 20, MaxErrorRate: 0.05, MaxP99: 4 * *sloP99, MinRequests: 50, PromoteAfter: promoteAfter,
				}); err != nil {
					fmt.Printf("phase %d: good canary deploy: %v\n", p, err)
					return
				}
				fmt.Printf("phase %2d: deployed good canary %s\n", p, v2.Ref())
			}
		},
	})

	// --- 5. The verdicts.
	fmt.Printf("\nstorm finished in %s\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("  sent %d: %d ok, %d shed, %d expired, %d failed (conservation: %v)\n",
		rep.Sent, rep.OK, rep.Shed, rep.Expired, rep.Failed,
		rep.OK+rep.Shed+rep.Expired+rep.Failed == rep.Sent)
	fmt.Printf("  throughput %.0f req/s, p50 %s p95 %s p99 %s, SLO attainment %.2f%%\n",
		rep.Throughput, rep.P50.Round(time.Microsecond), rep.P95.Round(time.Microsecond),
		rep.P99.Round(time.Microsecond), 100*rep.SLOAttainment)

	st := f.Snapshot()
	if sum := st.Served + st.Shed + st.Expired + st.Failed; sum != rep.Sent {
		fmt.Printf("  WARNING: fleet accounting %d != sent %d — dropped in-flight requests!\n", sum, rep.Sent)
	} else {
		fmt.Printf("  fleet accounting matches exactly: zero dropped in-flight requests\n")
	}
	if hits := st.CacheHits + st.CacheMiss; hits > 0 {
		fmt.Printf("  cache: %d hits / %d lookups (%.1f%%)\n", st.CacheHits, hits, 100*float64(st.CacheHits)/float64(hits))
	}
	if crep, err := f.CanaryReport(modelName); err == nil {
		fmt.Printf("  last canary: %s %s after %d requests (%s)\n", crep.Version, crep.State, crep.Requests, crep.Reason)
	}
	if e, err := f.StableVersion(modelName); err == nil {
		fmt.Printf("  serving version: %s (registry stable v%d)\n", e.Ref(), mustStable(reg).Version)
	}
	fmt.Print(st)

	evs := scaler.Events()
	fmt.Printf("\nautoscaler actions (%d):\n", len(evs))
	for _, ev := range evs {
		fmt.Printf("  %-8s %d -> %d  (%s)\n", ev.Group, ev.From, ev.To, ev.Reason)
	}
	fmt.Println("\ncontrol-plane events:")
	for _, ev := range f.Events() {
		fmt.Printf("  %s %-16s %s\n", ev.Time.Format("15:04:05.000"), ev.Kind, ev.Detail)
	}

	if *reportPath != "" {
		out := struct {
			Storm       fleet.StormReport  `json:"storm"`
			Stats       fleet.Stats        `json:"stats"`
			ScaleOps    []fleet.ScaleEvent `json:"scale_events"`
			SLO         time.Duration      `json:"slo_p99_ns"`
			Version     string             `json:"serving_version"`
			WallNs      time.Duration      `json:"wall_ns"`
			ZeroDropped bool               `json:"zero_dropped"`
		}{rep, st, evs, *sloP99, mustStable(reg).Ref(), time.Since(start),
			st.Served+st.Shed+st.Expired+st.Failed == rep.Sent}
		blob, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*reportPath, blob, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("\nreport written to %s\n", *reportPath)
	}
}

// brokenBackend simulates a bad canary build: every inference fails.
type brokenBackend struct{}

func (brokenBackend) Infer(*tensor.Tensor) (*tensor.Tensor, error) {
	return nil, errors.New("bad build: model runtime crashed")
}

func mustStable(reg *fleet.Registry) fleet.Entry {
	e, err := reg.Stable(modelName)
	if err != nil {
		fatal(err)
	}
	return e
}

// trainQuick runs a few epochs of single-process SGD — enough to make the
// published versions non-trivial and distinct; accuracy is not the point.
func trainQuick(model *nn.Sequential, ds *data.Multispectral, epochs int, seed int64) {
	rng := rand.New(rand.NewSource(seed + 1))
	loss := nn.BCEWithLogits{}
	opt := nn.NewSGD(0.9, 1e-4)
	n := ds.X.Dim(0)
	const batch = 8
	for e := 0; e < epochs; e++ {
		perm := rng.Perm(n)
		for b := 0; b+batch <= n; b += batch {
			bx, by := distdl.GatherBatch(ds.X, ds.Y, perm[b:b+batch])
			model.ZeroGrads()
			out := model.Forward(bx, true)
			_, grad := loss.Forward(out, by)
			model.Backward(grad)
			opt.Step(model.Params(), 0.02)
		}
	}
}

// sampleRow extracts row i of a (N, dims...) tensor as a (dims...) sample.
func sampleRow(xs *tensor.Tensor, i int) *tensor.Tensor {
	shape := xs.Shape()
	rowLen := xs.Size() / shape[0]
	out := tensor.New(shape[1:]...)
	copy(out.Data(), xs.Data()[i*rowLen:(i+1)*rowLen])
	return out
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "msa-fleet: %v\n", err)
	os.Exit(1)
}
