package fleet

import (
	"context"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// TestStormClosedLoop is the fleet's acceptance scenario at CI scale: a
// bursty diurnal storm against heterogeneous CM/ESB groups with the
// autoscaler live, a deliberately broken canary deployed mid-storm (and
// auto-rolled-back by the error-rate guardrail), a healthy canary
// deployed later (and auto-promoted, registry included), asserting
//
//   - zero dropped requests: client-side outcome conservation AND the
//     fleet's own accounting both sum to exactly the issued count, across
//     scale-ups, scale-downs, version swaps, and drains;
//   - SLO attainment >= 95% of successful responses within the p99 target;
//   - at least one cache hit, one scale-up, one scale-down, one drain;
//   - the storm ends serving the promoted version.
func TestStormClosedLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("storm scenario is seconds-long")
	}
	tracer := telemetry.NewTracer(1 << 12)
	f, reg := newTestFleet(t,
		Config{
			CacheSize: 64,
			Tracer:    tracer,
			Serve: serve.Config{
				MaxBatch: 4, BatchWindow: 200 * time.Microsecond,
				QueueCap: 32, DefaultDeadline: time.Second,
			},
		},
		GroupSpec{Name: "cm", Kind: "CM", Replicas: 1, MaxReplicas: 6,
			LatencyScore: 2e-3, PerSample: 600 * time.Microsecond},
		GroupSpec{Name: "esb", Kind: "ESB", Replicas: 1, MaxReplicas: 6,
			LatencyScore: 1e-3, PerSample: 300 * time.Microsecond},
	)
	// v3 is a broken build: classFactory returns an always-failing backend.
	if _, err := reg.Publish("m", []byte("fail"), nil); err != nil {
		t.Fatal(err)
	}

	scaler, err := f.NewAutoscaler("m", AutoscaleConfig{
		SLO:       SLO{P99: 100 * time.Millisecond},
		Interval:  20 * time.Millisecond,
		DownAfter: 2, Cooldown: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	scaler.Run()
	defer scaler.Stop()

	const (
		badPhase  = 2
		goodPhase = 6
	)
	rep := f.RunStorm(StormConfig{
		Model: "m",
		Shape: serve.ShapeConfig{
			BaseRate: 400, Amplitude: 0.8, Period: 16, Phases: 16,
			BurstProb: 0.3, BurstMean: 300, Seed: 42,
		},
		PhaseDur:   120 * time.Millisecond,
		Workers:    64,
		SLO:        SLO{P99: 100 * time.Millisecond},
		CacheEvery: 5,
		Sample:     func(phase, i int) *tensor.Tensor { return testSample(float64(phase), float64(i%97)) },
		OnPhase: func(p int) {
			switch p {
			case badPhase:
				if err := f.DeployCanary("m", 3,
					GroupSpec{Name: "canary-bad", Kind: "ESB", Replicas: 1},
					CanaryPolicy{WeightPct: 20, MaxErrorRate: 0.05, MinRequests: 20, PromoteAfter: 1 << 30},
				); err != nil {
					t.Errorf("bad canary deploy: %v", err)
				}
			case goodPhase:
				if err := f.DeployCanary("m", 2,
					GroupSpec{Name: "canary-good", Kind: "ESB", Replicas: 1, PerSample: 300 * time.Microsecond},
					CanaryPolicy{WeightPct: 30, MaxErrorRate: 0.05, MinRequests: 20, PromoteAfter: 150},
				); err != nil {
					t.Errorf("good canary deploy: %v", err)
				}
			}
		},
	})
	t.Logf("storm: %+v", rep)

	// --- Zero dropped: client-side conservation...
	if got := rep.OK + rep.Shed + rep.Expired + rep.Failed; got != rep.Sent {
		t.Fatalf("client outcomes %d != sent %d", got, rep.Sent)
	}
	// ...and the fleet's own accounting agrees exactly.
	st := f.Snapshot()
	if got := st.Served + st.Shed + st.Expired + st.Failed; got != rep.Sent {
		t.Fatalf("fleet outcome sum %d != sent %d (dropped in-flight requests): %+v", got, rep.Sent, st)
	}

	// --- The broken canary was caught by the guardrail, not by users at
	// large: its blast radius is bounded by WeightPct x MinRequests-ish.
	if st.Rollbacks != 1 {
		t.Fatalf("rollbacks = %d, want 1", st.Rollbacks)
	}
	if rep.Failed == 0 {
		t.Fatal("bad canary never took traffic (Failed == 0)")
	}
	if frac := float64(rep.Failed) / float64(rep.Sent); frac > 0.02 {
		t.Fatalf("bad canary leaked %.1f%% user-visible errors, want <= 2%%", frac*100)
	}

	// --- The healthy canary promoted and the fleet now serves v2.
	if st.Promotions != 1 {
		t.Fatalf("promotions = %d, want 1", st.Promotions)
	}
	crep := waitForState(t, f, "m", CanaryPromoted)
	if crep.Version != "m@v2" {
		t.Fatalf("promoted %s, want m@v2", crep.Version)
	}
	if s, _ := reg.Stable("m"); s.Version != 2 {
		t.Fatalf("registry stable v%d, want v2", s.Version)
	}
	if p, err := f.Predict(context.Background(), "m", testSample(1, 2)); err != nil || p.Class != 1 {
		t.Fatalf("post-storm predict: %+v, %v (want the promoted v2 build)", p, err)
	}

	// --- SLO attainment.
	if rep.SLOAttainment < 0.95 {
		t.Fatalf("SLO attainment %.3f < 0.95 (p99 %v)", rep.SLOAttainment, rep.P99)
	}

	// --- The cache, the autoscaler, and graceful drains all fired.
	if st.CacheHits < 1 {
		t.Fatalf("cache hits = %d, want >= 1", st.CacheHits)
	}
	var ups, downs, drains int64
	for _, g := range st.Groups["m"] {
		ups += g.ScaleUps
		downs += g.ScaleDowns
		drains += g.Drains
		if g.Replicas < 1 || g.Replicas > 6 {
			t.Fatalf("group %s ended at %d replicas, outside [1,6]", g.Name, g.Replicas)
		}
	}
	if ups == 0 {
		t.Fatalf("no scale-up during the storm: %+v", st.Groups["m"])
	}
	if downs == 0 {
		t.Fatalf("no scale-down during the storm: %+v", st.Groups["m"])
	}
	if drains == 0 {
		t.Fatalf("no retired server drained: %+v", st.Groups["m"])
	}

	// --- Control-plane events landed as fleet-track spans too.
	var fleetSpans int
	for _, s := range tracer.Spans() {
		if s.Cat == telemetry.CatFleet {
			fleetSpans++
		}
	}
	if fleetSpans == 0 {
		t.Fatal("no fleet spans recorded")
	}
}
