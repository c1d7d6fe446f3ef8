package fleet

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// waitForState polls until the canary reaches a terminal state (drains
// finish asynchronously after the CAS transition).
func waitForState(t *testing.T, f *Fleet, model string, want CanaryState) CanaryReport {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		rep, err := f.CanaryReport(model)
		if err == nil && rep.State == want {
			return rep
		}
		if time.Now().After(deadline) {
			t.Fatalf("canary never reached %v (last: %+v, err %v)", want, rep, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCanaryRollbackOnErrorRate deploys a canary whose build is broken;
// the error-rate guardrail must roll it back automatically, stable must
// keep serving v1, and the registry must be untouched.
func TestCanaryRollbackOnErrorRate(t *testing.T) {
	f, reg := newTestFleet(t, Config{})
	err := f.DeployCanary("m", 2,
		GroupSpec{Name: "canary", Kind: "ESB", Replicas: 1,
			Backend: func([]byte) (serve.Backend, error) { return &classBackend{fail: true}, nil }},
		CanaryPolicy{WeightPct: 50, MaxErrorRate: 0.05, MinRequests: 20, PromoteAfter: 10000})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		p, err := f.Predict(context.Background(), "m", testSample(float64(i)))
		if err == nil && p.Class != 0 {
			t.Fatalf("user saw canary class %d", p.Class)
		}
	}
	rep := waitForState(t, f, "m", CanaryRolledBack)
	if !strings.HasPrefix(rep.Reason, "error-rate ") {
		t.Fatalf("rolled back without an error-rate breach: %+v", rep)
	}
	if s, _ := reg.Stable("m"); s.Version != 1 {
		t.Fatalf("registry stable moved to v%d on a rolled-back canary", s.Version)
	}
	if f.Snapshot().Rollbacks != 1 {
		t.Fatalf("rollbacks = %d, want 1", f.Snapshot().Rollbacks)
	}
	// Stable traffic unaffected after the rollback.
	if p, err := f.Predict(context.Background(), "m", testSample(1)); err != nil || p.Class != 0 {
		t.Fatalf("stable broken after rollback: %+v, %v", p, err)
	}
}

// TestCanaryPromote runs a healthy canary through PromoteAfter requests:
// the registry stable pointer must move, every stable group must roll to
// the new version, and subsequent traffic must be served by v2.
func TestCanaryPromote(t *testing.T) {
	f, reg := newTestFleet(t, Config{})
	err := f.DeployCanary("m", 2,
		GroupSpec{Name: "canary", Kind: "ESB", Replicas: 1},
		CanaryPolicy{WeightPct: 50, MinRequests: 10, PromoteAfter: 40})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := f.Predict(context.Background(), "m", testSample(float64(i))); err != nil {
			t.Fatal(err)
		}
		if rep, err := f.CanaryReport("m"); err == nil && rep.State != CanaryRunning {
			break
		}
	}
	rep := waitForState(t, f, "m", CanaryPromoted)
	if rep.Requests < 40 {
		t.Fatalf("promoted after only %d requests", rep.Requests)
	}
	if s, _ := reg.Stable("m"); s.Version != 2 {
		t.Fatalf("registry stable = v%d, want v2", s.Version)
	}
	if e, _ := f.StableVersion("m"); e.Version != 2 {
		t.Fatalf("fleet stable = v%d, want v2", e.Version)
	}
	// All post-promote traffic must come from the v2 build (class 1).
	for i := 0; i < 20; i++ {
		p, err := f.Predict(context.Background(), "m", testSample(float64(i)))
		if err != nil || p.Class != 1 {
			t.Fatalf("post-promote predict: %+v, %v", p, err)
		}
	}
	if f.Snapshot().Promotions != 1 {
		t.Fatalf("promotions = %d, want 1", f.Snapshot().Promotions)
	}
}

func TestCanaryDoubleDeployRejected(t *testing.T) {
	f, _ := newTestFleet(t, Config{})
	spec := GroupSpec{Name: "canary", Replicas: 1}
	pol := CanaryPolicy{PromoteAfter: 10000}
	if err := f.DeployCanary("m", 2, spec, pol); err != nil {
		t.Fatal(err)
	}
	if err := f.DeployCanary("m", 2, spec, pol); err == nil {
		t.Fatal("second concurrent canary accepted")
	}
}

func TestEventLogRecordsLifecycle(t *testing.T) {
	f, _ := newTestFleet(t, Config{})
	if err := f.DeployCanary("m", 2, GroupSpec{Name: "c", Replicas: 1},
		CanaryPolicy{WeightPct: 100, MinRequests: 5, PromoteAfter: 10}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		_, _ = f.Predict(context.Background(), "m", testSample(float64(i)))
		if rep, err := f.CanaryReport("m"); err == nil && rep.State == CanaryPromoted {
			break
		}
	}
	waitForState(t, f, "m", CanaryPromoted)
	kinds := map[string]bool{}
	for _, ev := range f.Events() {
		kinds[ev.Kind] = true
	}
	for _, want := range []string{"deploy", "canary-start", "canary-promote"} {
		if !kinds[want] {
			t.Fatalf("event log missing %q: %v", want, kinds)
		}
	}
}
