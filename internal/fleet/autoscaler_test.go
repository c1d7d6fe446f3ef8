package fleet

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

// replicasOf reads the current replica count of the deployment's only
// group.
func replicasOf(t *testing.T, f *Fleet) int {
	t.Helper()
	d, err := f.deployment("m")
	if err != nil {
		t.Fatal(err)
	}
	return int(d.groups[0].replicas.Load())
}

// TestAutoscalerScalesUpOnQueuePressure drives sustained traffic into an
// undersized group and checks the queue-occupancy signal doubles the
// replica count (multiplicative scale-up, bounded by MaxReplicas).
func TestAutoscalerScalesUpOnQueuePressure(t *testing.T) {
	f, _ := newTestFleet(t,
		Config{Serve: serve.Config{MaxBatch: 1, QueueCap: 16, BatchWindow: 100 * time.Microsecond}},
		GroupSpec{Name: "cm", Kind: "CM", Replicas: 1, MaxReplicas: 8,
			PerSample: 2 * time.Millisecond})
	a, err := f.NewAutoscaler("m", AutoscaleConfig{
		Cooldown: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = f.Predict(context.Background(), "m", testSample(float64(w), float64(i)))
			}
		}(w)
	}
	deadline := time.Now().Add(5 * time.Second)
	for replicasOf(t, f) < 2 && time.Now().Before(deadline) {
		a.Tick()
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if got := replicasOf(t, f); got < 2 {
		t.Fatalf("replicas = %d after sustained queue pressure, want >= 2", got)
	}
	evs := a.Events()
	if len(evs) == 0 || evs[0].To <= evs[0].From {
		t.Fatalf("no scale-up event recorded: %v", evs)
	}
	if evs[0].Reason == "" {
		t.Fatalf("scale event has no reason: %+v", evs[0])
	}
}

// TestAutoscalerScalesDownWhenIdle parks an overprovisioned group with no
// traffic and checks the slow additive scale-down path: DownAfter
// underloaded ticks per step, never below minReplicas.
func TestAutoscalerScalesDownWhenIdle(t *testing.T) {
	f, _ := newTestFleet(t, Config{},
		GroupSpec{Name: "cm", Kind: "CM", Replicas: 4, MaxReplicas: 8})
	a, err := f.NewAutoscaler("m", AutoscaleConfig{
		SLO: SLO{P99: 50 * time.Millisecond}, DownAfter: 3, Cooldown: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Tick 1 seeds the snapshot diff; then DownAfter idle ticks per step
	// plus Cooldown after each action.
	var downs int
	for i := 0; i < 40; i++ {
		for _, ev := range a.Tick() {
			if ev.To < ev.From {
				downs++
			} else {
				t.Fatalf("idle group scaled up: %+v", ev)
			}
		}
	}
	if got := replicasOf(t, f); got != 1 {
		t.Fatalf("replicas = %d after 40 idle ticks, want minReplicas=%d", got, minReplicas)
	}
	if downs != 3 {
		t.Fatalf("scale-downs = %d, want 3 (4 -> 1 additively)", downs)
	}
	// Further idle ticks must not go below the floor.
	for i := 0; i < 10; i++ {
		a.Tick()
	}
	if got := replicasOf(t, f); got != 1 {
		t.Fatalf("replicas = %d, scaled below minReplicas", got)
	}
}

// TestAutoscalerHysteresis checks one burst tick does not flap the group:
// after a scale-up the cooldown swallows the immediately following
// underload ticks, and DownAfter delays the eventual scale-down.
func TestAutoscalerHysteresis(t *testing.T) {
	f, _ := newTestFleet(t, Config{Serve: serve.Config{MaxBatch: 1, QueueCap: 8, BatchWindow: 100 * time.Microsecond}},
		GroupSpec{Name: "cm", Kind: "CM", Replicas: 1, MaxReplicas: 4,
			PerSample: 2 * time.Millisecond})
	a, err := f.NewAutoscaler("m", AutoscaleConfig{
		DownAfter: 4, Cooldown: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Build queue pressure, then tick once: scale-up.
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _ = f.Predict(context.Background(), "m", testSample(float64(i)))
		}(i)
	}
	time.Sleep(2 * time.Millisecond) // let the queue fill
	evs := a.Tick()
	wg.Wait()
	if len(evs) != 1 || evs[0].To <= evs[0].From {
		t.Fatalf("expected one scale-up, got %v", evs)
	}
	// The burst is gone. Cooldown (2) + DownAfter (4) means the next five
	// idle ticks must take no action.
	for i := 0; i < 5; i++ {
		if evs := a.Tick(); len(evs) != 0 {
			t.Fatalf("idle tick %d acted during hysteresis window: %v", i, evs)
		}
	}
	// Eventually it does come back down.
	var down bool
	for i := 0; i < 20 && !down; i++ {
		for _, ev := range a.Tick() {
			if ev.To < ev.From {
				down = true
			}
		}
	}
	if !down {
		t.Fatal("never scaled back down after the burst")
	}
}

// TestAutoscalerRunStop exercises the background ticker loop.
func TestAutoscalerRunStop(t *testing.T) {
	f, _ := newTestFleet(t, Config{},
		GroupSpec{Name: "cm", Kind: "CM", Replicas: 2, MaxReplicas: 4})
	a, err := f.NewAutoscaler("m", AutoscaleConfig{
		SLO: SLO{P99: 50 * time.Millisecond}, Interval: time.Millisecond, DownAfter: 2, Cooldown: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Run()
	a.Run() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for replicasOf(t, f) > 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	a.Stop()
	a.Stop() // idempotent
	if got := replicasOf(t, f); got != 1 {
		t.Fatalf("background loop left replicas = %d, want 1", got)
	}
}
