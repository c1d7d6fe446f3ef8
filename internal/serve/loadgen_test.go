package serve

import (
	"math"
	"testing"
)

// TestArrivalCountsPinned pins the exact per-phase arrival counts for a
// fixed seed: the storm scenario replays this traffic, so a drifting
// generator would silently change what the storm test proves.
func TestArrivalCountsPinned(t *testing.T) {
	shape := ShapeConfig{
		BaseRate: 50, Amplitude: 0.6, Period: 8,
		BurstProb: 0.25, BurstMean: 120,
		Phases: 8, Seed: 42,
	}
	got := shape.ArrivalCounts()
	want := shape.ArrivalCounts()
	if len(got) != shape.Phases {
		t.Fatalf("got %d phases, want %d", len(got), shape.Phases)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("ArrivalCounts not deterministic at phase %d: %d vs %d", i, got[i], want[i])
		}
	}
	// Pin the sequence itself (math/rand source stream for seed 42): the
	// high phases 3-4 carry Poisson bursts on top of the diurnal peak, the
	// trough phases 5-7 sit far below the midline.
	pinned := []int{51, 60, 84, 209, 171, 24, 26, 26}
	if len(got) != len(pinned) {
		t.Fatalf("got %d phases, want %d", len(got), len(pinned))
	}
	for i := range pinned {
		if got[i] != pinned[i] {
			t.Fatalf("phase %d count drifted: got %d, pinned %d (full: %v)", i, got[i], pinned[i], got)
		}
	}
	// Diurnal structure: the peak phase (around p=Period/4) must carry
	// visibly more mean-rate traffic than the trough (around 3·Period/4),
	// bursts aside. Check against the analytic rates to avoid flakiness.
	peak := 50 * (1 + 0.6*math.Sin(2*math.Pi*2/8))
	trough := 50 * (1 + 0.6*math.Sin(2*math.Pi*6/8))
	if peak <= trough {
		t.Fatalf("analytic shape inverted: peak %f <= trough %f", peak, trough)
	}
}

// TestArrivalCountsSeedAndAmplitude checks seeds decorrelate runs and a
// flat shape (Amplitude 0, no bursts) concentrates around BaseRate.
func TestArrivalCountsSeedAndAmplitude(t *testing.T) {
	a := ShapeConfig{BaseRate: 200, Phases: 16, Seed: 1}.ArrivalCounts()
	b := ShapeConfig{BaseRate: 200, Phases: 16, Seed: 2}.ArrivalCounts()
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical arrival sequences")
	}
	for i, n := range a {
		// Poisson(200): ±6σ ≈ ±85. Anything outside is a generator bug.
		if n < 115 || n > 285 {
			t.Fatalf("flat shape phase %d count %d implausible for Poisson(200)", i, n)
		}
	}
	// Large-lambda path (normal approximation) must stay near the mean.
	big := ShapeConfig{BaseRate: 50_000, Phases: 4, Seed: 3}.ArrivalCounts()
	for i, n := range big {
		if math.Abs(float64(n)-50_000) > 6*math.Sqrt(50_000) {
			t.Fatalf("large-lambda phase %d count %d implausible for Poisson(50000)", i, n)
		}
	}
}
