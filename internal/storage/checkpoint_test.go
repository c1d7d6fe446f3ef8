package storage

import (
	"math"
	"strings"
	"testing"

	"repro/internal/msa"
)

func testPlan() CheckpointPlan {
	return CheckpointPlan{Nodes: 16, StateGBNode: 4, IntervalSec: 600, Checkpoints: 10, StripePerJob: 4}
}

func ckptFS() *SSSM {
	return NewSSSM(msa.StorageSpec{Filesystem: "test", OSTs: 16, OSTBWGBs: 2, CapacityPB: 1})
}

func ckptNAM(capGB float64) *NAM {
	return NewNAM(msa.NAMSpec{CapacityGB: capGB, BWGBs: 40, LatencyUS: 3})
}

func TestCompareCheckpointTargetsHappyPath(t *testing.T) {
	s, n, err := CompareCheckpointTargets(testPlan(), ckptFS(), ckptNAM(1024))
	if err != nil {
		t.Fatal(err)
	}
	if n >= s {
		t.Fatalf("NAM stall %.3fs should beat direct SSSM stall %.3fs", n, s)
	}
	if n <= 0 {
		t.Fatal("stalls must be positive")
	}
}

func TestCompareCheckpointTargetsValidatesPlan(t *testing.T) {
	cases := map[string]func(*CheckpointPlan){
		"zero interval":    func(p *CheckpointPlan) { p.IntervalSec = 0 },
		"zero nodes":       func(p *CheckpointPlan) { p.Nodes = 0 },
		"zero state":       func(p *CheckpointPlan) { p.StateGBNode = 0 },
		"zero checkpoints": func(p *CheckpointPlan) { p.Checkpoints = 0 },
		"negative size":    func(p *CheckpointPlan) { p.StateGBNode = -1 },
	}
	for name, mutate := range cases {
		p := testPlan()
		mutate(&p)
		if _, _, err := CompareCheckpointTargets(p, ckptFS(), ckptNAM(1024)); err == nil {
			t.Errorf("%s: expected a Validate error", name)
		}
	}
}

func TestCompareCheckpointTargetsZeroBandwidthDevices(t *testing.T) {
	// Constructed directly (bypassing New*) to model a dead or
	// misdescribed device; the comparison must refuse, not divide by zero.
	deadNAM := &NAM{Spec: msa.NAMSpec{CapacityGB: 1024, BWGBs: 0}}
	if _, _, err := CompareCheckpointTargets(testPlan(), ckptFS(), deadNAM); err == nil {
		t.Fatal("zero-bandwidth NAM accepted")
	}
	deadFS := &SSSM{Spec: msa.StorageSpec{OSTs: 0, OSTBWGBs: 2}}
	if _, _, err := CompareCheckpointTargets(testPlan(), deadFS, ckptNAM(1024)); err == nil {
		t.Fatal("zero-OST SSSM accepted")
	}
	if _, _, err := CompareCheckpointTargets(testPlan(), nil, ckptNAM(1024)); err == nil {
		t.Fatal("nil SSSM accepted")
	}
	if _, _, err := CompareCheckpointTargets(testPlan(), ckptFS(), nil); err == nil {
		t.Fatal("nil NAM accepted")
	}
}

func TestCompareCheckpointTargetsCapacity(t *testing.T) {
	p := testPlan() // 64 GB per checkpoint
	_, _, err := CompareCheckpointTargets(p, ckptFS(), ckptNAM(32))
	if err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("expected a capacity error, got %v", err)
	}
}

func TestCompareCheckpointTargetsDrainLimited(t *testing.T) {
	// Shrink the interval below the SSSM drain time: the NAM stall must
	// absorb the leftover drain, raising it above the pure burst time.
	p := testPlan()
	p.IntervalSec = 1 // drain of 64 GB at 2 GB/s single stream ≫ 1 s
	_, n, err := CompareCheckpointTargets(p, ckptFS(), ckptNAM(1024))
	if err != nil {
		t.Fatal(err)
	}
	burst := p.NAMCheckpointTime(ckptNAM(1024))
	if n <= burst {
		t.Fatalf("drain-limited stall %.3fs should exceed burst %.3fs", n, burst)
	}
}

func TestYoungAndDalyIntervals(t *testing.T) {
	// Young: sqrt(2·30·7200) ≈ 657.27 s.
	y := math.Sqrt(2 * 30 * 7200)
	// Daly converges to Young for δ ≪ M and stays finite for δ ≥ 2M.
	d := DalyInterval(30, 7200)
	if math.Abs(d-y)/y > 0.05 {
		t.Fatalf("Daly %.3f should be within 5%% of Young %.3f for small δ/M", d, y)
	}
	if got := DalyInterval(100, 40); got != 40 {
		t.Fatalf("Daly with δ ≥ 2M should clamp to M, got %.3f", got)
	}
	// Longer MTBF ⇒ longer interval.
	if DalyInterval(30, 14400) <= d {
		t.Fatal("interval should grow with MTBF")
	}
}

func TestExpectedWaste(t *testing.T) {
	// δ=30, τ=600, R=120, M=7200: waste = 30/600 + 600/14400 + 120/7200.
	want := 30.0/600 + 600.0/14400 + 120.0/7200
	if got := ExpectedWaste(600, 30, 120, 7200); math.Abs(got-want) > 1e-12 {
		t.Fatalf("waste %.6f, want %.6f", got, want)
	}
	// The Young interval minimizes waste against nearby intervals.
	young := math.Sqrt(2 * 30 * 7200)
	at := func(tau float64) float64 { return ExpectedWaste(tau, 30, 120, 7200) }
	if at(young) > at(young*2) || at(young) > at(young/2) {
		t.Fatal("waste should be minimal near the Young interval")
	}
}
