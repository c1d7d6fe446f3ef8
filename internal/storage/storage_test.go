package storage

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/msa"
)

func testFS() *SSSM {
	return NewSSSM(msa.StorageSpec{Filesystem: "Lustre", OSTs: 8, OSTBWGBs: 2.5, CapacityPB: 1})
}

func testNAM() *NAM {
	return NewNAM(msa.NAMSpec{CapacityGB: 100, BWGBs: 50, LatencyUS: 3})
}

func TestAggregateBW(t *testing.T) {
	if testFS().AggregateBW() != 20 {
		t.Fatalf("aggregate: %f", testFS().AggregateBW())
	}
}

func TestStreamBWStripeLimited(t *testing.T) {
	fs := testFS()
	// One reader, stripe 2: limited to 5 GB/s even though 20 available.
	if bw := fs.StreamBW(2, 1); bw != 5 {
		t.Fatalf("stripe-limited: %f", bw)
	}
	// Full stripe single reader gets everything.
	if bw := fs.StreamBW(8, 1); bw != 20 {
		t.Fatalf("full stripe: %f", bw)
	}
}

func TestStreamBWContention(t *testing.T) {
	fs := testFS()
	// 8 readers at full stripe share the aggregate.
	if bw := fs.StreamBW(8, 8); bw != 2.5 {
		t.Fatalf("contended: %f", bw)
	}
	// Many narrow readers: stripe limit stops mattering once share < stripe BW.
	if bw := fs.StreamBW(2, 10); bw != 2 {
		t.Fatalf("narrow contended: %f", bw)
	}
}

func TestStreamBWClamps(t *testing.T) {
	fs := testFS()
	if fs.StreamBW(0, 0) != fs.StreamBW(1, 1) {
		t.Fatal("zero stripe/readers must clamp to 1")
	}
	if fs.StreamBW(100, 1) != 20 {
		t.Fatal("stripe beyond OST count must clamp")
	}
}

func TestReadTime(t *testing.T) {
	fs := testFS()
	if rt := fs.ReadTime(100, 8, 1); rt != 5 {
		t.Fatalf("read time: %f", rt)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative size")
		}
	}()
	fs.ReadTime(-1, 1, 1)
}

func TestMoreStripesFasterSingleStream(t *testing.T) {
	fs := testFS()
	prev := math.Inf(1)
	for stripe := 1; stripe <= 8; stripe++ {
		rt := fs.ReadTime(100, stripe, 1)
		if rt > prev {
			t.Fatalf("wider stripe slower at %d: %f > %f", stripe, rt, prev)
		}
		prev = rt
	}
}

func TestNAMBeatsDuplicateDownloads(t *testing.T) {
	fs := testFS()
	for _, k := range []int{4, 8, 16} {
		nam := testNAM()
		dupTime, dupBytes := DuplicateDownloadTime(k, 50, fs, 4)
		namTime, namBytes := SharedNAMTime(k, 50, fs, nam, 4)
		if namBytes*float64(k) != dupBytes {
			t.Fatalf("k=%d: NAM must move 1/k the data: %f vs %f", k, namBytes, dupBytes)
		}
		if k >= 8 && namTime >= dupTime {
			t.Fatalf("k=%d: NAM (%f s) should beat duplicates (%f s)", k, namTime, dupTime)
		}
	}
}

func TestWorkflowPanicsOnZeroMembers(t *testing.T) {
	for _, f := range []func(){
		func() { DuplicateDownloadTime(0, 1, testFS(), 1) },
		func() { SharedNAMTime(0, 1, testFS(), testNAM(), 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestConstructorsValidate(t *testing.T) {
	for _, f := range []func(){
		func() { NewSSSM(msa.StorageSpec{}) },
		func() { NewNAM(msa.NAMSpec{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: stream bandwidth never exceeds either the stripe limit or the
// aggregate, and is always positive.
func TestStreamBWBoundsProperty(t *testing.T) {
	fs := testFS()
	f := func(stripeRaw, readersRaw uint8) bool {
		stripe := 1 + int(stripeRaw)%16
		readers := 1 + int(readersRaw)%64
		bw := fs.StreamBW(stripe, readers)
		if bw <= 0 {
			return false
		}
		eff := stripe
		if eff > fs.Spec.OSTs {
			eff = fs.Spec.OSTs
		}
		return bw <= float64(eff)*fs.Spec.OSTBWGBs+1e-9 && bw <= fs.AggregateBW()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointPlanValidate(t *testing.T) {
	good := CheckpointPlan{Nodes: 8, StateGBNode: 4, IntervalSec: 600, Checkpoints: 10, StripePerJob: 4}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []CheckpointPlan{
		{Nodes: 0, StateGBNode: 4, IntervalSec: 600, Checkpoints: 10},
		{Nodes: 8, StateGBNode: 0, IntervalSec: 600, Checkpoints: 10},
		{Nodes: 8, StateGBNode: 4, IntervalSec: 0, Checkpoints: 10},
		{Nodes: 8, StateGBNode: 4, IntervalSec: 600, Checkpoints: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("accepted %+v", bad)
		}
	}
	if good.TotalGB() != 32 {
		t.Fatalf("total: %f", good.TotalGB())
	}
}

// TestNAMCheckpointBeatsDirect reproduces the ref [12] claim: NAM-buffered
// checkpoints stall the application less than direct parallel-filesystem
// writes.
func TestNAMCheckpointBeatsDirect(t *testing.T) {
	fs := testFS()   // 20 GB/s aggregate
	nam := testNAM() // 50 GB/s memory
	plan := CheckpointPlan{Nodes: 16, StateGBNode: 4, IntervalSec: 600, Checkpoints: 10, StripePerJob: 4}
	direct, via, err := CompareCheckpointTargets(plan, fs, nam)
	if err != nil {
		t.Fatal(err)
	}
	if via >= direct {
		t.Fatalf("NAM stall %f should beat direct %f", via, direct)
	}
}

func TestNAMCheckpointDrainLimited(t *testing.T) {
	fs := testFS()
	nam := testNAM()
	// Checkpoints arrive faster than the SSSM can drain: the surplus
	// stalls the application.
	fast := CheckpointPlan{Nodes: 16, StateGBNode: 4, IntervalSec: 1, Checkpoints: 3, StripePerJob: 4}
	_, via, err := CompareCheckpointTargets(fast, fs, nam)
	if err != nil {
		t.Fatal(err)
	}
	slow := fast
	slow.IntervalSec = 600
	_, viaSlow, err := CompareCheckpointTargets(slow, fs, nam)
	if err != nil {
		t.Fatal(err)
	}
	if via <= viaSlow {
		t.Fatalf("drain-limited plan must stall more: %f vs %f", via, viaSlow)
	}
}

func TestCheckpointRejectsOversizedState(t *testing.T) {
	plan := CheckpointPlan{Nodes: 100, StateGBNode: 10, IntervalSec: 60, Checkpoints: 2, StripePerJob: 4}
	if _, _, err := CompareCheckpointTargets(plan, testFS(), testNAM()); err == nil {
		t.Fatal("1000 GB checkpoint must exceed the 100 GB NAM")
	}
}
