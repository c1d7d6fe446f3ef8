package pipeline

import (
	"math"
	"testing"
)

// measureBubble returns the bubble fraction of the schedule a Stage
// executes (forward cost 1, backward cost 2, the usual fwd:bwd ratio for
// dense stacks). The engine runs PlanSchedule's order verbatim, so the
// value depends only on schedule structure, not on host core count or
// scheduler noise.
func measureBubble(S, M int, sched Schedule) float64 {
	return PlannedBubble(S, 0, M, sched, 1, 2)
}

// TestOneFOneBBubbleLowerThanGPipe pins the schedule quality claim: at
// equal micro-batch count, interleaved 1F1B (v=2 chunks per rank) shows a
// strictly lower bubble fraction than GPipe. Analytically (uniform
// chunks): GPipe B = (S−1)/(M+S−1), interleaved ≈ (S−1)/(vM+S−1).
func TestOneFOneBBubbleLowerThanGPipe(t *testing.T) {
	const S, M = 3, 8
	gpipe := measureBubble(S, M, GPipe)
	onefb := measureBubble(S, M, OneFOneB)
	t.Logf("schedule bubble: gpipe=%.3f 1f1b=%.3f (analytic %.3f vs %.3f)",
		gpipe, onefb, 2.0/(M+2), 2.0/(2*M+2))
	if !(onefb < gpipe) {
		t.Fatalf("1F1B bubble %.3f not strictly below GPipe %.3f", onefb, gpipe)
	}
}

// TestBubbleMatchesAnalyticModel checks GPipe's planned bubble against
// the closed form B = (S−1)/(M+S−1), which is exact for uniform chunk
// costs and equal forward/backward weights.
func TestBubbleMatchesAnalyticModel(t *testing.T) {
	for _, tc := range []struct{ S, M int }{{2, 4}, {3, 6}, {4, 8}} {
		got := PlannedBubble(tc.S, 1, tc.M, GPipe, 1, 1)
		want := float64(tc.S-1) / float64(tc.M+tc.S-1)
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("S=%d M=%d: planned bubble %.4f, analytic %.4f", tc.S, tc.M, got, want)
		}
	}
}

// TestBubbleShrinksWithMicroBatches pins the bubble model's M dependence:
// more micro-batches amortize the fill/drain ramps under both schedules.
func TestBubbleShrinksWithMicroBatches(t *testing.T) {
	const S = 3
	for _, sched := range []Schedule{GPipe, OneFOneB} {
		few := measureBubble(S, 2, sched)
		many := measureBubble(S, 16, sched)
		t.Logf("%v bubble: M=2 %.3f, M=16 %.3f", sched, few, many)
		if !(many < few) {
			t.Errorf("%v bubble did not shrink with micro-batches: M=2 %.3f, M=16 %.3f", sched, few, many)
		}
	}
}

// plannedBubbleBits holds math.Float64bits(PlannedBubble(S, v, M, sched,
// tf, tb)) for M = 1, 2, 4, 8, recorded when the bubble came from a
// second ideal-machine simulation of the plan's task order. Reading the
// planner's own timeline must give the same bits.
var plannedBubbleBits = []struct {
	S, v   int
	sched  Schedule
	tf, tb float64
	bits   [4]uint64
}{
	{1, 0, GPipe, 1, 1, [4]uint64{0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
	{1, 1, GPipe, 1, 1, [4]uint64{0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
	{1, 2, GPipe, 1, 1, [4]uint64{0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
	{1, 3, GPipe, 1, 1, [4]uint64{0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
	{2, 0, GPipe, 1, 1, [4]uint64{0x3fe0000000000000, 0x3fd5555555555556, 0x3fc9999999999998, 0x3fbc71c71c71c720}},
	{2, 1, GPipe, 1, 1, [4]uint64{0x3fe0000000000000, 0x3fd5555555555556, 0x3fc9999999999998, 0x3fbc71c71c71c720}},
	{2, 2, GPipe, 1, 1, [4]uint64{0x3fe0000000000000, 0x3fc9999999999998, 0x3fbc71c71c71c720, 0x3fae1e1e1e1e1e20}},
	{2, 3, GPipe, 1, 1, [4]uint64{0x3fe0000000000000, 0x3fc2492492492494, 0x3fb3b13b13b13b10, 0x3fa47ae147ae1480}},
	{3, 0, GPipe, 1, 1, [4]uint64{0x3fe5555555555556, 0x3fe0000000000000, 0x3fd5555555555556, 0x3fc9999999999998}},
	{3, 1, GPipe, 1, 1, [4]uint64{0x3fe5555555555556, 0x3fe0000000000000, 0x3fd5555555555556, 0x3fc9999999999998}},
	{3, 2, GPipe, 1, 1, [4]uint64{0x3fe5555555555556, 0x3fdb6db6db6db6dc, 0x3fd5555555555556, 0x3fc435e50d794360}},
	{3, 3, GPipe, 1, 1, [4]uint64{0x3fe5555555555556, 0x3fd999999999999a, 0x3fd5555555555556, 0x3fc2492492492494}},
	{4, 0, GPipe, 1, 1, [4]uint64{0x3fe8000000000000, 0x3fe3333333333333, 0x3fdb6db6db6db6dc, 0x3fd1745d1745d174}},
	{4, 1, GPipe, 1, 1, [4]uint64{0x3fe8000000000000, 0x3fe3333333333333, 0x3fdb6db6db6db6dc, 0x3fd1745d1745d174}},
	{4, 2, GPipe, 1, 1, [4]uint64{0x3fe8000000000000, 0x3fe1c71c71c71c72, 0x3fd1745d1745d174, 0x3fc435e50d794360}},
	{4, 3, GPipe, 1, 1, [4]uint64{0x3fe8000000000000, 0x3fe13b13b13b13b1, 0x3fc9999999999998, 0x3fbc71c71c71c720}},
	{1, 0, GPipe, 1, 2, [4]uint64{0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
	{1, 1, GPipe, 1, 2, [4]uint64{0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
	{1, 2, GPipe, 1, 2, [4]uint64{0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
	{1, 3, GPipe, 1, 2, [4]uint64{0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
	{2, 0, GPipe, 1, 2, [4]uint64{0x3fe0000000000000, 0x3fd5555555555556, 0x3fc9999999999998, 0x3fbc71c71c71c720}},
	{2, 1, GPipe, 1, 2, [4]uint64{0x3fe0000000000000, 0x3fd5555555555556, 0x3fc9999999999998, 0x3fbc71c71c71c720}},
	{2, 2, GPipe, 1, 2, [4]uint64{0x3fe0000000000000, 0x3fc9999999999998, 0x3fbc71c71c71c720, 0x3fae1e1e1e1e1e20}},
	{2, 3, GPipe, 1, 2, [4]uint64{0x3fe0000000000000, 0x3fc2492492492494, 0x3fb3b13b13b13b10, 0x3fa47ae147ae1480}},
	{3, 0, GPipe, 1, 2, [4]uint64{0x3fe5555555555556, 0x3fe0000000000000, 0x3fd5555555555556, 0x3fc9999999999998}},
	{3, 1, GPipe, 1, 2, [4]uint64{0x3fe5555555555556, 0x3fe0000000000000, 0x3fd5555555555556, 0x3fc9999999999998}},
	{3, 2, GPipe, 1, 2, [4]uint64{0x3fe5555555555556, 0x3fdb6db6db6db6dc, 0x3fd5555555555556, 0x3fc435e50d794360}},
	{3, 3, GPipe, 1, 2, [4]uint64{0x3fe5555555555556, 0x3fd999999999999a, 0x3fd5555555555556, 0x3fc2492492492494}},
	{4, 0, GPipe, 1, 2, [4]uint64{0x3fe8000000000000, 0x3fe3333333333333, 0x3fdb6db6db6db6dc, 0x3fd1745d1745d174}},
	{4, 1, GPipe, 1, 2, [4]uint64{0x3fe8000000000000, 0x3fe3333333333333, 0x3fdb6db6db6db6dc, 0x3fd1745d1745d174}},
	{4, 2, GPipe, 1, 2, [4]uint64{0x3fe8000000000000, 0x3fe1c71c71c71c72, 0x3fd1745d1745d174, 0x3fc435e50d794360}},
	{4, 3, GPipe, 1, 2, [4]uint64{0x3fe8000000000000, 0x3fe13b13b13b13b1, 0x3fc9999999999998, 0x3fbc71c71c71c720}},
	{1, 0, OneFOneB, 1, 1, [4]uint64{0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
	{1, 1, OneFOneB, 1, 1, [4]uint64{0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
	{1, 2, OneFOneB, 1, 1, [4]uint64{0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
	{1, 3, OneFOneB, 1, 1, [4]uint64{0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
	{2, 0, OneFOneB, 1, 1, [4]uint64{0x3fe0000000000000, 0x3fd1745d1745d174, 0x3fc435e50d794360, 0x3fb5f15f15f15f18}},
	{2, 1, OneFOneB, 1, 1, [4]uint64{0x3fe0000000000000, 0x3fd5555555555556, 0x3fc9999999999998, 0x3fbc71c71c71c720}},
	{2, 2, OneFOneB, 1, 1, [4]uint64{0x3fe0000000000000, 0x3fd1745d1745d174, 0x3fc435e50d794360, 0x3fb5f15f15f15f18}},
	{2, 3, OneFOneB, 1, 1, [4]uint64{0x3fe0000000000000, 0x3fc9999999999998, 0x3fbc71c71c71c720, 0x3fae1e1e1e1e1e20}},
	{3, 0, OneFOneB, 1, 1, [4]uint64{0x3fe5555555555556, 0x3fdb6db6db6db6dc, 0x3fce79e79e79e7a0, 0x3fc6f96f96f96f98}},
	{3, 1, OneFOneB, 1, 1, [4]uint64{0x3fe5555555555556, 0x3fe0000000000000, 0x3fd5555555555556, 0x3fc9999999999998}},
	{3, 2, OneFOneB, 1, 1, [4]uint64{0x3fe5555555555556, 0x3fdb6db6db6db6dc, 0x3fce79e79e79e7a0, 0x3fc6f96f96f96f98}},
	{3, 3, OneFOneB, 1, 1, [4]uint64{0x3fe5555555555556, 0x3fd999999999999a, 0x3fd0000000000000, 0x3fc04a7904a7904c}},
	{4, 0, OneFOneB, 1, 1, [4]uint64{0x3fe8000000000000, 0x3fe1c71c71c71c72, 0x3fd5555555555556, 0x3fcc18f9c18f9c18}},
	{4, 1, OneFOneB, 1, 1, [4]uint64{0x3fe8000000000000, 0x3fe3333333333333, 0x3fdb6db6db6db6dc, 0x3fd1745d1745d174}},
	{4, 2, OneFOneB, 1, 1, [4]uint64{0x3fe8000000000000, 0x3fe1c71c71c71c72, 0x3fd5555555555556, 0x3fcc18f9c18f9c18}},
	{4, 3, OneFOneB, 1, 1, [4]uint64{0x3fe8000000000000, 0x3fe13b13b13b13b1, 0x3fd2d2d2d2d2d2d2, 0x3fc7dd49c34115b0}},
	{1, 0, OneFOneB, 1, 2, [4]uint64{0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
	{1, 1, OneFOneB, 1, 2, [4]uint64{0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
	{1, 2, OneFOneB, 1, 2, [4]uint64{0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
	{1, 3, OneFOneB, 1, 2, [4]uint64{0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
	{2, 0, OneFOneB, 1, 2, [4]uint64{0x3fe0000000000000, 0x3fc9999999999998, 0x3fbc71c71c71c720, 0x3fae1e1e1e1e1e20}},
	{2, 1, OneFOneB, 1, 2, [4]uint64{0x3fe0000000000000, 0x3fd5555555555556, 0x3fc9999999999998, 0x3fbc71c71c71c720}},
	{2, 2, OneFOneB, 1, 2, [4]uint64{0x3fe0000000000000, 0x3fc9999999999998, 0x3fbc71c71c71c720, 0x3fae1e1e1e1e1e20}},
	{2, 3, OneFOneB, 1, 2, [4]uint64{0x3fe0000000000000, 0x3fc2492492492494, 0x3fb3b13b13b13b10, 0x3fa47ae147ae1480}},
	{3, 0, OneFOneB, 1, 2, [4]uint64{0x3fe5555555555556, 0x3fdb6db6db6db6dc, 0x3fd0000000000000, 0x3fc2492492492494}},
	{3, 1, OneFOneB, 1, 2, [4]uint64{0x3fe5555555555556, 0x3fe0000000000000, 0x3fd5555555555556, 0x3fc9999999999998}},
	{3, 2, OneFOneB, 1, 2, [4]uint64{0x3fe5555555555556, 0x3fdb6db6db6db6dc, 0x3fd0000000000000, 0x3fc2492492492494}},
	{3, 3, OneFOneB, 1, 2, [4]uint64{0x3fe5555555555556, 0x3fd999999999999a, 0x3fcbd37a6f4de9bc, 0x3fc0f6bf3a9a3784}},
	{4, 0, OneFOneB, 1, 2, [4]uint64{0x3fe8000000000000, 0x3fe1c71c71c71c72, 0x3fd67c8a60dd67c8, 0x3fce79e79e79e7a0}},
	{4, 1, OneFOneB, 1, 2, [4]uint64{0x3fe8000000000000, 0x3fe3333333333333, 0x3fdb6db6db6db6dc, 0x3fd1745d1745d174}},
	{4, 2, OneFOneB, 1, 2, [4]uint64{0x3fe8000000000000, 0x3fe1c71c71c71c72, 0x3fd67c8a60dd67c8, 0x3fce79e79e79e7a0}},
	{4, 3, OneFOneB, 1, 2, [4]uint64{0x3fe8000000000000, 0x3fe13b13b13b13b1, 0x3fd0fac687d6343e, 0x3fcab9ab9ab9ab9c}},
}

// TestPlannedBubbleBitsUnchanged pins PlannedBubble bit for bit over
// S ∈ {1..4}, v ∈ {0..3}, M ∈ {1, 2, 4, 8}, both schedules and
// (tf, tb) ∈ {(1, 1), (1, 2)}.
func TestPlannedBubbleBitsUnchanged(t *testing.T) {
	for _, tc := range plannedBubbleBits {
		for i, M := range []int{1, 2, 4, 8} {
			got := PlannedBubble(tc.S, tc.v, M, tc.sched, tc.tf, tc.tb)
			if bits := math.Float64bits(got); bits != tc.bits[i] {
				t.Errorf("PlannedBubble(S=%d, v=%d, M=%d, %v, %g, %g) = %v (%#016x), want %v (%#016x)",
					tc.S, tc.v, M, tc.sched, tc.tf, tc.tb, got, bits, math.Float64frombits(tc.bits[i]), tc.bits[i])
			}
		}
	}
}
