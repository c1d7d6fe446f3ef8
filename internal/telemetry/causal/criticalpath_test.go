package causal_test

import (
	"testing"

	"repro/internal/telemetry"
	"repro/internal/telemetry/causal"
)

// checkPathInWindow asserts the critical-path property on every analyzed
// step: each segment lies inside its window, and the segments follow one
// another in time without overlapping — each one ends no later than the
// next one starts.
func checkPathInWindow(t *testing.T, rep *causal.Report) {
	t.Helper()
	if len(rep.Steps) == 0 {
		t.Fatal("no step windows")
	}
	for i, sb := range rep.Steps {
		path := sb.CriticalPath
		if len(path) == 0 {
			t.Fatalf("step %d: empty critical path", i)
		}
		for j, seg := range path {
			if seg.StartNS < sb.WindowStartNS || seg.EndNS > sb.WindowEndNS || seg.StartNS > seg.EndNS {
				t.Fatalf("step %d segment %d %+v outside window [%d, %d]", i, j, seg, sb.WindowStartNS, sb.WindowEndNS)
			}
			if j > 0 && path[j-1].EndNS > seg.StartNS {
				t.Fatalf("step %d: segment %d %+v ends after segment %d %+v starts", i, j-1, path[j-1], j, seg)
			}
		}
	}
}

// A producer span that runs on past its send: rank 0 computes over
// [0, 90] and its send fires at 50; rank 1's receive waits over [10, 60]
// and its consumer runs over [60, 150]. The producer released the receive
// at 50, so its segment ends there, not at 90.
func TestCriticalPathProducerOutlastsSend(t *testing.T) {
	spans := []telemetry.Span{
		{Track: 0, Cat: telemetry.CatCompute, Name: "fwd", Start: 0, Dur: 90},
		{Track: 0, Cat: telemetry.CatComm, Name: "send", Start: 50, Kind: telemetry.SpanSend, Peer: 1, Tag: 1},
		{Track: 1, Cat: telemetry.CatComm, Name: "recv", Start: 10, Dur: 50, Kind: telemetry.SpanRecv, Peer: 0, Tag: 1},
		{Track: 1, Cat: telemetry.CatCompute, Name: "bwd", Start: 60, Dur: 90},
	}
	rep := causal.Analyze(spans)
	checkPathInWindow(t, rep)
	want := []causal.PathSeg{
		{Rank: 0, Name: "fwd", Class: causal.ClassCompute, StartNS: 0, EndNS: 50},
		{Rank: 1, Name: "recv", Class: causal.ClassP2PWait, StartNS: 50, EndNS: 60},
		{Rank: 1, Name: "bwd", Class: causal.ClassCompute, StartNS: 60, EndNS: 150},
	}
	got := rep.Steps[0].CriticalPath
	if len(got) != len(want) {
		t.Fatalf("critical path %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("segment %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// The same property on a real 4-rank traced pipeline step.
func TestCriticalPathInWindowRealRun(t *testing.T) {
	checkPathInWindow(t, causal.Analyze(runTracedPipeline(t)))
}
