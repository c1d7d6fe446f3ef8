package pipeline

import (
	"fmt"

	"repro/internal/telemetry"
)

// EmitPlannedTrace emits the planned schedule for (S, v, M, sched) — the
// PlanSchedule timeline on the ideal machine PlannedBubble evaluates (one
// core per stage, zero latency, forward cost tf, backward cost tb) — as
// causally tagged spans: per-rank compute spans, a zero-duration SpanSend
// at each producer task's end, and a SpanRecv covering each consumer's
// wait for its remote input. One cost unit maps to 1 µs of simulated
// time; v = 0 picks the schedule's default chunk count.
//
// This is the deterministic fixture behind the critical-path validation:
// a wall-clock trace of a real run depends on host scheduling, but the
// planned timeline depends only on schedule structure, so the causal
// analysis of its trace must reproduce the analytic bubble
// (S−1)/(M+S−1) for GPipe exactly.
//
// Message identity mirrors the engine's wire protocol: the payload tag
// is tag(C, kind, chunk), and because the engine runs each chunk's
// forwards (and backwards) in strict micro order, the per-stream sequence
// number is simply the micro index.
func EmitPlannedTrace(tr *telemetry.Tracer, S, v, M int, sched Schedule, tf, tb float64) error {
	if tr == nil {
		return fmt.Errorf("pipeline: EmitPlannedTrace needs a tracer")
	}
	C := S * virtualChunks(sched, v)
	plan := PlanSchedule(S, v, M, sched, tf, tb)
	// end[kind][chunk*M+micro] is each task's planned end.
	end := [2][]float64{make([]float64, C*M), make([]float64, C*M)}
	for _, tasks := range plan {
		for _, t := range tasks {
			end[t.Kind][t.Chunk*M+t.Micro] = t.End
		}
	}
	owner := func(c int) int { return c % S }
	const unit = 1e3 // cost units → ns (1 unit = 1 µs)
	ns := func(t float64) int64 { return int64(t*unit + 0.5) }

	for r, tasks := range plan {
		tr.SetTrackName(r, fmt.Sprintf("stage %d", r))
		idle := 0.0 // when the rank finished its previous task
		for _, t := range tasks {
			// A forward consumes chunk c−1's activation and feeds c+1; a
			// backward consumes chunk c+1's gradient and feeds c−1.
			name, from, to := "pipe.fwd", t.Chunk-1, t.Chunk+1
			if t.Kind == kindB {
				name, from, to = "pipe.bwd", t.Chunk+1, t.Chunk-1
			}
			if from >= 0 && from < C && owner(from) != r {
				// The dependency wait the engine's receive of this input
				// would block in: from when the rank went idle to arrival.
				tr.EmitSpan(telemetry.Span{
					Track: r, Cat: telemetry.CatComm, Name: "pipe.recv",
					Start: ns(idle), Dur: ns(end[t.Kind][from*M+t.Micro]) - ns(idle),
					Kind: telemetry.SpanRecv, Peer: owner(from),
					Tag: tag(C, t.Kind, t.Chunk), Seq: int64(t.Micro),
				})
			}
			tr.EmitSpan(telemetry.Span{
				Track: r, Cat: telemetry.CatCompute,
				Name:  fmt.Sprintf("%s c%d m%d", name, t.Chunk, t.Micro),
				Start: ns(t.Start), Dur: ns(t.End) - ns(t.Start),
				Attr: sched.String(),
			})
			if to >= 0 && to < C && owner(to) != r {
				// The output leaves for its remote consumer the instant
				// the task completes.
				tr.EmitSpan(telemetry.Span{
					Track: r, Cat: telemetry.CatComm, Name: "mpi.send",
					Start: ns(t.End),
					Kind:  telemetry.SpanSend, Peer: owner(to),
					Tag: tag(C, t.Kind, to), Seq: int64(t.Micro),
				})
			}
			idle = t.End
		}
	}
	return nil
}
