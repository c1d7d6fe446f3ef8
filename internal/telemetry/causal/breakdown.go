package causal

import (
	"encoding/json"
	"sort"
	"strconv"

	"repro/internal/telemetry"
)

// Wall-time attribution. Every instant of every rank inside an analysis
// window is charged to exactly one class:
//
//   - compute: a leaf compute/batch/phase span was running.
//   - exposed-comm: a communication span was running *after* its input
//     had already arrived — true transfer/combine cost that no overlap
//     could hide (plus unmatched comm spans, conservatively).
//   - pipeline-bubble: a p2p receive wait *before* the matched send
//     fired (the producer had not finished — schedule structure, not
//     wire time), plus uninstrumented idle gaps. For a pipeline trace
//     this sums to exactly the schedule's bubble: at GPipe S=3, M=8 the
//     per-rank waits + fill/drain idle total (S−1)/(M+S−1) of S×window.
//   - straggler-wait: time inside a collective before its last
//     participant arrived — waiting on a slow peer, not on the network.
//
// Communication spans that run concurrently with compute on the same
// track can make per-class sums exceed the window; idle is clamped at
// zero and fractions report the sums as-is, which is the honest reading:
// overlap hides comm *under* compute rather than deleting it.

// RankBreakdown is one rank's attribution inside a window.
type RankBreakdown struct {
	Rank          int   `json:"rank"`
	ComputeNS     int64 `json:"compute_ns"`
	ExposedCommNS int64 `json:"exposed_comm_ns"`
	P2PWaitNS     int64 `json:"p2p_wait_ns"`
	StragglerNS   int64 `json:"straggler_wait_ns"`
	IdleNS        int64 `json:"idle_ns"`
}

// StepBreakdown attributes one step window (or the whole trace) across
// ranks, with the binding-constraint critical path through it.
type StepBreakdown struct {
	WindowStartNS int64           `json:"window_start_ns"`
	WindowEndNS   int64           `json:"window_end_ns"`
	Ranks         []RankBreakdown `json:"ranks"`
	// Fractions are sums over ranks divided by ranks × window.
	ComputeFraction   float64   `json:"compute_fraction"`
	CommFraction      float64   `json:"comm_fraction"`
	BubbleFraction    float64   `json:"bubble_fraction"`
	StragglerFraction float64   `json:"straggler_fraction"`
	CriticalPath      []PathSeg `json:"critical_path"`
}

// Report is the full causal analysis of a trace snapshot.
type Report struct {
	Steps          []StepBreakdown `json:"steps"`
	UnmatchedRecvs int             `json:"unmatched_recvs,omitempty"`
}

// Analyze merges a span snapshot and attributes each detected step
// window (telemetry.CatStep spans on the rank that records most of
// them; the whole trace extent when there are none).
func Analyze(spans []telemetry.Span) *Report {
	d := Build(spans)
	rep := &Report{UnmatchedRecvs: d.UnmatchedRecvs}
	for _, w := range stepWindows(spans, d) {
		rep.Steps = append(rep.Steps, d.breakdown(w[0], w[1]))
	}
	return rep
}

// stepWindows picks the analysis windows from the raw (pre-leaf-filter)
// snapshot: CatStep spans act as step markers even though the merge
// drops them as containers.
func stepWindows(spans []telemetry.Span, d *DAG) [][2]int64 {
	perTrack := map[int][][2]int64{}
	best := -1
	for _, s := range spans {
		if s.Cat == telemetry.CatStep {
			perTrack[s.Track] = append(perTrack[s.Track], [2]int64{s.Start, s.End()})
			if best < 0 || len(perTrack[s.Track]) > len(perTrack[best]) ||
				(len(perTrack[s.Track]) == len(perTrack[best]) && s.Track < best) {
				best = s.Track
			}
		}
	}
	if best >= 0 {
		ws := perTrack[best]
		sort.Slice(ws, func(i, j int) bool { return ws[i][0] < ws[j][0] })
		return ws
	}
	lo, hi, any := int64(0), int64(0), false
	for _, r := range d.Ranks {
		for _, n := range d.ByRank[r] {
			if n.Span.Kind == telemetry.SpanSend {
				continue
			}
			if !any || n.Span.Start < lo {
				lo = n.Span.Start
			}
			if !any || n.Span.End() > hi {
				hi = n.Span.End()
			}
			any = true
		}
	}
	if !any || hi <= lo {
		return nil
	}
	return [][2]int64{{lo, hi}}
}

func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// breakdown attributes [w0, w1) across all ranks.
func (d *DAG) breakdown(w0, w1 int64) StepBreakdown {
	sb := StepBreakdown{WindowStartNS: w0, WindowEndNS: w1}
	window := w1 - w0
	var sumC, sumX, sumP, sumS, sumI int64
	for _, r := range d.Ranks {
		rb := RankBreakdown{Rank: r}
		var covered [][2]int64
		for _, n := range d.ByRank[r] {
			s := n.Span
			if s.Kind == telemetry.SpanSend {
				continue
			}
			lo, hi := clamp(s.Start, w0, w1), clamp(s.End(), w0, w1)
			if hi <= lo {
				continue
			}
			covered = append(covered, [2]int64{lo, hi})
			switch s.Kind {
			case telemetry.SpanRecv:
				if n.Send != nil {
					arrive := clamp(n.Send.Span.Start, lo, hi)
					rb.P2PWaitNS += arrive - lo
					rb.ExposedCommNS += hi - arrive
				} else {
					rb.ExposedCommNS += hi - lo
				}
			case telemetry.SpanCollective:
				if len(n.Group) > 0 {
					last := s.Start
					for _, g := range n.Group {
						if g.Span.Start > last {
							last = g.Span.Start
						}
					}
					arrive := clamp(last, lo, hi)
					rb.StragglerNS += arrive - lo
					rb.ExposedCommNS += hi - arrive
				} else {
					rb.ExposedCommNS += hi - lo
				}
			default:
				if s.Cat == telemetry.CatCompute {
					rb.ComputeNS += hi - lo
				} else {
					rb.ExposedCommNS += hi - lo
				}
			}
		}
		rb.IdleNS = window - unionLen(covered)
		if rb.IdleNS < 0 {
			rb.IdleNS = 0
		}
		sb.Ranks = append(sb.Ranks, rb)
		sumC += rb.ComputeNS
		sumX += rb.ExposedCommNS
		sumP += rb.P2PWaitNS
		sumS += rb.StragglerNS
		sumI += rb.IdleNS
	}
	if denom := float64(window) * float64(len(d.Ranks)); denom > 0 {
		sb.ComputeFraction = float64(sumC) / denom
		sb.CommFraction = float64(sumX) / denom
		sb.BubbleFraction = float64(sumP+sumI) / denom
		sb.StragglerFraction = float64(sumS) / denom
	}
	sb.CriticalPath = d.criticalPathIn(w0, w1)
	return sb
}

// unionLen merges possibly-overlapping intervals and returns the total
// covered length.
func unionLen(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + (curHi - curLo)
}

// JSON renders the report for the /breakdown endpoint and file dumps.
func (r *Report) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// BreakdownJSON adapts a live tracer into the telemetry.ServeConfig
// Breakdown callback: each request re-analyzes the current snapshot.
func BreakdownJSON(tr *telemetry.Tracer) func() ([]byte, error) {
	return func() ([]byte, error) { return Analyze(tr.Spans()).JSON() }
}

// PublishMetrics exports the last step's attribution as
// msa_criticalpath_* gauges.
func PublishMetrics(reg *telemetry.Registry, rep *Report) {
	if reg == nil || len(rep.Steps) == 0 {
		return
	}
	last := rep.Steps[len(rep.Steps)-1]
	reg.SetHelp("msa_criticalpath_compute_fraction", "fraction of rank-time in compute over the last analyzed step")
	reg.Gauge("msa_criticalpath_compute_fraction").Set(last.ComputeFraction)
	reg.Gauge("msa_criticalpath_comm_fraction").Set(last.CommFraction)
	reg.Gauge("msa_criticalpath_bubble_fraction").Set(last.BubbleFraction)
	reg.Gauge("msa_criticalpath_straggler_fraction").Set(last.StragglerFraction)
	reg.Gauge("msa_criticalpath_window_seconds").Set(float64(last.WindowEndNS-last.WindowStartNS) / 1e9)
	for _, rb := range last.Ranks {
		lbl := telemetry.Label{Key: "rank", Value: strconv.Itoa(rb.Rank)}
		reg.Gauge("msa_criticalpath_rank_bubble_seconds", lbl).Set(float64(rb.P2PWaitNS+rb.IdleNS) / 1e9)
		reg.Gauge("msa_criticalpath_rank_compute_seconds", lbl).Set(float64(rb.ComputeNS) / 1e9)
	}
}
