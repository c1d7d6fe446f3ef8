package causal

import (
	"sort"

	"repro/internal/telemetry"
)

// Critical-path extraction: starting from the last-ending leaf span,
// repeatedly follow the *binding constraint* — whichever dependency
// finished last and therefore dictated when the current span could
// start. For a receive that is the matched send's completion on the
// producer rank; for a collective it is the last participant's arrival
// (the straggler); otherwise it is the rank's own previous task. The
// resulting rank-hopping chain is the sequence of events that actually
// set the step's makespan — the thing to optimize first, per the MLPerf
// HPC full-system-attribution methodology.

// Path-segment classes.
const (
	ClassCompute   = "compute"
	ClassComm      = "comm"
	ClassP2PWait   = "p2p-wait"
	ClassStraggler = "straggler-wait"
)

// PathSeg is one hop of the critical path, latest first in CriticalPath
// output order reversed to chronological.
type PathSeg struct {
	Rank    int    `json:"rank"`
	Name    string `json:"name"`
	Class   string `json:"class"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// maxPathSegs bounds the walk against degenerate traces.
const maxPathSegs = 1 << 16

// criticalPathIn walks the DAG backward from the last node ending inside
// the step window [w0, w1] and returns the binding-constraint chain in
// chronological order, stopping once it crosses the window's left edge.
// Each segment ends at the instant its node released its successor (a
// producer span can run on past its send) and starts no earlier than the
// instant its own binding constraint released it, so the segments stay
// inside the window, in order, without overlapping.
func (d *DAG) criticalPathIn(w0, w1 int64) []PathSeg {
	cur := d.lastEndingIn(w0, w1)
	var end int64
	if cur != nil {
		end = cur.Span.End()
	}
	var rev []PathSeg
	for cur != nil && end > w0 && len(rev) < maxPathSegs {
		prev, release := d.binding(cur)
		start := min(max(cur.Span.Start, release, w0), end)
		rev = append(rev, PathSeg{
			Rank:    cur.Rank(),
			Name:    cur.Span.Name,
			Class:   classOf(cur),
			StartNS: start,
			EndNS:   end,
		})
		if prev != nil {
			end = min(prev.Span.End(), release, start)
		}
		cur = prev
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// lastEndingIn returns the non-send leaf with the greatest end time ≤ w1
// among those ending after w0 (ties: lowest rank, for determinism).
func (d *DAG) lastEndingIn(w0, w1 int64) *Node {
	var best *Node
	for _, r := range d.Ranks {
		for _, n := range d.ByRank[r] {
			if n.Span.Kind == telemetry.SpanSend {
				continue
			}
			e := n.Span.End()
			if e <= w0 || e > w1 {
				continue
			}
			if best == nil || e > best.Span.End() {
				best = n
			}
		}
	}
	return best
}

// binding returns the node whose completion (or arrival) gated cur's
// start, and the instant it released cur — nil when cur starts
// unconstrained at the trace's beginning.
func (d *DAG) binding(cur *Node) (*Node, int64) {
	prev := d.prevOnRank(cur)
	selfT := int64(-1)
	if prev != nil {
		selfT = prev.Span.End()
		// A span concurrent with cur on the same track can end after
		// cur began; it cannot have gated cur later than cur's own start.
		if selfT > cur.Span.Start {
			selfT = cur.Span.Start
		}
	}
	var remote *Node
	remoteT := int64(-1)
	switch cur.Span.Kind {
	case telemetry.SpanRecv:
		if cur.Send != nil {
			// The message left when the producer's send marker fired;
			// charge the path to the producer's preceding task.
			if p := d.nodeBefore(cur.Send.Rank(), cur.Send.Span.Start); p != nil {
				remote, remoteT = p, cur.Send.Span.Start
			}
		}
	case telemetry.SpanCollective:
		var last *Node
		for _, g := range cur.Group {
			if g == cur {
				continue
			}
			if last == nil || g.Span.Start > last.Span.Start {
				last = g
			}
		}
		// The collective was gated by the last-arriving peer only if it
		// arrived after we did; otherwise our own schedule was binding.
		if last != nil && last.Span.Start > cur.Span.Start {
			remote, remoteT = last, last.Span.Start
		}
	}
	if remote != nil && remoteT >= selfT {
		return remote, remoteT
	}
	return prev, selfT
}

// prevOnRank returns the non-send leaf preceding cur on its own rank.
func (d *DAG) prevOnRank(cur *Node) *Node {
	nodes := d.ByRank[cur.Rank()]
	for i := cur.idx - 1; i >= 0; i-- {
		if nodes[i].Span.Kind != telemetry.SpanSend {
			return nodes[i]
		}
	}
	return nil
}

// nodeBefore returns the last non-send leaf on rank that started
// strictly before instant t — the task running at (or the last task
// finished before) t. A real trace's producer span ends slightly
// *after* its embedded send marker fires, so "started before t" (not
// "ended by t") is the correct covering test.
func (d *DAG) nodeBefore(rank int, t int64) *Node {
	nodes := d.ByRank[rank]
	i := sort.Search(len(nodes), func(i int) bool { return nodes[i].Span.Start >= t })
	for i--; i >= 0; i-- {
		if nodes[i].Span.Kind != telemetry.SpanSend {
			return nodes[i]
		}
	}
	return nil
}

func classOf(n *Node) string {
	switch n.Span.Kind {
	case telemetry.SpanRecv:
		return ClassP2PWait
	case telemetry.SpanCollective:
		return ClassStraggler
	}
	switch n.Span.Cat {
	case telemetry.CatCompute, telemetry.CatStep:
		return ClassCompute
	}
	return ClassComm
}
