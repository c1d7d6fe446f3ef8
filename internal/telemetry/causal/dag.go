// Package causal merges per-rank telemetry span streams into one global
// happens-before DAG and attributes step wall time to its structural
// causes.
//
// The mpi runtime stamps every traced p2p span with (comm, peer, tag,
// seq) stream coordinates and every collective span with the rank's
// SPMD collective-issue counter (see internal/mpi/causal.go). Those
// coordinates are a complete causal index: the k-th send on a (src,
// dst, tag) stream IS the k-th receive on the other side (mailbox FIFO
// non-overtaking), and equal collective counters on different ranks
// name the same collective instance. So N per-rank span logs — each
// recorded with only its own goroutine's clock — merge into one DAG
// with send→recv and collective-barrier edges, no cross-rank clock
// agreement or global IDs needed. This is the per-rank-timeline →
// global-critical-path step that Score-P/Vampir-style tooling performs
// for the paper's scaling analysis (§III-A), done natively over the
// repo's own tracer.
//
// On top of the merged DAG the package computes per-step breakdowns
// (compute / exposed-comm / pipeline-bubble / straggler-wait per rank,
// breakdown.go) and walks the binding-constraint critical path
// (criticalpath.go).
package causal

import (
	"sort"

	"repro/internal/telemetry"
)

// Node is one leaf span in the merged DAG, with its resolved causal
// in-edges.
type Node struct {
	Span telemetry.Span
	// Send is the matched producer send for a SpanRecv node (nil when
	// the send is missing from the trace, e.g. ring-buffer wrap).
	Send *Node
	// Group is the full participant set (including this node) for a
	// SpanCollective node, or nil when no peers were found.
	Group []*Node
	// idx is the node's position in its rank's ByRank slice.
	idx int
}

// Rank returns the node's track id (the mpi rank for runtime traces).
func (n *Node) Rank() int { return n.Span.Track }

// DAG is the merged cross-rank graph.
type DAG struct {
	// ByRank holds each rank's leaf nodes in start order (program order
	// for spans emitted by the rank's own goroutine).
	ByRank map[int][]*Node
	// Ranks lists the track ids present, ascending.
	Ranks []int
	// UnmatchedRecvs counts SpanRecv nodes with no matching send —
	// nonzero means the trace is partial (wrap-around, mid-run attach,
	// or out-of-band injected traffic).
	UnmatchedRecvs int
}

// streamID identifies one p2p message instance across ranks.
type streamID struct {
	comm, src, dst, tag int
	seq                 int64
}

// Build merges a span snapshot (typically Tracer.Spans()) into a DAG.
// Container spans — those that wholly contain another non-send span on
// the same track, like a step span over its compute spans or a pipe.recv
// wrapper over its mpi.recv — are dropped so each instant of a rank's
// time belongs to at most one intentional leaf span; zero-width send
// markers embedded in compute spans do not make the compute span a
// container.
func Build(spans []telemetry.Span) *DAG {
	leaves := leafSpans(spans)
	d := &DAG{ByRank: map[int][]*Node{}}

	sends := map[streamID]*Node{}
	colls := map[int64][]*Node{}
	for _, s := range leaves {
		n := &Node{Span: s, idx: len(d.ByRank[s.Track])}
		d.ByRank[s.Track] = append(d.ByRank[s.Track], n)
		switch s.Kind {
		case telemetry.SpanSend:
			sends[streamID{s.CommID, s.Track, s.Peer, s.Tag, s.Seq}] = n
		case telemetry.SpanCollective:
			colls[s.Seq] = append(colls[s.Seq], n)
		}
	}
	for _, nodes := range d.ByRank {
		for _, n := range nodes {
			switch n.Span.Kind {
			case telemetry.SpanRecv:
				s := n.Span
				n.Send = sends[streamID{s.CommID, s.Peer, s.Track, s.Tag, s.Seq}]
				if n.Send == nil {
					d.UnmatchedRecvs++
				}
			case telemetry.SpanCollective:
				if g := colls[n.Span.Seq]; len(g) > 1 {
					n.Group = g
				}
			}
		}
	}
	for r := range d.ByRank {
		d.Ranks = append(d.Ranks, r)
	}
	sort.Ints(d.Ranks)
	return d
}

// leafSpans filters a (track, start)-sorted snapshot down to leaf spans.
func leafSpans(spans []telemetry.Span) []telemetry.Span {
	byTrack := map[int][]telemetry.Span{}
	for _, s := range spans {
		byTrack[s.Track] = append(byTrack[s.Track], s)
	}
	var out []telemetry.Span
	for _, ts := range byTrack {
		sort.SliceStable(ts, func(i, j int) bool {
			if ts[i].Start != ts[j].Start {
				return ts[i].Start < ts[j].Start
			}
			return ts[i].Dur > ts[j].Dur // outermost first at equal start
		})
		container := make([]bool, len(ts))
		var stack []int
		for i, s := range ts {
			for len(stack) > 0 && ts[stack[len(stack)-1]].End() < s.End() {
				stack = stack[:len(stack)-1]
			}
			// The stack top now covers s (its end ≥ s.End, its start ≤
			// s.Start by sort order): s is nested inside it. Only spans
			// occupying positive interior time demote their cover to a
			// container — zero-width markers (sends, and instantaneous
			// recvs that merely touch a boundary) are causal bookkeeping,
			// not time ownership, and never join the stack; and two spans
			// sharing exact bounds stay peers rather than one swallowing
			// the other.
			if len(stack) > 0 && s.Dur > 0 {
				top := ts[stack[len(stack)-1]]
				if top.Start < s.Start || top.End() > s.End() {
					container[stack[len(stack)-1]] = true
				}
			}
			if s.Kind != telemetry.SpanSend && s.Dur > 0 {
				stack = append(stack, i)
			}
		}
		for i, s := range ts {
			if !container[i] {
				out = append(out, s)
			}
		}
	}
	// Order rank slices by start, with instantaneous events before the
	// wider spans they gate at the same instant (a zero-duration recv
	// precedes the compute it unblocked) — this is program order for
	// spans emitted sequentially by one rank goroutine.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Track != out[j].Track {
			return out[i].Track < out[j].Track
		}
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Dur < out[j].Dur
	})
	return out
}
