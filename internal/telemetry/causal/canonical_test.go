package causal

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/telemetry"
)

// Canonical renders the DAG's causal structure — not its timestamps —
// as a deterministic string: per-rank compute task order, the sorted
// message-edge set, and the sorted collective groups. Two runs of the
// same deterministic program produce equal Canonical strings even
// though every span's wall-clock coordinates differ, which is what the
// merge-determinism tests assert.
func (d *DAG) Canonical() string {
	var b strings.Builder
	for _, r := range d.Ranks {
		fmt.Fprintf(&b, "rank %d:", r)
		for _, n := range d.ByRank[r] {
			if n.Span.Kind == telemetry.SpanNone {
				fmt.Fprintf(&b, " %s", n.Span.Name)
			}
		}
		b.WriteByte('\n')
	}
	var edges []string
	var groups []string
	for _, r := range d.Ranks {
		for _, n := range d.ByRank[r] {
			switch n.Span.Kind {
			case telemetry.SpanRecv:
				s := n.Span
				edges = append(edges, fmt.Sprintf("msg c%d %d->%d tag %d seq %d bytes %d",
					s.CommID, s.Peer, s.Track, s.Tag, s.Seq, s.Bytes))
			case telemetry.SpanCollective:
				if len(n.Group) == 0 || n.Group[0] != n {
					continue // emit each group once, from its first member
				}
				ranks := make([]int, 0, len(n.Group))
				for _, g := range n.Group {
					ranks = append(ranks, g.Rank())
				}
				sort.Ints(ranks)
				groups = append(groups, fmt.Sprintf("coll %s seq %d ranks %v", n.Span.Name, n.Span.Seq, ranks))
			}
		}
	}
	sort.Strings(edges)
	sort.Strings(groups)
	for _, e := range edges {
		b.WriteString(e)
		b.WriteByte('\n')
	}
	for _, g := range groups {
		b.WriteString(g)
		b.WriteByte('\n')
	}
	if d.UnmatchedRecvs > 0 {
		fmt.Fprintf(&b, "unmatched recvs: %d\n", d.UnmatchedRecvs)
	}
	return b.String()
}
