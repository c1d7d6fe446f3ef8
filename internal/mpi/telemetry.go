package mpi

import (
	"fmt"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Per-collective-type accounting and span tracing. Every collective entry
// point funnels through Comm.collective, which on the world communicator
// (1) bumps the rank's total and per-kind counters, and (2) when a tracer
// is attached to the World, opens a span tagged with the payload size and
// algorithm — closed by the returned func. With no tracer attached the
// cost is two atomic adds.

// CollectiveKind identifies a collective operation for per-type counts.
type CollectiveKind int

// Collective kinds, in the order they appear in collectives.go.
const (
	KindBarrier CollectiveKind = iota
	KindBcast
	KindReduce
	KindAllreduce
	KindReduceScatter
	KindAllgather
	KindGather
	KindSplit
	NumCollectiveKinds
)

var kindNames = [NumCollectiveKinds]string{
	"barrier", "bcast", "reduce", "allreduce", "reduce-scatter",
	"allgather", "gather", "split",
}

// String returns the kind's canonical lowercase name.
func (k CollectiveKind) String() string {
	if k < 0 || k >= NumCollectiveKinds {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// noopEnd is returned when tracing is off so collective call sites can
// unconditionally defer the result without allocating a closure.
var noopEnd = func() {}

// collective records a collective call of the given kind moving elems
// float64 elements (8 bytes each) with an optional algorithm tag, and
// returns the span-closing func. Nested collectives (e.g. the tree
// allreduce calling its reduce and Bcast) count and trace individually.
//
// Only world-communicator collectives are counted and given a collective
// span. A collective issued on a split group is neither: causal.Build
// joins the ranks' collective spans into one barrier node by Seq alone,
// and Seq is the world-rank call count, which only lines up across ranks
// for calls every rank makes. Group members would bump it at different
// positions and mis-join unrelated collectives. A group collective shows
// up instead as what it is on the wire — p2p send/recv spans carrying the
// group's CommID (every tag of a group's block is traced, see traceTag) —
// and in MessagesSent/ElemsSent, which count all traffic.
func (c *Comm) collective(kind CollectiveKind, elems int, attr string) func() {
	if c.g.id != 0 {
		return noopEnd
	}
	st := &c.world.stats[c.wrank]
	// The incremented total doubles as the causal sequence: collectives
	// are issued in the same order on every rank (SPMD), so equal values
	// on different ranks name the same collective instance — the merge
	// layer joins them into one barrier node without cross-rank clocks.
	seq := atomic.AddInt64(&st.Collectives, 1)
	atomic.AddInt64(&st.ByKind[kind], 1)
	tr := c.world.tracer.Load()
	if tr == nil {
		return noopEnd
	}
	start := tr.Start()
	rank := c.wrank
	return func() {
		tr.EmitSpan(telemetry.Span{
			Track: rank, Cat: telemetry.CatCollective, Name: kind.String(),
			Start: start, Dur: tr.Start() - start, Bytes: int64(elems) * 8, Attr: attr,
			Kind: telemetry.SpanCollective, Peer: -1, Seq: seq,
		})
	}
}

// SetTracer attaches a span tracer to the world: every collective on any
// rank emits a telemetry.CatCollective span onto the rank's track, and
// every p2p operation on a user-visible tag emits a causally tagged
// send/recv span (causal.go), all tagged with payload bytes and (for
// Allreduce) the resolved algorithm. Rank tracks are named "rank N".
// Pass nil to disable tracing again. Attach while ranks are quiescent:
// the per-stream sequence counters reset here, and messages in flight
// across the switch would go unmatched in the causal merge.
func (w *World) SetTracer(t *telemetry.Tracer) {
	for r := range w.causal {
		w.causal[r].reset()
	}
	w.tracer.Store(t)
	for r := 0; r < w.size; r++ {
		t.SetTrackName(r, fmt.Sprintf("rank %d", r))
	}
}

// RegisterMetrics exposes the world's traffic counters through a
// telemetry registry: per-type collective counts (summed across ranks),
// point-to-point message and element totals, and the world size.
func (w *World) RegisterMetrics(reg *telemetry.Registry) {
	reg.SetHelp("msa_mpi_collectives_total", "collective calls by type, summed across ranks")
	for k := CollectiveKind(0); k < NumCollectiveKinds; k++ {
		kind := k
		reg.CounterFunc("msa_mpi_collectives_total", func() float64 { return float64(w.TotalStats().ByKind[kind]) },
			telemetry.Label{Key: "type", Value: kind.String()})
	}
	reg.CounterFunc("msa_mpi_messages_sent_total", func() float64 { return float64(w.TotalStats().MessagesSent) })
	reg.CounterFunc("msa_mpi_elements_sent_total", func() float64 { return float64(w.TotalStats().ElemsSent) })
	reg.GaugeFunc("msa_mpi_world_size", func() float64 { return float64(w.size) })
}
