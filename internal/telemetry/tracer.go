// Package telemetry is the repository's shared observability layer: a
// low-overhead span tracer with per-track ring buffers exportable as
// Chrome trace-event JSON (chrome://tracing / Perfetto), and a metrics
// registry of atomic counters, gauges, and power-of-two histograms with a
// Prometheus text-format exporter.
//
// The paper's scaling claims (§III-A: near-linear Horovod speed-up to
// 96/128 GPUs) rest on per-rank communication/compute timelines of the
// kind HPC teams obtain from Score-P/Vampir; MLPerf HPC likewise makes
// time-to-train *and* its breakdown the first-class metric. This package
// gives every hot subsystem (mpi collectives, distdl training steps, the
// sched simulator, the serve tier) one way to answer "where did the time
// go" — with a disabled path cheap enough (<10 ns per span call, see
// bench_test.go) to leave the instrumentation compiled in everywhere.
//
// A nil *Tracer is the disabled tracer: every method no-ops, and Start
// skips the clock read entirely, so call sites never need a guard.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Category classifies a span for timeline coloring and summary rollups.
type Category string

// Span categories used across the repository.
const (
	// CatCollective marks an mpi collective primitive (allreduce, bcast…).
	CatCollective Category = "collective"
	// CatComm marks a trainer-level communication region (gradient sync);
	// it may contain nested CatCollective spans from the mpi layer.
	CatComm Category = "comm"
	// CatCompute marks forward/backward/optimizer work.
	CatCompute Category = "compute"
	// CatStep marks one whole optimizer step.
	CatStep Category = "step"
	// CatFleet marks fleet control-plane transitions (canary rollbacks,
	// promotions, scale events, drains) and routed requests.
	CatFleet Category = "fleet"
)

// SpanKind marks a span as a causally matchable communication event.
// Kinded spans carry the (CommID, Peer, Tag, Seq) identity that lets the
// causal merge (internal/telemetry/causal) join N per-rank span streams
// into one global happens-before DAG: the k-th send on a (src, dst, tag)
// stream is the k-th receive on the other side (MPI's non-overtaking
// guarantee makes matching positional), and the k-th collective call on
// every rank of a communicator is one collective instance (SPMD issue
// order).
type SpanKind uint8

// Span kinds. SpanNone (the zero value) is a plain timed region.
const (
	SpanNone SpanKind = iota
	// SpanSend marks a point-to-point send; Peer is the destination rank.
	SpanSend
	// SpanRecv marks a point-to-point receive, covering the blocked wait;
	// Peer is the actual source rank.
	SpanRecv
	// SpanCollective marks one rank's participation in a collective; Seq
	// is the rank's collective-issue counter, equal across ranks for the
	// same instance.
	SpanCollective
)

// Span is one completed timed region on a track. Tracks map to Chrome
// trace rows (tid): MPI ranks, serve replicas, or MSA modules.
type Span struct {
	Track int
	Cat   Category
	Name  string
	Start int64  // ns since the tracer epoch (or simulated ns)
	Dur   int64  // ns
	Bytes int64  // payload size, 0 when not applicable
	Attr  string // free-form tag (allreduce algorithm, node count…)

	// Causal identity, zero for plain spans (Kind == SpanNone).
	Kind SpanKind
	// CommID distinguishes communicators: 0 is the world (and plain user
	// tags); a split group carries the comm id its Split assigned, which
	// is also its tag-block index.
	CommID int
	// Peer is the remote rank for p2p events (destination for sends,
	// source for receives); meaningless unless Kind is SpanSend/SpanRecv.
	Peer int
	// Tag is the message tag for p2p events.
	Tag int
	// Seq is the per-stream sequence: the position of this event on its
	// (src, dst, tag) p2p stream, or the rank's collective-issue counter.
	Seq int64
}

// End returns the span's end time in ns since the epoch.
func (s Span) End() int64 { return s.Start + s.Dur }

// DefaultRingSize is the per-track span capacity when NewTracer is given
// a non-positive size. Oldest spans are overwritten once a ring is full.
const DefaultRingSize = 1 << 14

// ring is one track's bounded span buffer.
type ring struct {
	mu    sync.Mutex
	spans []Span
	next  int
	full  bool
}

// Tracer records spans into per-track ring buffers. All methods are safe
// for concurrent use from any number of goroutines; a nil Tracer is the
// always-off tracer.
type Tracer struct {
	epoch   time.Time
	ringCap int
	dropped atomic.Int64

	mu    sync.RWMutex
	rings map[int]*ring
	names map[int]string
}

// NewTracer creates an enabled tracer holding up to spansPerTrack spans
// per track (DefaultRingSize when <= 0).
func NewTracer(spansPerTrack int) *Tracer {
	if spansPerTrack <= 0 {
		spansPerTrack = DefaultRingSize
	}
	return &Tracer{
		epoch:   time.Now(),
		ringCap: spansPerTrack,
		rings:   map[int]*ring{},
		names:   map[int]string{},
	}
}

// Start returns the current time in ns since the tracer epoch, to be
// passed to End. On a nil tracer it returns 0 without reading the clock —
// the disabled hot path is a nil check and nothing else.
func (t *Tracer) Start() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// End records a span opened by Start. No-op on a nil tracer.
func (t *Tracer) End(track int, cat Category, name string, start, bytes int64, attr string) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.Emit(track, cat, name, start, now-start, bytes, attr)
}

// Emit records a span with explicit start/duration — the entry point for
// simulated clocks (the sched simulator) and pre-measured regions.
func (t *Tracer) Emit(track int, cat Category, name string, start, dur, bytes int64, attr string) {
	if t == nil {
		return
	}
	t.EmitSpan(Span{Track: track, Cat: cat, Name: name, Start: start, Dur: dur, Bytes: bytes, Attr: attr})
}

// EmitSpan records a fully populated span, including causal identity
// fields that the positional Emit signature cannot carry. No-op on a nil
// tracer.
func (t *Tracer) EmitSpan(s Span) {
	if t == nil {
		return
	}
	if s.Dur < 0 {
		s.Dur = 0
	}
	r := t.ringFor(s.Track)
	r.mu.Lock()
	if len(r.spans) < t.ringCap {
		r.spans = append(r.spans, s)
	} else {
		r.spans[r.next] = s
		r.full = true
		t.dropped.Add(1)
	}
	r.next = (r.next + 1) % t.ringCap
	r.mu.Unlock()
}

func (t *Tracer) ringFor(track int) *ring {
	t.mu.RLock()
	r := t.rings[track]
	t.mu.RUnlock()
	if r != nil {
		return r
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if r = t.rings[track]; r == nil {
		r = &ring{}
		t.rings[track] = r
	}
	return r
}

// SetTrackName labels a track (rendered as the Chrome trace thread name).
// No-op on a nil tracer.
func (t *Tracer) SetTrackName(track int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.names[track] = name
	t.mu.Unlock()
}

// TrackNames returns a copy of the track-name table.
func (t *Tracer) TrackNames() map[int]string {
	if t == nil {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[int]string, len(t.names))
	for k, v := range t.names {
		out[k] = v
	}
	return out
}

// Dropped returns how many spans were overwritten by ring wrap-around.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Spans returns a snapshot of all recorded spans sorted by (track, start).
// A nil tracer returns nil.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.RLock()
	tracks := make([]int, 0, len(t.rings))
	for id := range t.rings {
		tracks = append(tracks, id)
	}
	rings := make([]*ring, 0, len(tracks))
	sort.Ints(tracks)
	for _, id := range tracks {
		rings = append(rings, t.rings[id])
	}
	t.mu.RUnlock()

	var out []Span
	for _, r := range rings {
		r.mu.Lock()
		if r.full {
			// Oldest-first: the slot at next is the oldest surviving span.
			out = append(out, r.spans[r.next:]...)
			out = append(out, r.spans[:r.next]...)
		} else {
			out = append(out, r.spans...)
		}
		r.mu.Unlock()
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Track != out[j].Track {
			return out[i].Track < out[j].Track
		}
		return out[i].Start < out[j].Start
	})
	return out
}
