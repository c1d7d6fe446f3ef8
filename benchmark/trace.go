package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The benchmark's own span recorder. In the traced run every call into a
// module's public surface is bracketed by begin/end from the wrappers in
// wrap.go; nothing inside the program is instrumented. A track is owned by
// one goroutine at a time (a rank, a replica, the dispatcher), so recording
// is an append without contention; the mutex only orders hand-overs between
// goroutines (serving replicas) and costs an uncontended lock.

// span is one timed interval on a track. Parent is the index of the
// enclosing span on the same track, or -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	// Arg is the payload size in bytes, the batch rows, or the request id,
	// depending on the span.
	Arg int64 `json:"arg,omitempty"`
}

// maxSpansPerTrack bounds memory on the cache-hit serving path, which can
// complete hundreds of thousands of requests per second; totals keep
// counting after the span list is full.
const maxSpansPerTrack = 400_000

// track records the spans of one rank, replica or request stream. A nil
// track records nothing, which is the untraced run.
type track struct {
	mu    sync.Mutex
	id    string
	t0    time.Time
	spans []span
	stack []int32
	// dropped counts spans not stored once the track is full.
	dropped int64
}

func newTrack(id string, t0 time.Time) *track {
	return &track{id: id, t0: t0, spans: make([]span, 0, 1<<12)}
}

// begin opens a span nested under the track's innermost open span.
func (t *track) begin(name string, arg int64) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpansPerTrack {
		t.dropped++
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent, Arg: arg, Start: time.Since(t.t0).Nanoseconds()})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned. Spans close innermost first.
func (t *track) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.stack = t.stack[:len(t.stack)-1]
	t.mu.Unlock()
}

// add records an already-timed, childless span (a request timed by its
// caller goroutine).
func (t *track) add(name string, start, end time.Time, arg int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpansPerTrack {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{Name: name, Parent: -1, Arg: arg,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// selfTimes sums, per span name, the span's duration minus the part its
// direct children cover, over spans starting in [from, to); with under set,
// only over spans nested (at any depth) inside a span of that name. Because
// every child lies inside its parent, the self times of a subtree add up to
// the root span's duration by construction.
func (t *track) selfTimes(from, to int64, under string) (self, total, count map[string]int64) {
	self, total, count = map[string]int64{}, map[string]int64{}, map[string]int64{}
	if t == nil {
		return
	}
	child := make([]int64, len(t.spans))
	inside := make([]bool, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 { // a parent is always recorded before its children
			child[s.Parent] += s.End - s.Start
			inside[i] = inside[s.Parent] || t.spans[s.Parent].Name == under
		}
	}
	for i, s := range t.spans {
		if s.Start < from || s.Start >= to || s.End == 0 || (under != "" && !inside[i]) {
			continue
		}
		d := s.End - s.Start
		self[s.Name] += d - child[i]
		total[s.Name] += d
		count[s.Name]++
	}
	return
}

// rootCover returns the time top-level spans cover inside [from, to).
func (t *track) rootCover(from, to int64) int64 {
	var cover int64
	if t == nil {
		return 0
	}
	for _, s := range t.spans {
		if s.Parent == -1 && s.Start >= from && s.Start < to {
			cover += s.End - s.Start
		}
	}
	return cover
}

// traceSet is all tracks of one workload run.
type traceSet struct {
	t0     time.Time
	mu     sync.Mutex
	tracks []*track
}

func newTraceSet() *traceSet { return &traceSet{t0: time.Now()} }

// track creates a new track; on a nil set (untraced run) it returns nil,
// which records nothing.
func (ts *traceSet) track(format string, args ...any) *track {
	if ts == nil {
		return nil
	}
	t := newTrack(fmt.Sprintf(format, args...), ts.t0)
	ts.mu.Lock()
	ts.tracks = append(ts.tracks, t)
	ts.mu.Unlock()
	return t
}

func (ts *traceSet) since() int64 {
	if ts == nil {
		return 0
	}
	return time.Since(ts.t0).Nanoseconds()
}

// write stores the spans as JSON under <out>/<workload>.trace.json.
func (ts *traceSet) write(outDir, workload string) error {
	if ts == nil {
		return nil
	}
	type trackJSON struct {
		ID      string `json:"track"`
		Dropped int64  `json:"dropped,omitempty"`
		Spans   []span `json:"spans"`
	}
	var out []trackJSON
	for _, t := range ts.tracks {
		out = append(out, trackJSON{ID: t.id, Dropped: t.dropped, Spans: t.spans})
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("creating %s: %w", outDir, err)
	}
	path := filepath.Join(outDir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	if err := json.NewEncoder(f).Encode(out); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", path, err)
	}
	return nil
}
