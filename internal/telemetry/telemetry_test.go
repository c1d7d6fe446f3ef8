package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerRecordsSpans(t *testing.T) {
	tr := NewTracer(0)
	tr.SetTrackName(0, "rank 0")
	start := tr.Start()
	time.Sleep(time.Millisecond)
	tr.End(0, CatCollective, "allreduce", start, 8192, "ring")
	tr.Emit(1, CatCompute, "fwd", 100, 50, 0, "")

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	s := spans[0]
	if s.Track != 0 || s.Cat != CatCollective || s.Name != "allreduce" {
		t.Fatalf("span 0: %+v", s)
	}
	if s.Bytes != 8192 || s.Attr != "ring" {
		t.Fatalf("span tags: %+v", s)
	}
	if s.Dur < int64(time.Millisecond) {
		t.Fatalf("duration %d too short", s.Dur)
	}
	if spans[1].Track != 1 || spans[1].Start != 100 || spans[1].Dur != 50 {
		t.Fatalf("span 1: %+v", spans[1])
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	start := tr.Start()
	if start != 0 {
		t.Fatalf("nil Start = %d", start)
	}
	tr.End(0, CatStep, "x", start, 0, "")
	tr.Emit(0, CatStep, "x", 0, 1, 0, "")
	tr.SetTrackName(0, "x")
	if tr.Spans() != nil || tr.Dropped() != 0 || tr.TrackNames() != nil {
		t.Fatal("nil tracer leaked state")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(0, CatStep, "s", int64(i), 1, 0, "")
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	// Oldest-first order, holding the last 4 emitted.
	for i, s := range spans {
		if s.Start != int64(6+i) {
			t.Fatalf("span %d start %d, want %d", i, s.Start, 6+i)
		}
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped %d, want 6", tr.Dropped())
	}
}

func TestTracerConcurrentEmit(t *testing.T) {
	tr := NewTracer(1 << 10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				st := tr.Start()
				tr.End(g, CatCompute, "work", st, int64(i), "")
			}
		}(g)
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 800 {
		t.Fatalf("got %d spans, want 800", got)
	}
}

func TestChromeTraceJSONStructure(t *testing.T) {
	tr := NewTracer(0)
	for rank := 0; rank < 4; rank++ {
		tr.SetTrackName(rank, "rank")
		tr.Emit(rank, CatCollective, "allreduce", 1000, 500, 4096, "ring")
		tr.Emit(rank, CatCompute, "fwd-bwd", 0, 900, 0, "")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q", trace.DisplayTimeUnit)
	}
	tids := map[int]bool{}
	var collectives, meta int
	for _, ev := range trace.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			if ev.Name != "thread_name" || ev.Args["name"] != "rank" {
				t.Fatalf("metadata event: %+v", ev)
			}
		case "X":
			tids[ev.Tid] = true
			if ev.Cat == string(CatCollective) {
				collectives++
				if ev.Args["bytes"] != float64(4096) || ev.Args["attr"] != "ring" {
					t.Fatalf("collective args: %+v", ev.Args)
				}
				if ev.Ts != 1.0 || ev.Dur != 0.5 { // µs
					t.Fatalf("collective timing: %+v", ev)
				}
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if len(tids) != 4 {
		t.Fatalf("distinct tracks %d, want 4", len(tids))
	}
	if collectives != 4 || meta != 4 {
		t.Fatalf("collectives %d meta %d", collectives, meta)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond) // bucket [64,128)µs
	}
	for i := 0; i < 10; i++ {
		h.Observe(10 * time.Millisecond) // bucket [8192,16384)µs
	}
	if h.Count() != 100 {
		t.Fatalf("count %d", h.Count())
	}
	p50, p99 := h.Quantile(0.50), h.Quantile(0.99)
	if p50 < 64*time.Microsecond || p50 >= 128*time.Microsecond {
		t.Fatalf("p50 %v outside [64µs,128µs)", p50)
	}
	if p99 < 8192*time.Microsecond || p99 >= 16384*time.Microsecond {
		t.Fatalf("p99 %v outside [8.192ms,16.384ms)", p99)
	}
	if m := h.Mean(); m < time.Millisecond || m > 2*time.Millisecond {
		t.Fatalf("mean %v", m)
	}
}

func TestRegistryPrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("msa_requests_total", Label{"kind", "ok"}).Add(7)
	reg.Counter("msa_requests_total", Label{"kind", "shed"}).Add(1)
	reg.SetHelp("msa_requests_total", "requests by outcome")
	reg.Gauge("msa_queue_depth").Set(3)
	reg.GaugeFunc("msa_uptime_seconds", func() float64 { return 1.5 })
	h := &Histogram{}
	reg.AttachHistogram("msa_latency_seconds", h)
	h.Observe(100 * time.Microsecond)
	h.Observe(3 * time.Millisecond)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP msa_requests_total requests by outcome",
		"# TYPE msa_requests_total counter",
		`msa_requests_total{kind="ok"} 7`,
		`msa_requests_total{kind="shed"} 1`,
		"# TYPE msa_queue_depth gauge",
		"msa_queue_depth 3",
		"msa_uptime_seconds 1.5",
		"# TYPE msa_latency_seconds histogram",
		`msa_latency_seconds_bucket{le="+Inf"} 2`,
		"msa_latency_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Cumulative buckets must be non-decreasing and end at count.
	if !strings.Contains(out, "msa_latency_seconds_sum 0.0031") {
		t.Fatalf("histogram sum missing:\n%s", out)
	}
}

func TestRegistryCreateOrGet(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total")
	b := reg.Counter("x_total")
	if a != b {
		t.Fatal("same name returned different counters")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type conflict did not panic")
		}
	}()
	reg.Gauge("x_total")
}

func TestRegistryHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits_total").Add(2)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(buf.String(), "hits_total 2") {
		t.Fatalf("handler body:\n%s", buf.String())
	}
}
