package telemetry

import (
	"testing"
	"time"
)

// BenchmarkDisabledSpan measures the cost of a Start/End pair on the nil
// (disabled) tracer — the price every instrumented hot path pays when
// tracing is off. The acceptance bar is <10 ns/op; the path is a nil
// check, so it should measure low single-digit ns.
func BenchmarkDisabledSpan(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		start := tr.Start()
		tr.End(0, CatCollective, "allreduce", start, 4096, "ring")
	}
}

// BenchmarkEnabledSpan measures a recorded Start/End pair (two clock
// reads plus a ring append under a per-track mutex).
func BenchmarkEnabledSpan(b *testing.B) {
	tr := NewTracer(1 << 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		start := tr.Start()
		tr.End(0, CatCollective, "allreduce", start, 4096, "ring")
	}
}

// BenchmarkHistogramObserve measures one latency observation.
func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(123 * time.Microsecond)
	}
}

// TestDisabledTracerOverhead enforces the <10 ns/op bar for the disabled
// tracer. Skipped under the race detector, which instruments function
// entry and would measure the detector, not the tracer.
func TestDisabledTracerOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("timing assertion is meaningless under -race")
	}
	res := testing.Benchmark(BenchmarkDisabledSpan)
	if ns := res.NsPerOp(); ns >= 10 {
		t.Fatalf("disabled tracer costs %d ns/op, want <10", ns)
	}
	if allocs := res.AllocsPerOp(); allocs != 0 {
		t.Fatalf("disabled tracer allocates %d per op, want 0", allocs)
	}
}
