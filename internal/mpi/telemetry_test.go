package mpi

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestPerKindCollectiveCounts asserts the per-collective-type breakdown
// after a small run: 3 allreduces and 2 bcasts per rank on a 4-rank
// world, with totals staying consistent with the undifferentiated
// counter.
func TestPerKindCollectiveCounts(t *testing.T) {
	w := NewWorld(4)
	err := w.Run(func(c *Comm) error {
		for i := 0; i < 3; i++ {
			c.Allreduce([]float64{1, 2}, OpSum, AlgoRing)
		}
		c.Bcast(0, []float64{1})
		c.Bcast(1, []float64{2})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		s := w.RankStats(r)
		if s.ByKind[KindAllreduce] != 3 {
			t.Fatalf("rank %d allreduce count %d, want 3", r, s.ByKind[KindAllreduce])
		}
		if s.ByKind[KindBcast] != 2 {
			t.Fatalf("rank %d bcast count %d, want 2", r, s.ByKind[KindBcast])
		}
		var byKind int64
		for _, n := range s.ByKind {
			byKind += n
		}
		if byKind != s.Collectives {
			t.Fatalf("rank %d: per-kind sum %d != total %d", r, byKind, s.Collectives)
		}
	}
	tot := w.TotalStats()
	if tot.ByKind[KindAllreduce] != 12 || tot.ByKind[KindBcast] != 8 {
		t.Fatalf("total by-kind: %+v", tot.ByKind)
	}
}

// TestTreeAllreduceCountsNestedKinds checks that the tree algorithm's
// internal Reduce+Bcast still show up per kind (the pre-existing nested
// counting behavior, now differentiated).
func TestTreeAllreduceCountsNestedKinds(t *testing.T) {
	w := NewWorld(2)
	_ = w.Run(func(c *Comm) error {
		c.Allreduce([]float64{1}, OpSum, AlgoTree)
		return nil
	})
	s := w.RankStats(0)
	if s.ByKind[KindAllreduce] != 1 || s.ByKind[KindReduce] != 1 || s.ByKind[KindBcast] != 1 {
		t.Fatalf("tree allreduce kinds: %+v", s.ByKind)
	}
}

// TestCollectiveSpans runs traced collectives on a 4-rank world and
// validates that every rank's track carries spans tagged with payload
// bytes and the algorithm.
func TestCollectiveSpans(t *testing.T) {
	tr := telemetry.NewTracer(0)
	w := NewWorld(4)
	w.SetTracer(tr)
	const n = 32
	err := w.Run(func(c *Comm) error {
		buf := make([]float64, n)
		c.Allreduce(buf, OpSum, AlgoRecursiveDoubling)
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	perRank := map[int]int{}
	for _, s := range spans {
		if s.Cat != telemetry.CatCollective {
			t.Fatalf("unexpected category %q", s.Cat)
		}
		perRank[s.Track]++
		switch s.Name {
		case "allreduce":
			if s.Bytes != n*8 {
				t.Fatalf("allreduce span bytes %d, want %d", s.Bytes, n*8)
			}
			if s.Attr != string(AlgoRecursiveDoubling) {
				t.Fatalf("allreduce span attr %q, want %q", s.Attr, AlgoRecursiveDoubling)
			}
		case "barrier":
			if s.Bytes != 0 {
				t.Fatalf("barrier span bytes %d", s.Bytes)
			}
		default:
			t.Fatalf("unexpected span %q", s.Name)
		}
	}
	if len(perRank) != 4 {
		t.Fatalf("tracks with spans: %d, want 4", len(perRank))
	}
	for r, cnt := range perRank {
		if cnt != 2 {
			t.Fatalf("rank %d span count %d, want 2", r, cnt)
		}
	}
	names := tr.TrackNames()
	if names[0] != "rank 0" || names[3] != "rank 3" {
		t.Fatalf("track names: %v", names)
	}
}

// TestWorldRegisterMetrics checks the Prometheus re-export of the
// per-type counters.
func TestWorldRegisterMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	w := NewWorld(2)
	w.RegisterMetrics(reg)
	_ = w.Run(func(c *Comm) error {
		c.Allreduce([]float64{1}, OpSum, AlgoRing)
		c.Barrier()
		return nil
	})
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`msa_mpi_collectives_total{type="allreduce"} 2`,
		`msa_mpi_collectives_total{type="barrier"} 2`,
		`msa_mpi_collectives_total{type="gather"} 0`,
		"msa_mpi_world_size 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("registry export missing %q:\n%s", want, out)
		}
	}
}

// TestSetTracerNilDisables verifies tracing can be turned off again.
func TestSetTracerNilDisables(t *testing.T) {
	tr := telemetry.NewTracer(0)
	w := NewWorld(2)
	w.SetTracer(tr)
	_ = w.Run(func(c *Comm) error { c.Barrier(); return nil })
	w.SetTracer(nil)
	_ = w.Run(func(c *Comm) error { c.Barrier(); return nil })
	if got := len(tr.Spans()); got != 2 {
		t.Fatalf("spans after disable: %d, want 2", got)
	}
}
