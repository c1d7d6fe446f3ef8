package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// TestDDPChromeTraceExport is the end-to-end observability acceptance
// check: a 4-rank training run must produce a valid Chrome trace-event
// JSON with one distinct track per rank; per step and rank, one
// reduce-scatter and one allgather span with payload bytes (the gradient
// sync) and one recursive-doubling allreduce (the loss sync); and a
// Prometheus text dump carrying per-kind collective counters.
func TestDDPChromeTraceExport(t *testing.T) {
	// 32 samples → 24 train → an even 6 per rank: synchronous DDP needs
	// every rank to take the same number of steps.
	ds := data.GenMultispectral(data.MultispectralConfig{Samples: 32, Seed: 5})
	split := data.TrainValSplit(32, 0.25, 6)
	tracer := telemetry.NewTracer(0)
	reg := telemetry.NewRegistry()
	res := TrainResNetBigEarthNet(DDPConfig{Workers: 4, Epochs: 1, Batch: 4,
		BaseLR: 0.01, Seed: 7, Tracer: tracer, Registry: reg}, ds, split)
	if res.Steps <= 0 {
		t.Fatalf("run did not train: %+v", res)
	}

	var buf bytes.Buffer
	if err := tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var trace telemetry.ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}

	tids := map[int]bool{}
	perStep := map[string]int{} // gradient and loss sync spans, by name
	steps := 0
	for _, ev := range trace.TraceEvents {
		switch ev.Ph {
		case "M":
			continue
		case "X":
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
		tids[ev.Tid] = true
		if ev.Dur < 0 {
			t.Fatalf("negative duration in event %q", ev.Name)
		}
		switch ev.Cat {
		case string(telemetry.CatCollective):
			b, _ := ev.Args["bytes"].(float64)
			switch ev.Name {
			case "reduce-scatter", "allgather":
				if b <= 0 {
					t.Fatalf("%s span missing payload bytes: %+v", ev.Name, ev)
				}
			case "allreduce":
				if attr, _ := ev.Args["attr"].(string); b != 8 || attr != string(mpi.AlgoRecursiveDoubling) {
					t.Fatalf("loss allreduce span: %+v, want 8 bytes by %s", ev, mpi.AlgoRecursiveDoubling)
				}
			}
			perStep[ev.Name]++
		case string(telemetry.CatStep):
			steps++
		}
	}
	if len(tids) < 4 {
		t.Fatalf("trace has %d distinct tracks, want >= 4 (one per rank)", len(tids))
	}
	if steps != 4*res.Steps {
		t.Fatalf("%d step spans, want %d", steps, 4*res.Steps)
	}
	for _, name := range []string{"reduce-scatter", "allgather", "allreduce"} {
		if perStep[name] != steps {
			t.Fatalf("%d %s spans over %d rank steps, want one per step", perStep[name], name, steps)
		}
	}
	names := tracer.TrackNames()
	for r := 0; r < 4; r++ {
		if names[r] == "" {
			t.Fatalf("rank %d track unnamed", r)
		}
	}

	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := prom.String()
	for _, want := range []string{
		`msa_mpi_collectives_total{type="allreduce"}`,
		`msa_mpi_collectives_total{type="bcast"}`,
		"msa_mpi_world_size 4",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("Prometheus dump missing %q:\n%s", want, text)
		}
	}
}
