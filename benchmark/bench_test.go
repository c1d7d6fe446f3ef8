package main

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/tensor"
)

// TestMain grows the tensor helper pool from one goroutine before any test
// starts ranks. tensor.ensureHelpers reads its pool size without the lock
// ("racy fast check"), which the race detector reports when two ranks make
// their first parallel kernel call at the same moment; that is the
// program's business, not this package's, so the tests step around it.
func TestMain(m *testing.M) {
	a, out := tensor.New(256, 256), tensor.New(256, 256)
	tensor.MatMulInto(out, a, a)
	os.Exit(m.Run())
}

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmokeAllWorkloads runs every workload at smoke scale, untraced and
// traced, and checks that no operation fails and that exactly the metrics
// BENCHMARK.json names come out, once each.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			o := options{workload: w, seed: 1, seconds: 0.1, trace: traced, smoke: true, outDir: t.TempDir()}
			res, err := runWorkload(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w, traced, res.failed, res.attempted, res.notes)
			}
			defs := e2eDefs
			if traced {
				defs = layerDefs
			} else {
				res.metrics["peak_rss_mb"] = peakRSSMB()
			}
			line := report(o, res)
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics reported, want %d", w, traced, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := line.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q != %q", w, traced, d.name, m.Unit, d.unit)
				}
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, d.name, m.Value)
				}
			}
			for name := range res.metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("%s: metric name %q is outside [A-Za-z0-9_.-]", w, name)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesCode pins the contract file to the metric and
// workload tables compiled into the command.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	var spec benchSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if !nameRE.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why (%d chars)", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, code has %v", names, workloadNames())
	}
	var e2e, layer []metricDef
	setup := false
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better, m.Bound})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better, 0})
	}
	if !setup {
		t.Error("setup_s (s, lower) is missing from end_to_end")
	}
	if !reflect.DeepEqual(e2e, e2eDefs) {
		t.Errorf("end_to_end = %v, code has %v", e2e, e2eDefs)
	}
	if !reflect.DeepEqual(layer, layerDefs) {
		t.Errorf("per_layer differs from the code's layerDefs:\n json %v\n code %v", layer, layerDefs)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, e2eDefs...), layerDefs...) {
		if seen[d.name] || !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q repeated or malformed", d.name)
		}
		seen[d.name] = true
	}
}

// TestSeedDeterminesInputs checks that a seed fixes the generated inputs
// and arrival schedules byte for byte, and that another seed changes them.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, s := range trainSpecs {
		a, b, c := s.prep(3, true), s.prep(3, true), s.prep(4, true)
		if !reflect.DeepEqual(a.xs.Data(), b.xs.Data()) || !reflect.DeepEqual(a.ys.Data(), b.ys.Data()) ||
			!reflect.DeepEqual(a.train, b.train) {
			t.Errorf("%s: the same seed generated different inputs", s.name)
		}
		if reflect.DeepEqual(a.xs.Data(), c.xs.Data()) {
			t.Errorf("%s: different seeds generated the same inputs", s.name)
		}
	}
	for _, s := range serveSpecs {
		a, b, c := s.gen(3, 16), s.gen(3, 16), s.gen(4, 16)
		for i := range a {
			if !reflect.DeepEqual(a[i].Data(), b[i].Data()) {
				t.Fatalf("%s: the same seed generated different inputs", s.name)
			}
		}
		if reflect.DeepEqual(a[0].Data(), c[0].Data()) {
			t.Errorf("%s: different seeds generated the same inputs", s.name)
		}
		sa, sb := s.schedule(3, 1, time.Second, 16), s.schedule(3, 1, time.Second, 16)
		if len(sa) == 0 || !reflect.DeepEqual(sa, sb) {
			t.Errorf("%s: the same seed generated different arrival schedules (%d arrivals)", s.name, len(sa))
		}
		if reflect.DeepEqual(sa, s.schedule(4, 1, time.Second, 16)) {
			t.Errorf("%s: different seeds generated the same arrival schedule", s.name)
		}
	}
}

// TestAgree exercises the comparison on hand-made result sets.
func TestAgree(t *testing.T) {
	mk := func(scale float64, nproc int) resultSet {
		set := resultSet{Host: hostInfo{NProc: nproc, GOMAXPROCS: nproc, CPUModel: "x"}, Seed: 1,
			Runs: map[string]map[string][]float64{}}
		for _, w := range workloadNames() {
			set.Runs[w] = map[string][]float64{}
			for _, d := range e2eDefs {
				set.Runs[w][d.name] = []float64{1.00 * scale, 1.01 * scale, 0.99 * scale}
			}
		}
		return set
	}
	dir := t.TempDir()
	write := func(name string, set resultSet) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, set); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, same, slow, other := write("a", mk(1, 2)), write("same", mk(1.02, 2)), write("slow", mk(1.5, 2)), write("other", mk(1, 4))
	sink := io.Discard
	if ok, err := agreeFiles(sink, a, same); err != nil || !ok {
		t.Errorf("2%% apart: ok=%v err=%v, want agreement", ok, err)
	}
	if ok, err := agreeFiles(sink, a, slow); err != nil || ok {
		t.Errorf("50%% apart: ok=%v err=%v, want disagreement", ok, err)
	}
	if _, err := agreeFiles(sink, a, other); err == nil {
		t.Error("different host shapes were compared")
	}
}
