package core

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/data"
)

func TestNewRuntime(t *testing.T) {
	for _, name := range []string{"deep", "DEEP", "juwels"} {
		r, err := NewRuntime(name)
		if err != nil || r.System == nil {
			t.Fatalf("NewRuntime(%s): %v", name, err)
		}
	}
	if _, err := NewRuntime("frontier"); err == nil {
		t.Fatal("unknown system must error")
	}
}

func TestTableFormatting(t *testing.T) {
	tb := NewTable("title", "a", "bb")
	tb.Add("1", "2")
	tb.Add("333")
	s := tb.String()
	if !strings.Contains(s, "title") || !strings.Contains(s, "333") {
		t.Fatalf("table render:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("line count %d:\n%s", len(lines), s)
	}
}

func TestResultMetricPanicsOnUnknown(t *testing.T) {
	r := Result{ID: "x", Metrics: map[string]float64{}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Metric("nope")
}

func TestExperimentRegistry(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 21 {
		t.Fatalf("expected 21 experiments, got %d", len(ids))
	}
	if _, err := RunExperiment("e99", Quick); err == nil {
		t.Fatal("unknown id must error")
	}
}

func TestE1MatchesTableI(t *testing.T) {
	r := cachedRun("e1")
	if r.Metric("nodes") != 16 || r.Metric("gpus") != 16 || r.Metric("fpgas") != 16 {
		t.Fatalf("E1 metrics: %v", r.Metrics)
	}
	if r.Metric("mem_gb_node") != 384 || r.Metric("nvm_tb") != 32 {
		t.Fatalf("E1 memory metrics: %v", r.Metrics)
	}
	if !strings.Contains(r.Report, "Cascade Lake") {
		t.Fatal("E1 report missing CPU row")
	}
}

func TestE2MatchesPaperNumbers(t *testing.T) {
	r := cachedRun("e2")
	want := map[string]float64{
		"cluster_nodes": 2583, "cluster_cores": 122768, "cluster_gpus": 224,
		"booster_nodes": 940, "booster_cores": 45024, "booster_gpus": 3744,
	}
	for k, v := range want {
		if r.Metric(k) != v {
			t.Fatalf("E2 %s = %v, want %v", k, r.Metric(k), v)
		}
	}
}

func TestE3ScalingShape(t *testing.T) {
	r := cachedRun("e3")
	// Model projection must keep increasing through 128 GPUs (the paper's
	// central speed-up claim).
	prev := 0.0
	for _, p := range []int{8, 16, 32, 64, 96, 128} {
		s := r.Metric("model_speedup_p" + itoa(p))
		if s <= prev {
			t.Fatalf("model speedup not increasing at %d: %v", p, r.Metrics)
		}
		prev = s
	}
	// fp16 must not be slower at 128 GPUs.
	if r.Metric("model_fp16_epoch128") > r.Metric("model_fp32_epoch128") {
		t.Fatal("fp16 slower than fp32 at 128 GPUs")
	}
	// Measured distributed runs completed and produced speedups > 0.
	if r.Metric("meas_speedup_p2") <= 0 {
		t.Fatal("no measured speedup recorded")
	}
}

func itoa(v int) string { return strconv.Itoa(v) }

func TestE4AccuracyPreserved(t *testing.T) {
	r := cachedRun("e4")
	base := r.Metric("f1_scaled_p1")
	if base <= 0.3 {
		t.Fatalf("baseline F1 too low to be meaningful: %f", base)
	}
	// Distributed training with the scaling rule must stay within 15% of
	// single-worker F1 (the paper: "without affecting prediction
	// accuracy").
	for _, p := range []int{2, 4} {
		f1 := r.Metric("f1_scaled_p" + itoa(p))
		if f1 < base*0.85 {
			t.Fatalf("accuracy lost at %d workers: %f vs %f", p, f1, base)
		}
	}
}

func TestE5MoreGPUsStillFaster(t *testing.T) {
	r := cachedRun("e5")
	if r.Metric("speedup_p128") <= r.Metric("speedup_p96") {
		t.Fatal("128 GPUs must beat 96 (Sedona et al. claim)")
	}
	if r.Metric("epoch_p128") >= r.Metric("epoch_p96") {
		t.Fatal("epoch time must shrink from 96 to 128")
	}
}

func TestE6CovidNetLearnsAndA100Faster(t *testing.T) {
	r := cachedRun("e6")
	if r.Metric("val_acc") < 0.5 { // 3 classes, chance = 0.33
		t.Fatalf("COVID-Net val accuracy %f barely above chance", r.Metric("val_acc"))
	}
	if r.Metric("a100_speedup") <= 1.5 {
		t.Fatalf("A100 should be markedly faster than V100: %f", r.Metric("a100_speedup"))
	}
}

func TestE7GRUBeatsForwardFill(t *testing.T) {
	r := cachedRun("e7")
	gru, cnn, ff := r.Metric("mae_gru"), r.Metric("mae_cnn"), r.Metric("mae_ffill")
	if gru >= ff {
		t.Fatalf("GRU (%f) must beat forward fill (%f)", gru, ff)
	}
	if cnn >= ff {
		t.Fatalf("1-D CNN (%f) must beat forward fill (%f) — the paper calls it promising", cnn, ff)
	}
}

func TestE8EnsembleRescuesSubsampling(t *testing.T) {
	r := cachedRun("e8")
	// The §III-C narrative: sub-sampling costs accuracy, ensembles recover
	// most of it.
	if r.Metric("acc_qsvm_ens") <= r.Metric("acc_qsvm_1") {
		t.Fatalf("ensemble (%f) must beat a single sub-sample (%f)",
			r.Metric("acc_qsvm_ens"), r.Metric("acc_qsvm_1"))
	}
	if r.Metric("acc_qsvm_ens") < r.Metric("acc_classical")-0.1 {
		t.Fatalf("ensemble (%f) should approach the classical SVM (%f)",
			r.Metric("acc_qsvm_ens"), r.Metric("acc_classical"))
	}
	if r.Metric("cap_advantage") <= r.Metric("cap_2000q") {
		t.Fatal("Advantage must hold more training samples than 2000Q")
	}
	if r.Metric("acc_classical") < 0.8 {
		t.Fatalf("classical SVM should do well here: %f", r.Metric("acc_classical"))
	}
}

func TestE9GCEWinsAtScaleInModel(t *testing.T) {
	r := cachedRun("e9")
	// At the booster's scale the GCE model must beat every software
	// algorithm (the §II-A rationale for in-fabric reduction).
	gce := r.Metric("model_gce_p3744_s")
	for _, algo := range []string{"naive", "tree", "recursive-doubling", "ring"} {
		if gce >= r.Metric("model_"+algo+"_p3744_s") {
			t.Fatalf("GCE (%g) should beat %s (%g) at 3744 ranks", gce, algo, r.Metric("model_"+algo+"_p3744_s"))
		}
	}
	// Ring beats naive in the bandwidth-bound regime.
	if r.Metric("model_ring_p512_s") >= r.Metric("model_naive_p512_s") {
		t.Fatal("ring must beat naive at scale")
	}
}

func TestE10ModularWins(t *testing.T) {
	r := cachedRun("e10")
	if r.Metric("modular_makespan") >= r.Metric("mono_cpu_makespan") {
		t.Fatalf("modular (%f) must beat monolithic CPU (%f)",
			r.Metric("modular_makespan"), r.Metric("mono_cpu_makespan"))
	}
	if r.Metric("modular_makespan") > r.Metric("modular_fcfs") {
		t.Fatal("backfill must not lengthen the makespan")
	}
}

func TestE11CascadeSpeedsUp(t *testing.T) {
	r := cachedRun("e11")
	if r.Metric("wall_p4") >= r.Metric("wall_p1") {
		t.Fatalf("cascade on 4 workers (%f) should beat single (%f)",
			r.Metric("wall_p4"), r.Metric("wall_p1"))
	}
	if r.Metric("acc_p4") < r.Metric("acc_p1")-0.05 {
		t.Fatalf("cascade accuracy %f fell below single %f", r.Metric("acc_p4"), r.Metric("acc_p1"))
	}
}

func TestE12NAMWins(t *testing.T) {
	r := cachedRun("e12")
	if r.Metric("nam_t_k16") >= r.Metric("dup_t_k16") {
		t.Fatalf("NAM (%f) should beat duplicate staging (%f) for 16 members",
			r.Metric("nam_t_k16"), r.Metric("dup_t_k16"))
	}
}

func TestE13AssignmentsMatchFig2(t *testing.T) {
	r := cachedRun("e13")
	if r.Metric("best_is_gpu_dl-training") != 1 {
		t.Fatal("DL training must land on a GPU module")
	}
	if r.Metric("best_is_gpu_cfd-simulation") != 0 {
		t.Fatal("CFD simulation should not land on the DAM")
	}
	if !(r.Metric("split_s") < r.Metric("cm_s") && r.Metric("split_s") < r.Metric("esb_s")) {
		t.Fatalf("MSA split must beat both monolithic placements: %v", r.Metrics)
	}
}

// TestAllExperimentsRunQuick is the integration smoke test: every
// experiment must complete at Quick scale and produce a non-empty report.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	for _, e := range Experiments() {
		r := cachedRun(e.ID)
		if r.Report == "" || r.ID == "" {
			t.Fatalf("experiment %s produced empty output", e.ID)
		}
		if len(r.Metrics) == 0 {
			t.Fatalf("experiment %s produced no metrics", e.ID)
		}
	}
}

func TestDDPTrainersProduceSaneResults(t *testing.T) {
	ds := data.GenMultispectral(data.MultispectralConfig{Samples: 24, Seed: 5})
	split := data.TrainValSplit(24, 0.25, 6)
	res := TrainResNetBigEarthNet(DDPConfig{Workers: 2, Epochs: 1, Batch: 4,
		BaseLR: 0.01, Seed: 7}, ds, split)
	if res.Steps <= 0 || res.WallSeconds <= 0 {
		t.Fatalf("DDP bookkeeping: %+v", res)
	}
	if res.GradBytes <= 0 || res.GradBytes%8 != 0 {
		t.Fatalf("wire bytes %d for 2 workers: want a positive count of float64s", res.GradBytes)
	}
}

func TestMetricsSortedDeterministic(t *testing.T) {
	r := Result{ID: "x", Metrics: map[string]float64{"b": 2, "a": 1}}
	s := MetricsSorted(r)
	if !strings.HasPrefix(s, "a=1") {
		t.Fatalf("metrics not sorted: %q", s)
	}
}
