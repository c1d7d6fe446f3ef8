package core

import (
	"fmt"
	"math/rand"
	"sort"
)

// newRNG is a tiny helper for deterministic model construction inside
// experiments.
func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Scale selects the problem sizes the experiments run at.
type Scale int

// Experiment scales: Quick keeps every experiment in test-friendly
// seconds; Full runs the sizes the cmd/msa-bench harness reports.
const (
	Quick Scale = iota
	Full
)

// Experiment is a runnable entry of the harness.
type Experiment struct {
	ID    string
	Title string
	Run   func(Scale) Result
}

// Experiments returns the full E1–E13 index in order.
func Experiments() []Experiment {
	return []Experiment{
		{"e1", "Table I: DEEP DAM specifications", func(Scale) Result { return E1TableI() }},
		{"e2", "JUWELS module aggregates", func(Scale) Result { return E2JUWELS() }},
		{"e3", "ResNet/BigEarthNet distributed scaling", E3ResNetScaling},
		{"e4", "Accuracy vs workers", E4AccuracyVsWorkers},
		{"e5", "96 vs 128 GPUs", func(Scale) Result { return E5Scale128() }},
		{"e6", "COVID-Net chest X-ray screening", E6CovidNet},
		{"e7", "GRU time-series imputation", E7GRUImputation},
		{"e8", "Quantum SVM ensembles", E8QuantumSVM},
		{"e9", "GCE / allreduce algorithms", E9Allreduce},
		{"e10", "Modular vs monolithic scheduling", E10Scheduler},
		{"e11", "Parallel cascade SVM", E11CascadeSVM},
		{"e12", "SSSM striping and NAM sharing", func(Scale) Result { return E12Storage() }},
		{"e13", "Workload-module assignment", func(Scale) Result { return E13ModuleAssignment() }},
		// Extensions beyond the paper's figure set: workflows the text
		// describes without reporting numbers (see EXPERIMENTS.md).
		{"e14", "Spark/MLlib analytics on the DAM", E14SparkAnalytics},
		{"e15", "Autoencoder RS compression", E15Autoencoder},
		{"e16", "ARDS early-warning classifier", E16EarlyWarning},
		{"e17", "Inference scale-out on the ESB", E17InferenceScaleOut},
		{"e18", "NAM checkpoint/restart", func(Scale) Result { return E18Checkpoint() }},
		{"e19", "Model comparison sweep", E19ModelComparison},
		{"e20", "Annealer feature selection", E20FeatureSelection},
		{"e21", "Low-rank + sparse anomaly detection", E21AnomalyDetection},
	}
}

// RunExperiment executes one experiment by id (case-sensitive, e.g. "e3").
func RunExperiment(id string, scale Scale) (Result, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e.Run(scale), nil
		}
	}
	return Result{}, fmt.Errorf("core: unknown experiment %q (known: %v)", id, ExperimentIDs())
}

// ExperimentIDs lists the known experiment ids in order.
func ExperimentIDs() []string {
	exps := Experiments()
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	return ids
}

// MetricsSorted renders a result's metrics deterministically (for logs).
func MetricsSorted(r Result) string {
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += fmt.Sprintf("%s=%.6g\n", k, r.Metrics[k])
	}
	return out
}
