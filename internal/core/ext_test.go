package core

import (
	"testing"
)

func TestE14ForestBeatsSingleTree(t *testing.T) {
	r := cachedRun("e14")
	if r.Metric("acc_forest") <= r.Metric("acc_tree") {
		t.Fatalf("forest (%f) must beat single tree (%f)",
			r.Metric("acc_forest"), r.Metric("acc_tree"))
	}
	if r.Metric("acc_forest") < 0.6 {
		t.Fatalf("forest accuracy too low: %f", r.Metric("acc_forest"))
	}
	if r.Metric("dam_is_best") != 1 {
		t.Fatal("analytics workload must be placed on the DAM (§III-B)")
	}
	if r.Metric("km_inertia") <= 0 {
		t.Fatal("k-means must run")
	}
}

func TestE15AEBeatsPCAOnNonlinearSpectra(t *testing.T) {
	r := cachedRun("e15")
	mean, pca, ae := r.Metric("mse_mean"), r.Metric("mse_pca"), r.Metric("mse_ae")
	if pca >= mean || ae >= mean {
		t.Fatalf("both compressors must beat the mean baseline: mean=%f pca=%f ae=%f", mean, pca, ae)
	}
	if ae >= pca {
		t.Fatalf("AE (%f) should beat PCA (%f) on the saturated spectra", ae, pca)
	}
}

func TestE16GRUBeatsLinearEarlyWarning(t *testing.T) {
	r := cachedRun("e16")
	if r.Metric("gru_recall") <= r.Metric("lin_recall") {
		t.Fatalf("GRU recall (%f) must beat linear (%f)",
			r.Metric("gru_recall"), r.Metric("lin_recall"))
	}
	if r.Metric("gru_acc") < 1-r.Metric("positive_frac") {
		t.Fatalf("GRU accuracy %f below the majority-class baseline %f",
			r.Metric("gru_acc"), 1-r.Metric("positive_frac"))
	}
	if r.Metric("gru_recall") < 0.2 {
		t.Fatalf("GRU recall %f too low to be a useful early-warning system", r.Metric("gru_recall"))
	}
}

func TestExperimentRegistryIncludesExtensions(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 21 {
		t.Fatalf("expected 21 experiments, got %d: %v", len(ids), ids)
	}
	if ids[13] != "e14" || ids[20] != "e21" {
		t.Fatalf("extension ids wrong: %v", ids)
	}
}

func TestE17InferenceParity(t *testing.T) {
	r := cachedRun("e17")
	for _, p := range []string{"match_p1", "match_p2", "match_p4"} {
		if r.Metric(p) != 1 {
			t.Fatalf("sharded inference must match single-node exactly: %s=%v", p, r.Metric(p))
		}
	}
	if r.Metric("esb_speedup") <= 10 {
		t.Fatalf("ESB scale-out projection too small: %f", r.Metric("esb_speedup"))
	}
}

func TestE18NAMCheckpointWins(t *testing.T) {
	r := cachedRun("e18")
	for _, k := range []string{"speedup_n16", "speedup_n50", "speedup_n75"} {
		if r.Metric(k) <= 1 {
			t.Fatalf("NAM checkpointing must beat direct SSSM: %s=%f", k, r.Metric(k))
		}
	}
}

func TestE7GRUDAlsoBeatsBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	r := cachedRun("e7")
	if r.Metric("mae_grud") >= r.Metric("mae_ffill") {
		t.Fatalf("GRU-D (%f) must beat forward fill (%f)", r.Metric("mae_grud"), r.Metric("mae_ffill"))
	}
}

func TestE19SweepRanksModels(t *testing.T) {
	r := cachedRun("e19")
	if r.Metric("best_f1") < 0.5 {
		t.Fatalf("best model F1 too low: %f", r.Metric("best_f1"))
	}
	// The booster partition must make the sweep dramatically cheaper.
	if r.Metric("proj_branch_h")*5 > r.Metric("proj_seq_h") {
		t.Fatalf("sweep projection: %f h vs %f h", r.Metric("proj_branch_h"), r.Metric("proj_seq_h"))
	}
	// Larger models should not have fewer parameters (sanity of the sweep).
	if r.Metric("params_resnet-w16-s2") <= r.Metric("params_resnet-w8-s2") {
		t.Fatal("parameter counts inconsistent")
	}
}

func TestE20FeatureSelectionHelps(t *testing.T) {
	r := cachedRun("e20")
	if r.Metric("acc_qa") < r.Metric("acc_random")-0.02 {
		t.Fatalf("annealer-selected features (%f) should not lose to random (%f)",
			r.Metric("acc_qa"), r.Metric("acc_random"))
	}
	if r.Metric("acc_qa") < 0.6 {
		t.Fatalf("selected-feature accuracy too low: %f", r.Metric("acc_qa"))
	}
	if r.Metric("n_selected") < 6 || r.Metric("n_selected") > 20 {
		t.Fatalf("cardinality constraint loose: %f features", r.Metric("n_selected"))
	}
}

func TestE21RPCABeatsOrMatchesPCA(t *testing.T) {
	r := cachedRun("e21")
	if r.Metric("prec_rpca") < r.Metric("prec_pca") {
		t.Fatalf("RPCA (%f) must not lose to the PCA baseline (%f)",
			r.Metric("prec_rpca"), r.Metric("prec_pca"))
	}
	if r.Metric("prec_rpca") < 0.7 {
		t.Fatalf("RPCA detection precision too low: %f", r.Metric("prec_rpca"))
	}
}
