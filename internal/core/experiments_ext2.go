package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/data"
	"repro/internal/distdl"
	"repro/internal/mpi"
	"repro/internal/msa"
	"repro/internal/nn"
	"repro/internal/perfmodel"
	"repro/internal/qa"
	"repro/internal/storage"
	"repro/internal/svm"
	"repro/internal/tensor"
)

// E17InferenceScaleOut reproduces the §II-A deployment pattern: "compute-
// intensive training can be performed on the CM module while inference
// and testing (i.e., both less compute-intensive) can be scaled-out on
// the ESB". A model trained once is checkpointed, restored on every ESB
// rank, and inference is sharded — predictions must match the single-node
// run exactly; the perfmodel projects the throughput gain at module scale.
func E17InferenceScaleOut(scale Scale) Result {
	samples, epochs := 60, 8
	if scale == Full {
		samples, epochs = 240, 12
	}
	ds := data.GenCXR(data.CXRConfig{Samples: samples, Seed: 111})
	split := data.TrainValSplit(samples, 0.25, 112)

	// "Train on the CM": single-replica training, then checkpoint.
	model := nn.CovidNetMini(newRNG(113), ds.X.Dim(2), data.CXRClasses)
	opt := nn.NewSGD(0.9, 1e-4)
	loss := nn.SoftmaxCrossEntropy{}
	oneHot := ds.OneHotLabels()
	for e := 0; e < epochs; e++ {
		for _, batch := range batchIdx(split.Train, 4) {
			bx := data.SelectRows(ds.X, batch)
			by := data.SelectRows(oneHot, batch)
			model.ZeroGrads()
			out := model.Forward(bx, true)
			_, grad := loss.Forward(out, by)
			model.Backward(grad)
			opt.Step(model.Params(), 0.02)
		}
	}
	blob, err := nn.SaveModel(model)
	if err != nil {
		panic(err)
	}
	refPreds := model.Forward(ds.X, false).ArgmaxRows()

	// "Scale out on the ESB": restore the checkpoint on every rank and
	// shard inference; results must be bit-identical to the reference.
	metrics := map[string]float64{}
	tb := NewTable("Sharded inference vs single-node (meas)",
		"ranks", "wall s", "predictions match")
	for _, p := range []int{1, 2, 4} {
		w := mpi.NewWorld(p)
		var preds []int
		start := time.Now()
		if err := w.Run(func(c *mpi.Comm) error {
			replica := nn.CovidNetMini(newRNG(999), ds.X.Dim(2), data.CXRClasses)
			if err := nn.LoadModel(replica, blob); err != nil {
				return err
			}
			got := distdl.DistributedArgmax(c, replica, ds.X, 8)
			if c.Rank() == 0 {
				preds = got
			}
			return nil
		}); err != nil {
			panic(err)
		}
		wall := time.Since(start).Seconds()
		match := len(preds) == len(refPreds)
		for i := range refPreds {
			if preds[i] != refPreds[i] {
				match = false
				break
			}
		}
		tb.Add(fmt.Sprint(p), fmt.Sprintf("meas: %.3f", wall), fmt.Sprint(match))
		metrics[fmt.Sprintf("match_p%d", p)] = boolMetric(match)
		metrics[fmt.Sprintf("wall_p%d", p)] = wall
	}

	// Module-scale projection: inference throughput on the full ESB vs a
	// single CM node.
	deep := msa.DEEP()
	w := perfmodel.Workload{Name: "inference", Class: perfmodel.ClassDLInference,
		PrefersGPU: true, Flops: 1e15, Bytes: 5e11, ParallelFrac: 0.999,
		CommElems: 100, Steps: 10, MemoryGB: 8}
	esb := deep.Module(msa.BoosterModule)
	cm := deep.Module(msa.ClusterModule)
	tESB := perfmodel.Evaluate(w, perfmodel.Placement{Module: esb, Nodes: esb.Nodes()})
	tCM1 := perfmodel.Evaluate(w, perfmodel.Placement{Module: cm, Nodes: 1})
	proj := NewTable("Inference placement projection (model)",
		"placement", "time s")
	proj.Add("1 CM node", fmt.Sprintf("%.2f", tCM1.Seconds))
	proj.Add(fmt.Sprintf("ESB scale-out (%d nodes)", esb.Nodes()), fmt.Sprintf("%.4f", tESB.Seconds))
	metrics["esb_speedup"] = tCM1.Seconds / tESB.Seconds

	return Result{
		ID: "E17", Title: "Train on CM, scale out inference on ESB (§II-A)",
		Report:  tb.String() + "\n" + proj.String(),
		Metrics: metrics,
	}
}

// E18Checkpoint reproduces the NAM's original raison d'être (ref [12]:
// "accelerating checkpoint/restart application performance ... with
// network attached memory"): a simulation checkpointing through the NAM
// stalls far less than writing straight to the parallel filesystem.
func E18Checkpoint() Result {
	deep := msa.DEEP()
	fs := storage.NewSSSM(*deep.Module(msa.StorageService).Storage)
	nam := storage.NewNAM(*deep.Module(msa.NetworkMemory).NAM)

	tb := NewTable("Checkpoint stall per snapshot (model, DEEP SSSM vs NAM)",
		"nodes", "GB/node", "direct s", "via NAM s", "speedup")
	metrics := map[string]float64{}
	for _, cfg := range []struct {
		nodes int
		gb    float64
	}{
		{16, 4}, {50, 8}, {75, 16},
	} {
		plan := storage.CheckpointPlan{
			Nodes: cfg.nodes, StateGBNode: cfg.gb,
			IntervalSec: 3600, Checkpoints: 10, StripePerJob: 4,
		}
		direct, via, err := storage.CompareCheckpointTargets(plan, fs, nam)
		if err != nil {
			panic(err)
		}
		tb.Add(fmt.Sprint(cfg.nodes), fmt.Sprintf("%.0f", cfg.gb),
			fmt.Sprintf("%.1f", direct), fmt.Sprintf("%.1f", via),
			fmt.Sprintf("%.1fx", direct/via))
		metrics[fmt.Sprintf("speedup_n%d", cfg.nodes)] = direct / via
	}
	return Result{
		ID: "E18", Title: "NAM-accelerated checkpoint/restart (ref [12])",
		Report:  tb.String(),
		Metrics: metrics,
	}
}

// E20FeatureSelection reproduces the related-work annealer use case the
// paper surveys (Otgonbaatar & Datcu [36]: quantum annealing for feature
// extraction): an mRMR-style QUBO on the simulated device selects a
// compact feature subset for RS classification, compared against using
// all features and a random subset of the same size.
func E20FeatureSelection(scale Scale) Result {
	n := 240
	if scale == Full {
		n = 800
	}
	ds := data.GenMultispectral(data.MultispectralConfig{Samples: n + 100, Seed: 141,
		MaxLabels: 1, Classes: 2, Size: 4, Bands: 4, Noise: 1.2})
	flat, labels := ds.FlattenFeatures()
	x := make([][]float64, flat.Dim(0))
	y := make([]int, len(labels))
	for i := range x {
		x[i] = flat.Row(i)
		y[i] = labels[i]*2 - 1
	}
	xTr, yTr := x[:n], y[:n]
	xTe, yTe := x[n:], y[n:]
	dims := len(x[0])
	const k = 12

	selected, err := qa.SelectFeatures(xTr, yTr, qa.FeatureSelectConfig{
		K: k, Anneal: qa.AnnealConfig{Reads: 10, Sweeps: 300, Seed: 142},
	})
	if err != nil {
		panic(err)
	}
	randomSel := newRNG(143).Perm(dims)[:k]

	kernel := svm.RBF{Gamma: 0.01}
	evalSubset := func(sel []int) float64 {
		m := svm.Train(qa.ProjectFeatures(xTr, sel), yTr, svm.Config{Kernel: kernel, Seed: 144})
		return m.Accuracy(qa.ProjectFeatures(xTe, sel), yTe)
	}
	full := svm.Train(xTr, yTr, svm.Config{Kernel: kernel, Seed: 144})
	accFull := full.Accuracy(xTe, yTe)
	accQA := evalSubset(selected)
	accRand := evalSubset(randomSel)

	tb := NewTable(fmt.Sprintf("QUBO feature selection for RS classification (meas, %d→%d features)", dims, len(selected)),
		"feature set", "features", "SVM test accuracy")
	tb.Add("all features", fmt.Sprint(dims), fmt.Sprintf("%.3f", accFull))
	tb.Add("annealer-selected (mRMR QUBO)", fmt.Sprint(len(selected)), fmt.Sprintf("%.3f", accQA))
	tb.Add("random subset", fmt.Sprint(k), fmt.Sprintf("%.3f", accRand))

	return Result{
		ID: "E20", Title: "Quantum-annealer feature selection (related work [36])",
		Report: tb.String(),
		Metrics: map[string]float64{
			"acc_full":   accFull,
			"acc_qa":     accQA,
			"acc_random": accRand,
			"n_selected": float64(len(selected)),
		},
	}
}

// E21AnomalyDetection reproduces the related-work hyperspectral anomaly
// detection approach the paper surveys (Zhang et al. [35]: low-rank and
// sparse representation): RPCA separates a low-rank background from
// sparse anomalies; detection precision is compared against a plain
// PCA-residual detector.
func E21AnomalyDetection(scale Scale) Result {
	nPixels := 400
	if scale == Full {
		nPixels = 2000
	}
	const bands, nAnom = 8, 8
	rng := newRNG(151)
	// Background spectra: rank-2 mixtures of two endmembers plus noise.
	em1 := make([]float64, bands)
	em2 := make([]float64, bands)
	for b := 0; b < bands; b++ {
		em1[b] = math.Sin(float64(b) * 0.8)
		em2[b] = math.Cos(float64(b) * 0.5)
	}
	x := tensor.New(nPixels, bands)
	for i := 0; i < nPixels; i++ {
		a, c := rng.Float64(), rng.Float64()
		row := x.Row(i)
		for b := 0; b < bands; b++ {
			row[b] = 3*a*em1[b] + 3*c*em2[b] + rng.NormFloat64()*0.1
		}
	}
	// Implant anomalous pixels (off-subspace spikes).
	anomalous := map[int]bool{}
	for len(anomalous) < nAnom {
		i := rng.Intn(nPixels)
		if anomalous[i] {
			continue
		}
		anomalous[i] = true
		row := x.Row(i)
		row[rng.Intn(bands)] += 4 + rng.Float64()*2
		row[rng.Intn(bands)] -= 4
	}

	topKPrecision := func(scores []float64) float64 {
		type sc struct {
			i int
			v float64
		}
		ranked := make([]sc, len(scores))
		for i, v := range scores {
			ranked[i] = sc{i, v}
		}
		sort.Slice(ranked, func(a, b int) bool { return ranked[a].v > ranked[b].v })
		hit := 0
		for k := 0; k < nAnom; k++ {
			if anomalous[ranked[k].i] {
				hit++
			}
		}
		return float64(hit) / nAnom
	}

	// RPCA detector.
	res := tensor.RPCA(x, tensor.RPCAConfig{Rank: 2, Seed: 152})
	precRPCA := topKPrecision(res.AnomalyScores())

	// Baseline: plain PCA residual norm.
	comps, means := tensor.PCA(x, 2, 40, newRNG(153))
	recon := tensor.PCAReconstruct(tensor.PCAProject(x, comps, means), comps, means)
	resid := tensor.Sub(x, recon)
	pcaScores := make([]float64, nPixels)
	for i := 0; i < nPixels; i++ {
		row := resid.Row(i)
		s := 0.0
		for _, v := range row {
			s += v * v
		}
		pcaScores[i] = math.Sqrt(s)
	}
	precPCA := topKPrecision(pcaScores)

	tb := NewTable(fmt.Sprintf("Hyperspectral anomaly detection (meas, %d pixels, %d implanted anomalies)", nPixels, nAnom),
		"detector", "top-K precision")
	tb.Add("PCA residual baseline", fmt.Sprintf("%.2f", precPCA))
	tb.Add("RPCA low-rank + sparse (ref [35])", fmt.Sprintf("%.2f", precRPCA))

	return Result{
		ID: "E21", Title: "Low-rank + sparse anomaly detection (related work [35])",
		Report: tb.String(),
		Metrics: map[string]float64{
			"prec_rpca": precRPCA,
			"prec_pca":  precPCA,
		},
	}
}
