package core

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/msa"
	"repro/internal/nn"
	"repro/internal/perfmodel"
)

// E6CovidNet reproduces §IV-A: the COVID-Net chest-X-ray screening study —
// 3-class training with per-class sensitivity (the COVID-Net headline
// metric) plus the A100-vs-V100 training-time projection the paper
// attributes to JUWELS' newer GPUs.
func E6CovidNet(scale Scale) Result {
	samples, epochs, workers := 48, 10, 2
	if scale == Full {
		samples, epochs, workers = 300, 12, 4
	}
	ds := data.GenCXR(data.CXRConfig{Samples: samples, Seed: 51})
	split := data.TrainValSplit(samples, 0.25, 52)

	res := TrainCovidNet(DDPConfig{Workers: workers, Epochs: epochs, Batch: 4,
		BaseLR: 0.02, Warmup: 5, Seed: 53}, ds, split)

	// Per-class sensitivity on the validation split needs a fresh model
	// evaluation; retrain single-worker deterministically for the matrix.
	cm := trainCovidForConfusion(ds, split, epochs)
	rec := nn.PerClassRecall(cm)
	prec := nn.PerClassPrecision(cm)

	tb := NewTable("COVID-Net-mini on synthetic COVIDx (meas)",
		"metric", "value")
	tb.Add("val accuracy (distributed)", fmt.Sprintf("%.3f", res.ValMetric))
	tb.Add("train accuracy", fmt.Sprintf("%.3f", res.TrainMetric))
	for c := 0; c < data.CXRClasses; c++ {
		tb.Add("sensitivity "+data.CXRClassNames[c], fmt.Sprintf("%.3f", rec[c]))
		tb.Add("precision "+data.CXRClassNames[c], fmt.Sprintf("%.3f", prec[c]))
	}

	// GPU-generation projection (§IV-A: A100 tensor cores train COVID-Net
	// "significantly faster" than the previous generation).
	w := perfmodel.Workload{Name: "covidnet-train", Class: perfmodel.ClassDLTraining,
		PrefersGPU: true, Flops: 5e15, Bytes: 1e12, ParallelFrac: 0.99, MemoryGB: 16}
	nodeV100 := msa.NodeSpec{CPU: msa.Skylake6148, Sockets: 2, MemGB: 192, MemBWGBs: 256,
		Accels: []msa.AccelAttach{{Spec: msa.V100, Count: 4}}}
	nodeA100 := msa.NodeSpec{CPU: msa.EPYC7402, Sockets: 2, MemGB: 512, MemBWGBs: 410,
		Accels: []msa.AccelAttach{{Spec: msa.A100, Count: 4}}}
	tV := perfmodel.NodeTime(w, nodeV100)
	tA := perfmodel.NodeTime(w, nodeA100)
	gen := NewTable("GPU generation projection (model)",
		"node", "train time s", "speedup vs V100")
	gen.Add("4× V100 (JUWELS cluster)", fmt.Sprintf("%.0f", tV), "1.00")
	gen.Add("4× A100 (JUWELS booster)", fmt.Sprintf("%.0f", tA), fmt.Sprintf("%.2f", tV/tA))

	return Result{
		ID: "E6", Title: "COVID-Net chest X-ray screening (§IV-A)",
		Report: tb.String() + "\n" + gen.String(),
		Metrics: map[string]float64{
			"val_acc":      res.ValMetric,
			"covid_recall": rec[data.CXRCovid],
			"a100_speedup": tV / tA,
			"v100_time":    tV,
			"a100_time":    tA,
		},
	}
}

// trainCovidForConfusion trains a single-replica model and returns its
// validation confusion matrix.
func trainCovidForConfusion(ds *data.CXRDataset, split data.Split, epochs int) [][]int {
	oneHot := ds.OneHotLabels()
	model := nn.CovidNetMini(newRNG(54), ds.X.Dim(2), data.CXRClasses)
	opt := nn.NewSGD(0.9, 1e-4)
	loss := nn.SoftmaxCrossEntropy{}
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
	vx := data.SelectRows(ds.X, split.Val)
	vl := data.SelectLabels(ds.Labels, split.Val)
	return nn.ConfusionMatrix(model.Forward(vx, false), vl, data.CXRClasses)
}

func batchIdx(idx []int, size int) [][]int {
	var out [][]int
	for lo := 0; lo < len(idx); lo += size {
		hi := lo + size
		if hi > len(idx) {
			hi = len(idx)
		}
		out = append(out, idx[lo:hi])
	}
	return out
}

// E7GRUImputation reproduces §IV-B: the 2×GRU(32) imputation model
// against the 1-D CNN and the forward-fill clinical baseline on
// MIMIC-III-like ICU time series, scored by MAE at hidden positions.
func E7GRUImputation(scale Scale) Result {
	patients, epochs := 24, 300
	if scale == Full {
		patients, epochs = 100, 600
	}
	ds := data.GenICU(data.ICUConfig{Patients: patients, Steps: 32, Seed: 81, ARDSFraction: 0.4})
	trainTask := ds.MakeImputationTask(data.ChPaO2, 0.25, 82)
	evalTask := ds.MakeImputationTask(data.ChPaO2, 0.25, 83)

	// The paper's GRU uses Adam at lr 1e-4 over many passes of MIMIC-III;
	// equivalent convergence at synthetic scale needs a larger rate within
	// the epoch budget (the CNN prefers a slightly hotter one).
	gruMAE, _ := TrainGRUImputer(trainTask, evalTask, epochs, 5e-3, ImputerGRU, 84)
	cnnMAE, _ := TrainGRUImputer(trainTask, evalTask, epochs, 1e-2, ImputerCNN, 84)
	grudMAE, _ := TrainGRUImputer(trainTask, evalTask, epochs, 5e-3, ImputerGRUD, 84)
	ffMAE := evalTask.MAEOn(evalTask.ForwardFillBaseline())

	tb := NewTable("PaO₂ imputation MAE at hidden positions (meas, z-scored units)",
		"model", "MAE")
	tb.Add("forward fill (clinical baseline)", fmt.Sprintf("%.4f", ffMAE))
	tb.Add("1-D CNN (2×Conv1D(32))", fmt.Sprintf("%.4f", cnnMAE))
	tb.Add("GRU (2×GRU(32), dropout .2)", fmt.Sprintf("%.4f", gruMAE))
	tb.Add("GRU-D (input decay, ref [39])", fmt.Sprintf("%.4f", grudMAE))

	arch := NewTable("Model architecture (paper §IV-B / Fig. 4)", "layer", "output shape")
	arch.Add("Input", fmt.Sprintf("(N, T, %d)", data.ICUChannels))
	arch.Add("GRU(32) + dropout 0.2", "(N, T, 32)")
	arch.Add("GRU(32) + dropout 0.2", "(N, T, 32)")
	arch.Add("Dense(1)", "(N, T, 1)")

	return Result{
		ID: "E7", Title: "GRU time-series imputation for ARDS monitoring (§IV-B)",
		Report: tb.String() + "\n" + arch.String(),
		Metrics: map[string]float64{
			"mae_gru":   gruMAE,
			"mae_cnn":   cnnMAE,
			"mae_grud":  grudMAE,
			"mae_ffill": ffMAE,
		},
	}
}
