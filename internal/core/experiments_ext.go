package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/data"
	"repro/internal/mapreduce"
	"repro/internal/msa"
	"repro/internal/nn"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
)

// E14SparkAnalytics reproduces the Spark/MLlib-on-DAM workflow of §III-B:
// random-forest classification of RS features (the "robust classifiers
// often used", footnote 37) and k-means exploration, executed on the
// miniature map-reduce engine, plus the placement argument for why this
// workload belongs on the large-memory DAM.
func E14SparkAnalytics(scale Scale) Result {
	n := 300
	trees := 15
	if scale == Full {
		n = 1200
		trees = 40
	}
	ds := data.GenMultispectral(data.MultispectralConfig{Samples: n + 100, Seed: 91,
		MaxLabels: 1, Classes: 3, Size: 6, Bands: 3, Noise: 1.0})
	flat, labels := ds.FlattenFeatures()
	rows := make([]mapreduce.Row, flat.Dim(0))
	for i := range rows {
		rows[i] = append(append(mapreduce.Row(nil), flat.Row(i)...), float64(labels[i]))
	}
	train, test := rows[:n], rows[n:]

	eng := mapreduce.NewEngine(4)
	forest := mapreduce.TrainForest(eng, train, 3, mapreduce.ForestConfig{Trees: trees, Seed: 92})
	accF := forest.Accuracy(test)
	tree := mapreduce.TrainTree(train, 3, 92)
	correct := 0
	for _, r := range test {
		if tree.Predict(r[:len(r)-1]) == int(r[len(r)-1]) {
			correct++
		}
	}
	accT := float64(correct) / float64(len(test))

	tb := NewTable("MLlib-style classifiers on RS features (meas, map-reduce engine)",
		"classifier", "test accuracy")
	tb.Add("single CART tree", fmt.Sprintf("%.3f", accT))
	tb.Add(fmt.Sprintf("random forest (%d trees)", trees), fmt.Sprintf("%.3f", accF))

	// k-means exploration of the unlabeled features.
	feat := make([]mapreduce.Row, len(train))
	for i, r := range train {
		feat[i] = r[:len(r)-1]
	}
	km := mapreduce.KMeans(eng, feat, 3, 30, 93)
	kmTable := NewTable("k-means on the same features (meas)",
		"k", "iterations", "inertia")
	kmTable.Add("3", fmt.Sprint(km.Iterations), fmt.Sprintf("%.1f", km.Inertia))

	// Placement: the memory-bound analytics workload belongs on the DAM
	// (§III-B), quantified with the perfmodel.
	deep := msa.DEEP()
	w := perfmodel.Workload{Name: "spark-rf", Class: perfmodel.ClassHPDA,
		Flops: 1e14, Bytes: 8e13, ParallelFrac: 0.9, CommElems: 10_000, Steps: 50, MemoryGB: 300}
	best, all := perfmodel.BestModule(w, deep, 16)
	place := NewTable("Placement of the analytics job (model, 16 nodes)",
		"module", "time s")
	for _, name := range []string{"deep-cm", "deep-esb", "deep-dam"} {
		cell := fmt.Sprintf("%.0f", all[name].Seconds)
		if deep.ModuleByName(name) == best {
			cell = "*" + cell
		}
		place.Add(name, cell)
	}

	return Result{
		ID: "E14", Title: "Spark/MLlib analytics on the DAM (§III-B)",
		Report: tb.String() + "\n" + kmTable.String() + "\n" + place.String(),
		Metrics: map[string]float64{
			"acc_forest":  accF,
			"acc_tree":    accT,
			"km_inertia":  km.Inertia,
			"dam_is_best": boolMetric(best.Kind == msa.DataAnalytics),
		},
	}
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// E15Autoencoder reproduces the non-linear RS compression study (Haut et
// al., ref [7]): a dense autoencoder compresses multispectral signatures
// and is compared against PCA at the same code size and against the
// column-mean baseline.
func E15Autoencoder(scale Scale) Result {
	n, epochs := 300, 800
	if scale == Full {
		n, epochs = 1500, 1500
	}
	// Per-pixel spectra: flatten patches to pixel rows of `bands` values
	// with class structure. A tanh radiometric saturation (real optical
	// sensors compress high radiances) makes the manifold non-linear —
	// the regime where the AE's advantage over PCA exists.
	ds := data.GenMultispectral(data.MultispectralConfig{Samples: 32, Seed: 95,
		MaxLabels: 2, Classes: 6, Size: 8, Bands: 6, Noise: 0.4})
	bands := 6
	// Sample n pixels across patches: each row is one pixel's spectrum.
	rng := rand.New(rand.NewSource(96))
	x := tensor.New(n, bands)
	for i := 0; i < n; i++ {
		p := rng.Intn(32)
		py, px := rng.Intn(8), rng.Intn(8)
		for b := 0; b < bands; b++ {
			v := ds.X.At(p, b, py, px)
			x.Set(2*math.Tanh(v/2), i, b)
		}
	}

	const code = 2
	ae := nn.NewAutoencoder(rand.New(rand.NewSource(97)), bands, 24, code)
	finalLoss := nn.TrainAutoencoder(ae, x, epochs, 3e-3)
	aeRecon := ae.Reconstruct(x)
	aeMSE := mseOf(aeRecon, x)

	comps, means := tensor.PCA(x, code, 50, rand.New(rand.NewSource(98)))
	pcaRecon := tensor.PCAReconstruct(tensor.PCAProject(x, comps, means), comps, means)
	pcaMSE := mseOf(pcaRecon, x)

	meanOnly := tensor.New(x.Shape()...)
	for i := 0; i < n; i++ {
		copy(meanOnly.Row(i), means.Data())
	}
	meanMSE := mseOf(meanOnly, x)

	tb := NewTable(fmt.Sprintf("RS spectra compression to %d dims (meas, %d pixels × %d bands)", code, n, bands),
		"method", "reconstruction MSE", "compression")
	tb.Add("column mean (0 dims)", fmt.Sprintf("%.4f", meanMSE), "∞")
	tb.Add(fmt.Sprintf("PCA(%d)", code), fmt.Sprintf("%.4f", pcaMSE), fmt.Sprintf("%.1fx", float64(bands)/code))
	tb.Add(fmt.Sprintf("autoencoder(%d)", code), fmt.Sprintf("%.4f", aeMSE), fmt.Sprintf("%.1fx", float64(bands)/code))

	return Result{
		ID: "E15", Title: "Autoencoder RS data compression (§III-B, ref [7])",
		Report: tb.String(),
		Metrics: map[string]float64{
			"mse_mean": meanMSE,
			"mse_pca":  pcaMSE,
			"mse_ae":   aeMSE,
			"ae_loss":  finalLoss,
		},
	}
}

func mseOf(a, b *tensor.Tensor) float64 {
	d := tensor.Sub(a, b)
	return tensor.Dot(d, d) / float64(d.Size())
}

// E16EarlyWarning builds the §IV-B end goal — "an algorithmic approach
// that provides early warning [of ARDS] and informs medical staff" — as a
// classifier over sliding vital-sign windows: predict whether onset
// occurs within the next 6 hours. A GRU encoder is compared against a
// linear model on the flattened window (the classical scoring-rule
// baseline).
func E16EarlyWarning(scale Scale) Result {
	patients, epochs := 60, 60
	if scale == Full {
		patients, epochs = 300, 150
	}
	ds := data.GenICU(data.ICUConfig{Patients: patients, Steps: 40, Seed: 101, ARDSFraction: 0.5})
	const window, lead = 8, 6
	x, labels := ds.EarlyWarningWindows(window, lead, 2)
	n := x.Dim(0)
	split := data.TrainValSplit(n, 0.3, 102)

	pos := 0
	for _, l := range labels {
		pos += l
	}

	featDim := x.Dim(2)
	gru := nn.NewSequential(
		nn.NewGRU(rand.New(rand.NewSource(103)), "g", featDim, 16),
		&nn.LastTimestep{},
		nn.NewDense(rand.New(rand.NewSource(104)), "head", 16, 2),
	)
	linear := nn.NewSequential(
		&nn.Flatten{},
		nn.NewDense(rand.New(rand.NewSource(105)), "lin", window*featDim, 2),
	)

	trainClassifier := func(m *nn.Sequential, lr float64) (recall, precision, acc float64) {
		opt := nn.NewAdam()
		loss := nn.SoftmaxCrossEntropy{}
		oneHot := nn.OneHot(labels, 2)
		for e := 0; e < epochs; e++ {
			bx := data.SelectRows(x, split.Train)
			by := data.SelectRows(oneHot, split.Train)
			m.ZeroGrads()
			out := m.Forward(bx, true)
			_, grad := loss.Forward(out, by)
			m.Backward(grad)
			nn.ClipGradNorm(m.Params(), 5)
			opt.Step(m.Params(), lr)
		}
		vx := data.SelectRows(x, split.Val)
		vl := data.SelectLabels(labels, split.Val)
		logits := m.Forward(vx, false)
		cm := nn.ConfusionMatrix(logits, vl, 2)
		recall = nn.PerClassRecall(cm)[1]
		precision = nn.PerClassPrecision(cm)[1]
		acc = nn.Accuracy(logits, vl)
		return recall, precision, acc
	}

	gRec, gPrec, gAcc := trainClassifier(gru, 5e-3)
	lRec, lPrec, lAcc := trainClassifier(linear, 1e-2)

	tb := NewTable(fmt.Sprintf("ARDS early warning: onset within %dh predicted from %dh windows (meas, %d windows, %.0f%% positive)",
		lead, window, n, 100*float64(pos)/float64(n)),
		"model", "recall(onset)", "precision(onset)", "accuracy")
	tb.Add("linear on flattened window", fmt.Sprintf("%.3f", lRec), fmt.Sprintf("%.3f", lPrec), fmt.Sprintf("%.3f", lAcc))
	tb.Add("GRU(16) encoder", fmt.Sprintf("%.3f", gRec), fmt.Sprintf("%.3f", gPrec), fmt.Sprintf("%.3f", gAcc))

	return Result{
		ID: "E16", Title: "ARDS early-warning classifier (§IV-B goal)",
		Report: tb.String(),
		Metrics: map[string]float64{
			"gru_recall": gRec, "gru_precision": gPrec, "gru_acc": gAcc,
			"lin_recall": lRec, "lin_precision": lPrec, "lin_acc": lAcc,
			"positive_frac": float64(pos) / float64(n),
		},
	}
}
