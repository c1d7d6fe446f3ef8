package core

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/perfmodel"
)

// E19ModelComparison reproduces the §III-A observation that distributed
// speed-up "enables the deployment of various models to compare their
// performances in a reasonable amount of time": a sweep over CNN variants
// is trained (data-parallel) and ranked, and the wall-clock cost of the
// sweep is projected for a single GPU versus a booster partition.
func E19ModelComparison(scale Scale) Result {
	samples, epochs, workers := 60, 8, 2
	if scale == Full {
		samples, epochs, workers = 240, 12, 4
	}
	ds := data.GenMultispectral(data.MultispectralConfig{Samples: samples, Seed: 121,
		MaxLabels: 1, Classes: 4, Size: 12})
	split := data.TrainValSplit(samples, 0.25, 122)

	type variant struct {
		name          string
		width, stages int
	}
	variants := []variant{
		{"resnet-w4-s1", 4, 1},
		{"resnet-w8-s1", 8, 1},
		{"resnet-w8-s2", 8, 2},
		{"resnet-w16-s2", 16, 2},
	}

	type row struct {
		name   string
		params int
		valF1  float64
		wall   float64
	}
	rows := make([]row, 0, len(variants))
	sweepStart := time.Now()
	for _, v := range variants {
		build := func() *nn.Sequential {
			return nn.ResNetMini(rand.New(rand.NewSource(123)), ds.X.Dim(1), ds.Classes, v.width, v.stages)
		}
		evalFn := func(m *nn.Sequential, idx []int) float64 {
			x := data.SelectRows(ds.X, idx)
			y := data.SelectRows(ds.Y, idx)
			return nn.MultiLabelF1(m.Forward(x, false), y)
		}
		start := time.Now()
		res := runDDP(DDPConfig{Workers: workers, Epochs: epochs, Batch: 4,
			BaseLR: 0.02, Warmup: 8, Seed: 124},
			build, nn.BCEWithLogits{}, ds.X, ds.Y, split, evalFn)
		rows = append(rows, row{
			name: v.name, params: nn.NumParams(build().Params()),
			valF1: res.ValMetric, wall: time.Since(start).Seconds(),
		})
	}
	sweepWall := time.Since(sweepStart).Seconds()

	sort.Slice(rows, func(i, j int) bool { return rows[i].valF1 > rows[j].valF1 })
	tb := NewTable(fmt.Sprintf("Model comparison sweep (meas, %d variants × %d workers, ranked by val F1)",
		len(variants), workers),
		"model", "params", "val F1", "train s")
	for _, r := range rows {
		tb.Add(r.name, fmt.Sprint(r.params), fmt.Sprintf("%.3f", r.valF1), fmt.Sprintf("%.2f", r.wall))
	}

	// Sweep-cost projection: K candidate ResNet-50-class models trained to
	// convergence (90 epochs) on 1 GPU sequentially vs on a 96-GPU booster
	// partition (each model data-parallel on 24 GPUs, 4 concurrent).
	model := perfmodel.ResNet50BigEarthNet()
	const kModels, fullEpochs = 8, 90
	seq := float64(kModels) * fullEpochs * model.EpochTime(1)
	concurrent := 24
	batchOf4 := float64(kModels) / 4 * fullEpochs * model.EpochTime(concurrent)
	proj := NewTable("Sweep-cost projection: 8 ResNet-50 candidates to convergence (model)",
		"resources", "sweep time h")
	proj.Add("1 GPU, sequential", fmt.Sprintf("%.1f", seq/3600))
	proj.Add("96 GPUs (4 × 24-GPU jobs)", fmt.Sprintf("%.2f", batchOf4/3600))

	metrics := map[string]float64{
		"best_f1":       rows[0].valF1,
		"sweep_wall":    sweepWall,
		"proj_seq_h":    seq / 3600,
		"proj_branch_h": batchOf4 / 3600,
	}
	for _, r := range rows {
		metrics["f1_"+r.name] = r.valF1
		metrics["params_"+r.name] = float64(r.params)
	}
	return Result{
		ID: "E19", Title: "Model comparison enabled by distributed speed-up (§III-A)",
		Report:  tb.String() + "\n" + proj.String(),
		Metrics: metrics,
	}
}
