// COVID-19 chest X-ray screening case study (§IV-A of the paper): train
// the COVID-Net-style CNN on synthetic COVIDx radiographs, report the
// per-class sensitivity clinicians care about, and show the A100-vs-V100
// generation effect the paper attributes to the JUWELS booster.
package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/msa"
	"repro/internal/nn"
	"repro/internal/perfmodel"
)

func main() {
	fmt.Println("=== COVID-Net chest X-ray screening (paper §IV-A) ===")

	ds := data.GenCXR(data.CXRConfig{Samples: 60, Seed: 21})
	split := data.TrainValSplit(60, 0.25, 22)
	fmt.Printf("\nsynthetic COVIDx: %d radiographs, classes %v\n\n", 60, data.CXRClassNames)

	// Distributed training across 2 simulated GPUs.
	res := core.TrainCovidNet(core.DDPConfig{
		Workers: 2, Epochs: 10, Batch: 4,
		BaseLR: 0.02, Warmup: 5, Seed: 23,
	}, ds, split)
	fmt.Printf("distributed training: %d steps, %.1fs wall\n", res.Steps, res.WallSeconds)
	fmt.Printf("validation accuracy:  %.3f\n\n", res.ValMetric)

	// Single-replica training for the confusion matrix.
	model := nn.CovidNetMini(rand.New(rand.NewSource(24)), 32, data.CXRClasses)
	opt := nn.NewSGD(0.9, 1e-4)
	loss := nn.SoftmaxCrossEntropy{}
	oneHot := ds.OneHotLabels()
	for epoch := 0; epoch < 10; epoch++ {
		for lo := 0; lo < len(split.Train); lo += 4 {
			hi := lo + 4
			if hi > len(split.Train) {
				hi = len(split.Train)
			}
			idx := split.Train[lo:hi]
			bx := data.SelectRows(ds.X, idx)
			by := data.SelectRows(oneHot, idx)
			model.ZeroGrads()
			out := model.Forward(bx, true)
			_, grad := loss.Forward(out, by)
			model.Backward(grad)
			opt.Step(model.Params(), 0.02)
		}
	}
	vx := data.SelectRows(ds.X, split.Val)
	vl := data.SelectLabels(ds.Labels, split.Val)
	cm := nn.ConfusionMatrix(model.Forward(vx, false), vl, data.CXRClasses)
	rec := nn.PerClassRecall(cm)
	fmt.Println("validation confusion matrix (rows = actual):")
	fmt.Printf("%12s", "")
	for _, n := range data.CXRClassNames {
		fmt.Printf("%12s", n)
	}
	fmt.Println()
	for c, row := range cm {
		fmt.Printf("%12s", data.CXRClassNames[c])
		for _, v := range row {
			fmt.Printf("%12d", v)
		}
		fmt.Printf("    sensitivity %.2f\n", rec[c])
	}

	// GPU-generation projection: the paper notes training/inference is
	// "significantly faster" on the booster's A100 tensor cores.
	w := perfmodel.Workload{Name: "covidnet", Class: perfmodel.ClassDLTraining,
		PrefersGPU: true, Flops: 5e15, Bytes: 1e12, ParallelFrac: 0.99, MemoryGB: 16}
	v100Node := msa.NodeSpec{CPU: msa.Skylake6148, Sockets: 2, MemGB: 192, MemBWGBs: 256,
		Accels: []msa.AccelAttach{{Spec: msa.V100, Count: 4}}}
	a100Node := msa.NodeSpec{CPU: msa.EPYC7402, Sockets: 2, MemGB: 512, MemBWGBs: 410,
		Accels: []msa.AccelAttach{{Spec: msa.A100, Count: 4}}}
	tV, tA := perfmodel.NodeTime(w, v100Node), perfmodel.NodeTime(w, a100Node)
	fmt.Printf("\nGPU generation projection: V100 node %.0fs → A100 node %.0fs (%.2fx faster)\n", tV, tA, tV/tA)
}
