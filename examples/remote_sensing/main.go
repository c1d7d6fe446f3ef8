// Remote-sensing case study (§III of the paper): distributed training of
// a ResNet-family CNN on multispectral land-cover patches, the scaling
// behaviour from 1 measured worker up to a 128-GPU projection, and the
// classical parallel SVM alternative for CPU-only modules.
package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/svm"
)

func main() {
	fmt.Println("=== Earth land-cover classification on the MSA (paper §III) ===")

	// --- Part 1: distributed DL training, measured at small scale ---
	ds := data.GenMultispectral(data.MultispectralConfig{Samples: 80, Seed: 7})
	split := data.TrainValSplit(80, 0.25, 8)
	fmt.Printf("\n%s\n\n", ds)

	fmt.Println("measured data-parallel training (goroutine ranks, ring allreduce):")
	var base float64
	for _, workers := range []int{1, 2, 4} {
		res := core.TrainResNetBigEarthNet(core.DDPConfig{
			Workers: workers, Epochs: 2, Batch: 4,
			BaseLR: 0.02, Warmup: 6, Seed: 9,
		}, ds, split)
		if workers == 1 {
			base = res.WallSeconds
		}
		fmt.Printf("  %d workers: %.2fs wall, val F1 %.3f, speedup %.2f\n",
			workers, res.WallSeconds, res.ValMetric, base/res.WallSeconds)
	}

	// --- Part 2: projection to JUWELS booster scale (Fig. 3) ---
	fmt.Println("\nprojection to the JUWELS booster (ResNet-50, BigEarthNet, A100s):")
	model := perfmodel.ResNet50BigEarthNet()
	for _, pt := range model.ScalingCurve([]int{1, 8, 32, 96, 128}) {
		fmt.Printf("  %4d GPUs: epoch %7.1fs, %7.0f img/s, speedup %6.1f (%.0f%% efficiency)\n",
			pt.Workers, pt.EpochSec, pt.ImgPerSec, pt.Speedup, pt.Efficiency*100)
	}

	// --- Part 3: parallel cascade SVM on the CPU cluster module ---
	fmt.Println("\nparallel cascade SVM for CPU-only modules (ref [16]):")
	sds := data.GenMultispectral(data.MultispectralConfig{
		Samples: 700, Seed: 10, MaxLabels: 1, Classes: 2, Size: 6, Bands: 2})
	flat, labels := sds.FlattenFeatures()
	x := make([][]float64, flat.Dim(0))
	y := make([]int, len(labels))
	for i := range x {
		x[i] = flat.Row(i)
		y[i] = labels[i]*2 - 1
	}
	xTr, yTr := x[:600], y[:600]
	xTe, yTe := x[600:], y[600:]
	cfg := svm.Config{Kernel: svm.RBF{Gamma: 0.05}, Seed: 11}

	start := time.Now()
	single := svm.Train(xTr, yTr, cfg)
	t1 := time.Since(start).Seconds()
	fmt.Printf("  single SMO:      %.3fs, accuracy %.3f, %d SVs\n", t1, single.Accuracy(xTe, yTe), single.NumSVs())

	for _, p := range []int{2, 4} {
		xs, ys := svm.ShardData(xTr, yTr, p)
		w := mpi.NewWorld(p)
		accs := make([]float64, p)
		start = time.Now()
		if err := w.Run(func(c *mpi.Comm) error {
			m := svm.TrainCascade(c, xs[c.Rank()], ys[c.Rank()], cfg)
			accs[c.Rank()] = m.Accuracy(xTe, yTe)
			return nil
		}); err != nil {
			panic(err)
		}
		tp := time.Since(start).Seconds()
		fmt.Printf("  cascade %d ranks: %.3fs, accuracy %.3f, speedup %.2f\n", p, tp, accs[0], t1/tp)
	}
}
