// Pipeline parallelism walkthrough: partition the mini ResNet into 4
// stages, compose with 2 data-parallel replicas (a 4×2 grid of 8
// goroutine ranks), and watch the pipeline bubble shrink as micro-batches
// are added — the B = (S−1)/(M+S−1) trade-off of GPipe, and the smaller
// interleaved-1F1B bubble at the same M.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/pipeline"
)

func main() {
	const S = 4 // pipeline depth

	// 1. The bubble model. With M micro-batches, a fill-drain (GPipe)
	//    schedule idles each stage for S−1 micro-slots per step:
	//    B = (S−1)/(M+S−1). Interleaved 1F1B assigns each rank v=2 model
	//    chunks, shrinking the fill to (S−1)/v slots. PlannedBubble
	//    reads the timeline of the exact schedule the engine will
	//    execute, so these are the real numbers, not asymptotics.
	fmt.Println("— Bubble fraction vs micro-batches (4 stages) —")
	fmt.Printf("%4s  %8s  %8s  %8s\n", "M", "analytic", "gpipe", "1f1b")
	for _, M := range []int{4, 8, 16, 32} {
		analytic := float64(S-1) / float64(M+S-1)
		gp := pipeline.PlannedBubble(S, 0, M, pipeline.GPipe, 1, 2)
		fb := pipeline.PlannedBubble(S, 0, M, pipeline.OneFOneB, 1, 2)
		fmt.Printf("%4d  %8.3f  %8.3f  %8.3f\n", M, analytic, gp, fb)
	}
	fmt.Println("\nMore micro-batches amortize the fill/drain ramps; 1F1B's")
	fmt.Println("interleaved chunks cut the ramp itself. Both converge to 0.")

	// 2. A 2D run: 8 ranks = 4 pipeline stages × 2 data replicas. Each
	//    replica group pipelines the ResNet over its stages; the two
	//    groups average per-chunk gradients over the orthogonal
	//    data-parallel subcommunicator. Training math is bitwise equal to
	//    single-rank micro-batched SGD regardless of schedule.
	const samples = 64
	ds := data.GenMultispectral(data.MultispectralConfig{Samples: samples, Seed: 1})
	split := data.TrainValSplit(samples, 0.25, 2)
	fmt.Println("\n— 2D training: 4 stages × 2 replicas, 1F1B, M=8 —")
	res := core.TrainResNetBigEarthNet(core.DDPConfig{
		Workers: 8, Epochs: 3, Batch: 8,
		BaseLR: 0.02, Seed: 3,
		PipelineStages: S, MicroBatches: 8, PipeSchedule: pipeline.OneFOneB,
	}, ds, split)

	fmt.Printf("optimizer steps %d\n", res.Steps)
	fmt.Printf("final loss      %.4f\n", res.FinalLoss)
	fmt.Printf("train micro-F1  %.3f\n", res.TrainMetric)
	fmt.Printf("val micro-F1    %.3f\n", res.ValMetric)
	fmt.Printf("comm fraction   %.3f (data-parallel grad sync share)\n", res.CommFraction)
	fmt.Printf("bubble fraction %.3f (planned 1f1b, S=%d M=8)\n", res.BubbleFraction, S)
}
