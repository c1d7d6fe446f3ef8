// Quickstart: build an MSA system description, inspect it, and run a
// small Horovod-style distributed training job on the goroutine-rank MPI
// runtime — the minimal end-to-end tour of the library.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/msa"
)

func main() {
	// 1. An MSA system is a plain data structure (Fig. 1 of the paper):
	//    modules with heterogeneous nodes joined by a network federation.
	rt, err := core.NewRuntime("deep")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("— The DEEP modular supercomputer —")
	fmt.Print(rt.System.Summary())

	dam := rt.System.Module(msa.DataAnalytics)
	fmt.Printf("\nThe DAM holds %d V100 GPUs and %.0f TB of NVM.\n\n", dam.GPUs(), dam.TotalNVMTB())

	// 2. Generate a synthetic BigEarthNet-like dataset (the real archive
	//    is a 66 GB download; the generator reproduces its structure).
	ds := data.GenMultispectral(data.MultispectralConfig{Samples: 64, Seed: 1})
	split := data.TrainValSplit(64, 0.25, 2)
	fmt.Printf("dataset: %s\n", ds)

	// 3. Train a mini ResNet data-parallel on 4 simulated GPUs: each rank
	//    is a goroutine, gradients are averaged with ring allreduce.
	res := core.TrainResNetBigEarthNet(core.DDPConfig{
		Workers: 4, Epochs: 4, Batch: 4,
		BaseLR: 0.02, Warmup: 8, // warmup + linear-scaling rule
		Seed: 3,
	}, ds, split)

	fmt.Printf("\ntrained %d steps across 4 workers in %.1fs\n", res.Steps, res.WallSeconds)
	fmt.Printf("final loss      %.4f\n", res.FinalLoss)
	fmt.Printf("train micro-F1  %.3f\n", res.TrainMetric)
	fmt.Printf("val micro-F1    %.3f\n", res.ValMetric)
	fmt.Printf("wire bytes      %d (sent by rank 0)\n", res.GradBytes)
}
