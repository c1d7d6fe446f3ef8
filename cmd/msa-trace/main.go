// Command msa-trace runs a multi-rank data-parallel training job with
// telemetry enabled and writes the per-rank timeline as Chrome
// trace-event JSON (load it in chrome://tracing or Perfetto — each rank
// is one thread row) plus a Prometheus text dump of the collective
// counters. It finishes with a timeline summary: per-rank span counts,
// communication fraction, and the top categories by total time.
//
// Usage:
//
//	msa-trace                              # 4 ranks, 1 epoch, trace.json + metrics.txt
//	msa-trace -workers 8 -epochs 2
//	msa-trace -dataset cxr                 # CovidNet
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/telemetry"
	"repro/internal/telemetry/causal"
)

func main() {
	dataset := flag.String("dataset", "bigearthnet", "bigearthnet | cxr")
	workers := flag.Int("workers", 4, "number of simulated ranks (>= 1)")
	epochs := flag.Int("epochs", 1, "training epochs")
	batch := flag.Int("batch", 4, "per-rank batch size")
	samples := flag.Int("samples", 64, "synthetic dataset size")
	seed := flag.Int64("seed", 42, "random seed")
	out := flag.String("out", "trace.json", "Chrome trace-event JSON output path")
	metricsOut := flag.String("metrics", "metrics.txt", "Prometheus text dump output path")
	breakdownOut := flag.String("breakdown", "", "causal critical-path breakdown JSON output path (empty = skip)")
	topK := flag.Int("top", 5, "top categories to show in the summary")
	flag.Parse()

	if *workers < 1 {
		fail("need at least 1 worker")
	}
	// Keep every rank's step count identical: synchronous data parallelism
	// deadlocks (real MPI hangs too) when ranks disagree on the number of
	// collectives. Round the train split down to a multiple of
	// workers*batch.
	trainFrac := 0.75
	stepSpan := *workers * *batch
	train := int(float64(*samples) * trainFrac)
	train = train / stepSpan * stepSpan
	if train == 0 {
		fail("samples too small for %d workers x batch %d; raise -samples", *workers, *batch)
	}
	n := train + (*samples - int(float64(*samples)*trainFrac))
	valFrac := 1 - float64(train)/float64(n)

	tracer := telemetry.NewTracer(0)
	reg := telemetry.NewRegistry()
	// Process-wide heap / GC gauges alongside the training counters: the
	// metrics dump shows whether workspace pooling kept the run off the
	// allocator.
	telemetry.RegisterMemMetrics(reg)
	cfg := core.DDPConfig{
		Workers: *workers, Epochs: *epochs, Batch: *batch, BaseLR: 0.01, Seed: *seed,
		Tracer: tracer, Registry: reg,
	}

	var res core.DDPResult
	switch *dataset {
	case "bigearthnet":
		ds := data.GenMultispectral(data.MultispectralConfig{Samples: n, Seed: *seed})
		split := data.TrainValSplit(n, valFrac, *seed)
		res = core.TrainResNetBigEarthNet(cfg, ds, split)
	case "cxr":
		ds := data.GenCXR(data.CXRConfig{Samples: n, Seed: *seed})
		split := data.TrainValSplit(n, valFrac, *seed)
		res = core.TrainCovidNet(cfg, ds, split)
	default:
		fail("unknown dataset %q (want bigearthnet or cxr)", *dataset)
	}

	f, err := os.Create(*out)
	if err != nil {
		fail("creating %s: %v", *out, err)
	}
	if err := tracer.WriteChromeTrace(f); err != nil {
		fail("writing trace: %v", err)
	}
	if err := f.Close(); err != nil {
		fail("closing %s: %v", *out, err)
	}

	// The causal report feeds both outputs: its msa_criticalpath_* gauges
	// must land in the registry before the Prometheus dump below.
	rep := causal.Analyze(tracer.Spans())
	causal.PublishMetrics(reg, rep)
	if *breakdownOut != "" {
		blob, err := rep.JSON()
		if err != nil {
			fail("rendering breakdown: %v", err)
		}
		if err := os.WriteFile(*breakdownOut, blob, 0o644); err != nil {
			fail("writing %s: %v", *breakdownOut, err)
		}
	}

	mf, err := os.Create(*metricsOut)
	if err != nil {
		fail("creating %s: %v", *metricsOut, err)
	}
	if err := reg.WritePrometheus(mf); err != nil {
		fail("writing metrics: %v", err)
	}
	if err := mf.Close(); err != nil {
		fail("closing %s: %v", *metricsOut, err)
	}

	sum := telemetry.Summarize(tracer)
	fmt.Printf("msa-trace: %s, %d ranks x %d epochs\n", *dataset, *workers, *epochs)
	fmt.Printf("steps %d  final loss %.4f  train metric %.3f  val metric %.3f  wall %.2fs\n\n",
		res.Steps, res.FinalLoss, res.TrainMetric, res.ValMetric, res.WallSeconds)
	fmt.Print(sum.String())
	fmt.Println()
	fmt.Printf("top %d categories by total time:\n", *topK)
	for _, c := range sum.TopCategories(*topK) {
		fmt.Printf("  %-12s %10d spans  %12.3fms total\n", c.Cat, c.Count, float64(c.Total)/1e6)
	}
	if len(rep.Steps) > 0 {
		sb := rep.Steps[len(rep.Steps)-1]
		fmt.Printf("\ncausal attribution (last of %d step windows): compute %.3f  exposed-comm %.3f  bubble %.3f  straggler %.3f\n",
			len(rep.Steps), sb.ComputeFraction, sb.CommFraction, sb.BubbleFraction, sb.StragglerFraction)
		fmt.Printf("critical path (%d segments, binding-constraint chain):\n", len(sb.CriticalPath))
		show := sb.CriticalPath
		if len(show) > *topK {
			show = show[len(show)-*topK:]
		}
		for _, seg := range show {
			fmt.Printf("  rank %d  %-14s %-14s %10.3fms -> %.3fms\n",
				seg.Rank, seg.Name, seg.Class, float64(seg.StartNS)/1e6, float64(seg.EndNS)/1e6)
		}
	}
	if rep.UnmatchedRecvs > 0 {
		fmt.Printf("(%d unmatched recvs — trace is partial, breakdown approximate)\n", rep.UnmatchedRecvs)
	}
	fmt.Printf("\nwrote %s (open in chrome://tracing or ui.perfetto.dev) and %s\n", *out, *metricsOut)
	if *breakdownOut != "" {
		fmt.Printf("wrote %s (per-step compute/comm/bubble/straggler attribution + critical path)\n", *breakdownOut)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "msa-trace: "+format+"\n", args...)
	os.Exit(2)
}
