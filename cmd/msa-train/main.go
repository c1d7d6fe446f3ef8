// Command msa-train runs Horovod-style distributed training on the
// goroutine-rank MPI runtime: the workflow of §III-A (remote sensing) and
// §IV-A (COVID-Net) with synthetic stand-ins for the gated datasets.
//
// Usage:
//
//	msa-train -dataset bigearthnet -workers 4 -epochs 3
//	msa-train -dataset covidx -workers 2 -epochs 10
//	msa-train -workers 4 -epochs 1 -trace-dir out  # + trace.json, metrics.txt, breakdown.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
	"repro/internal/telemetry/causal"
	"repro/internal/tensor"
)

func main() {
	dataset := flag.String("dataset", "bigearthnet", "bigearthnet | covidx")
	workers := flag.Int("workers", 4, "data-parallel replicas")
	epochs := flag.Int("epochs", 3, "training epochs")
	batch := flag.Int("batch", 4, "per-worker minibatch")
	samples := flag.Int("samples", 96, "synthetic dataset size")
	lr := flag.Float64("lr", 0.02, "base learning rate")
	warmup := flag.Int("warmup", 8, "warmup steps for the linear-scaling rule (0 = off)")
	stages := flag.Int("pipeline-stages", 0, "pipeline depth S for 2D data×pipeline training (0 = plain DDP; must divide -workers)")
	micro := flag.Int("microbatch", 4, "pipeline micro-batches per step (with -pipeline-stages)")
	pipeSched := flag.String("pipe-schedule", "gpipe", "pipeline schedule: gpipe | 1f1b")
	virtual := flag.Int("virtual-chunks", 0, "model chunks per stage (0 = schedule default: 1 gpipe, 2 1f1b)")
	seed := flag.Int64("seed", 1, "global seed")
	serveAddr := flag.String("serve", "", "serve the live observability endpoint (/metrics /trace /breakdown /debug/pprof /healthz) at host:port during the run")
	traceDir := flag.String("trace-dir", "", "trace the run and write trace.json (Chrome trace events), metrics.txt (Prometheus) and breakdown.json (causal attribution) into this directory")
	kernelWorkers := flag.Int("kernel-workers", 0, "goroutines per tensor kernel (0 = GOMAXPROCS; set low when -workers ranks already saturate the host)")
	flag.Parse()

	if *kernelWorkers > 0 {
		tensor.Configure(tensor.WithWorkers(*kernelWorkers))
	}
	sched, err := pipeline.ParseSchedule(*pipeSched)
	if err != nil {
		fmt.Fprintf(os.Stderr, "msa-train: %v\n", err)
		os.Exit(2)
	}
	cfg := core.DDPConfig{
		Workers: *workers, Epochs: *epochs, Batch: *batch,
		BaseLR: *lr, Warmup: *warmup, Seed: *seed,
		PipelineStages: *stages, MicroBatches: *micro, PipeSchedule: sched, VirtualChunks: *virtual,
	}

	var tracer *telemetry.Tracer
	var reg *telemetry.Registry
	if *serveAddr != "" || *traceDir != "" {
		tracer = telemetry.NewTracer(0)
		reg = telemetry.NewRegistry()
		telemetry.RegisterMemMetrics(reg)
		cfg.Tracer, cfg.Registry = tracer, reg
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "msa-train: %v\n", err)
			os.Exit(1)
		}
	}
	if *serveAddr != "" {
		// The endpoint reads the tracer and registry live, so a scrape or
		// /breakdown request mid-training sees the run so far.
		srv, err := telemetry.Serve(*serveAddr, telemetry.ServeConfig{
			Registry:  reg,
			Tracer:    tracer,
			Breakdown: causal.BreakdownJSON(tracer),
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "msa-train: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("observability endpoint at http://%s\n", srv.Addr)
	}

	var res core.DDPResult
	var metric string
	switch *dataset {
	case "bigearthnet":
		ds := data.GenMultispectral(data.MultispectralConfig{Samples: *samples, Seed: *seed})
		split := data.TrainValSplit(*samples, 0.25, *seed+1)
		res = core.TrainResNetBigEarthNet(cfg, ds, split)
		metric = "micro-F1"
	case "covidx":
		ds := data.GenCXR(data.CXRConfig{Samples: *samples, Seed: *seed})
		split := data.TrainValSplit(*samples, 0.25, *seed+1)
		res = core.TrainCovidNet(cfg, ds, split)
		metric = "accuracy"
	default:
		fmt.Fprintf(os.Stderr, "msa-train: unknown dataset %q\n", *dataset)
		os.Exit(2)
	}

	fmt.Printf("dataset        %s (%d synthetic samples)\n", *dataset, *samples)
	if *stages > 1 {
		fmt.Printf("workers        %d  (2D: %d pipeline stages x %d replicas, %s, %d micro-batches)\n",
			*workers, *stages, *workers / *stages, sched, *micro)
	} else {
		fmt.Printf("workers        %d\n", *workers)
	}
	fmt.Printf("optimizer steps %d\n", res.Steps)
	fmt.Printf("final loss     %.4f\n", res.FinalLoss)
	fmt.Printf("train %-9s %.3f\n", metric, res.TrainMetric)
	fmt.Printf("val %-11s %.3f\n", metric, res.ValMetric)
	fmt.Printf("wall time      %.2f s\n", res.WallSeconds)
	fmt.Printf("wire bytes     %d (sent by rank 0)\n", res.GradBytes)
	fmt.Printf("comm fraction  %.3f\n", res.CommFraction)
	if *stages > 1 {
		fmt.Printf("bubble fraction %.3f (planned %s schedule, S=%d M=%d)\n", res.BubbleFraction, sched, *stages, *micro)
	}
	if tracer != nil {
		rep := causal.Analyze(tracer.Spans())
		causal.PublishMetrics(reg, rep)
		if n := len(rep.Steps); n > 0 {
			sb := rep.Steps[n-1]
			fmt.Printf("causal attribution (last step): compute %.3f  exposed-comm %.3f  bubble %.3f  straggler %.3f\n",
				sb.ComputeFraction, sb.CommFraction, sb.BubbleFraction, sb.StragglerFraction)
			if *traceDir != "" {
				show := sb.CriticalPath[max(0, len(sb.CriticalPath)-5):]
				fmt.Printf("critical path (last %d of %d segments):\n", len(show), len(sb.CriticalPath))
				for _, seg := range show {
					fmt.Printf("  rank %d  %-14s %-14s %10.3fms -> %.3fms\n",
						seg.Rank, seg.Name, seg.Class, float64(seg.StartNS)/1e6, float64(seg.EndNS)/1e6)
				}
			}
		}
		if *traceDir != "" {
			if n := tracer.Dropped(); n > 0 {
				fmt.Printf("(%d spans dropped by ring wrap-around — trace is partial)\n", n)
			}
			if rep.UnmatchedRecvs > 0 {
				fmt.Printf("(%d unmatched recvs — trace is partial, breakdown approximate)\n", rep.UnmatchedRecvs)
			}
			if err := writeTraceDir(*traceDir, tracer, reg, rep); err != nil {
				fmt.Fprintf(os.Stderr, "msa-train: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote trace.json (open in ui.perfetto.dev), metrics.txt and breakdown.json to %s\n", *traceDir)
		}
	}
}

// writeTraceDir writes the run's Chrome trace, Prometheus dump and causal
// breakdown into dir.
func writeTraceDir(dir string, tracer *telemetry.Tracer, reg *telemetry.Registry, rep *causal.Report) error {
	blob, err := rep.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "breakdown.json"), blob, 0o644); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(dir, "trace.json"), tracer.WriteChromeTrace); err != nil {
		return err
	}
	return writeFile(filepath.Join(dir, "metrics.txt"), reg.WritePrometheus)
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
