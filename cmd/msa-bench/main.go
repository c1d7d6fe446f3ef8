// Command msa-bench regenerates the paper's tables and figures. Each
// experiment (e1–e21, indexed in DESIGN.md and EXPERIMENTS.md) prints a
// report where measured numbers are labeled "meas:" and analytic
// projections "model:". Performance is judged by the benchmark harness
// (bash benchmark/run.sh, workloads in BENCHMARK.json), not here.
//
// Usage:
//
//	msa-bench                 # run everything at quick scale
//	msa-bench -exp e3         # one experiment
//	msa-bench -scale full     # paper-scale parameters (slower)
//	msa-bench -metrics        # also dump machine-readable metrics
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (e1..e21) or 'all'")
	scaleFlag := flag.String("scale", "quick", "quick | full")
	metrics := flag.Bool("metrics", false, "print machine-readable metrics after each report")
	list := flag.Bool("list", false, "list experiments and exit")
	serveAddr := flag.String("serve", "", "serve /healthz and /debug/pprof at host:port while running")
	kernelWorkers := flag.Int("kernel-workers", 0, "goroutines per tensor kernel (0 = GOMAXPROCS)")
	flag.Parse()

	if *kernelWorkers > 0 {
		tensor.Configure(tensor.WithWorkers(*kernelWorkers))
	}

	if *serveAddr != "" {
		srv, err := telemetry.Serve(*serveAddr, telemetry.ServeConfig{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "msa-bench: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("observability endpoint at http://%s\n", srv.Addr)
	}

	if *list {
		for _, e := range core.Experiments() {
			fmt.Printf("%-5s %s\n", e.ID, e.Title)
		}
		return
	}

	var scale core.Scale
	switch strings.ToLower(*scaleFlag) {
	case "quick":
		scale = core.Quick
	case "full":
		scale = core.Full
	default:
		fmt.Fprintf(os.Stderr, "msa-bench: unknown scale %q (want quick or full)\n", *scaleFlag)
		os.Exit(2)
	}

	run := func(id string) {
		start := time.Now()
		r, err := core.RunExperiment(id, scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "msa-bench: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("=== %s — %s ===\n", strings.ToUpper(r.ID), r.Title)
		fmt.Println(r.Report)
		if *metrics {
			fmt.Println("metrics:")
			fmt.Print(core.MetricsSorted(r))
		}
		fmt.Printf("(%s completed in %.1fs)\n\n", id, time.Since(start).Seconds())
	}

	if *exp == "all" {
		for _, e := range core.Experiments() {
			run(e.ID)
		}
		return
	}
	run(strings.ToLower(*exp))
}
