// Telemetry: instrument a distributed run end to end — the observability
// story in miniature. A 4-rank data-parallel training job runs with a
// span tracer attached (every MPI collective, every trainer compute/comm
// region, every optimizer step becomes a timed span on that rank's
// track), the per-kind collective counters are re-exported through a
// metrics registry, and both views are rendered: the Chrome trace-event
// JSON you would load into chrome://tracing or Perfetto, and the
// Prometheus text format a scraper would pull. The same tracer then
// watches an inference tier, picking up queue-wait and batch-dispatch
// spans from the serving subsystem.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

func main() {
	// 1. Attach a tracer and a registry to a 4-rank training run. The
	//    tracer costs nothing when nil — here it is live, so every rank
	//    records spans into its own ring buffer.
	tracer := telemetry.NewTracer(0) // 0 → default ring capacity per track
	reg := telemetry.NewRegistry()

	ds := data.GenMultispectral(data.MultispectralConfig{Samples: 32, Seed: 1, Size: 8})
	split := data.TrainValSplit(32, 0.25, 1)
	res := core.TrainResNetBigEarthNet(core.DDPConfig{
		Workers: 4, Epochs: 1, Batch: 6, BaseLR: 0.01, Seed: 1,
		Tracer: tracer, Registry: reg,
	}, ds, split)
	fmt.Printf("trained: %d steps, final loss %.4f\n\n", res.Steps, res.FinalLoss)

	// 2. Summarize the timeline: per-rank communication fraction is the
	//    quantity that bounds data-parallel scaling efficiency.
	sum := telemetry.Summarize(tracer)
	fmt.Print(sum.String())

	// 3. Export the Chrome trace. Each rank renders as one thread row;
	//    collective spans carry payload bytes and the algorithm used.
	f, err := os.Create("telemetry-trace.json")
	if err != nil {
		log.Fatal(err)
	}
	if err := tracer.WriteChromeTrace(f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Println("\nwrote telemetry-trace.json — load it in chrome://tracing or ui.perfetto.dev")

	// 4. Dump the registry in Prometheus text format. reg.Handler() would
	//    serve the same bytes over HTTP for a real scraper.
	fmt.Println("\ncollective counters (Prometheus text format):")
	if err := reg.WritePrometheus(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// 5. The same machinery watches serving: a fresh tracer records
	//    queue-wait and batch-dispatch spans from the inference tier.
	serveTracer := telemetry.NewTracer(0)
	backends := []serve.Backend{
		serve.NewModelBackend(nn.ResNetMini(rand.New(rand.NewSource(2)), ds.X.Dim(1), ds.Classes, 4, 1), nn.ActSigmoid),
		serve.NewModelBackend(nn.ResNetMini(rand.New(rand.NewSource(2)), ds.X.Dim(1), ds.Classes, 4, 1), nn.ActSigmoid),
	}
	srv := serve.New(backends, serve.Config{MaxBatch: 4, Tracer: serveTracer})
	rowLen := ds.X.Size() / ds.X.Dim(0)
	for i := 0; i < 16; i++ {
		x := tensor.New(ds.X.Shape()[1:]...)
		r := i % ds.X.Dim(0)
		copy(x.Data(), ds.X.Data()[r*rowLen:(r+1)*rowLen])
		if _, err := srv.Predict(context.Background(), x); err != nil {
			log.Fatal(err)
		}
	}
	srv.Close()
	fmt.Println("\nserving timeline:")
	fmt.Print(telemetry.Summarize(serveTracer).String())
}
