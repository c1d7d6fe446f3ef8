package fleet

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// TestFleetCloseLeavesNoGoroutines closes a two-group fleet serving a real
// model while clients keep it loaded and checks that the goroutine count
// returns to what it was before the fleet was built. The baseline is taken
// after one full-batch warm-up forward, so the tensor kernels' persistent
// helper pool is already counted in it.
func TestFleetCloseLeavesNoGoroutines(t *testing.T) {
	const in, maxBatch, clients = 16, 8, 8
	build := func() *nn.Sequential { return nn.MLP(rand.New(rand.NewSource(5)), in, 64, testClasses) }
	blob, err := nn.SaveModel(build())
	if err != nil {
		t.Fatal(err)
	}
	reg := newTestRegistry(t)
	if _, err := reg.Publish("m", blob, nil); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	warm := serve.NewModelBackend(build(), nn.ActSoftmax)
	if _, err := warm.Infer(tensor.Randn(rng, 1, maxBatch, in)); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	f, err := New(Config{
		Registry: reg,
		BackendFactory: func(_ string, blob []byte) (serve.Backend, error) {
			m := build()
			if err := nn.LoadModel(m, blob); err != nil {
				return nil, err
			}
			return serve.NewModelBackend(m, nn.ActSoftmax), nil
		},
		Groups: []GroupSpec{{Name: "cm", Kind: "CM", Replicas: 2}, {Name: "esb", Kind: "ESB", Replicas: 1}},
		Serve:  serve.Config{MaxBatch: maxBatch, BatchWindow: 200 * time.Microsecond, QueueCap: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Deploy("m"); err != nil {
		t.Fatal(err)
	}
	var served atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		x := tensor.Randn(rng, 1, in)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := f.Predict(context.Background(), "m", x); err == nil {
					served.Add(1)
				}
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for served.Load() < 200 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d requests served before the deadline", served.Load())
		}
		time.Sleep(time.Millisecond)
	}
	f.Close()
	stop.Store(true)
	wg.Wait()

	deadline = time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before the fleet was built:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
