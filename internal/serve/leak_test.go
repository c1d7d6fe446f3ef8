package serve

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestServerCloseLeavesNoGoroutines closes a server while clients keep it
// loaded and checks that the goroutine count returns to what it was
// before the server was built. The baseline is taken after one full-batch
// warm-up forward, so the tensor kernels' persistent helper pool is
// already counted in it.
func TestServerCloseLeavesNoGoroutines(t *testing.T) {
	const in, maxBatch, clients = 16, 8, 8
	factory := func() *nn.Sequential { return nn.MLP(rand.New(rand.NewSource(3)), in, 64, 4) }
	backends := []Backend{NewModelBackend(factory(), nn.ActSoftmax), NewModelBackend(factory(), nn.ActSoftmax)}
	rng := rand.New(rand.NewSource(4))
	if _, err := backends[0].Infer(tensor.Randn(rng, 1, maxBatch, in)); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	s := New(backends, Config{MaxBatch: maxBatch, BatchWindow: 200 * time.Microsecond, QueueCap: 32})
	var served atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		x := tensor.Randn(rng, 1, in)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_, err := s.Predict(context.Background(), x)
				if errors.Is(err, ErrClosed) {
					return
				}
				if err == nil {
					served.Add(1)
				}
			}
		}()
	}
	waitServed(t, &served, 200)
	s.Close()
	wg.Wait()
	waitGoroutines(t, base)
}

// waitServed waits until at least n requests were served, so Close runs
// under load.
func waitServed(t *testing.T, served *atomic.Int64, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for served.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d requests served before the deadline", served.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// waitGoroutines polls for up to 2 s for the goroutine count to fall back
// to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before the server was built:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
