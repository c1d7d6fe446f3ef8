package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tensor"
)

// LoadConfig drives a closed-loop load test: Clients concurrent callers,
// each issuing its next request the moment the previous one resolves —
// the standard serving-benchmark harness shape (MLPerf Inference server
// scenario).
type LoadConfig struct {
	Clients  int
	Duration time.Duration
	// ShedBackoff is slept after a shed response before the client
	// retries, so overload doesn't degenerate into a spin loop
	// (default 200µs).
	ShedBackoff time.Duration
}

// LoadReport is the client-side view of a load run (the server-side view,
// with every outcome counted, is Server.Snapshot).
type LoadReport struct {
	// OK counts successful responses.
	OK int64
	// Throughput is successful responses per second of wall time.
	Throughput float64
}

// RunClosedLoop runs the load against s, sampling request inputs via
// sample(client, i).
func RunClosedLoop(s *Server, cfg LoadConfig, sample func(client, i int) *tensor.Tensor) LoadReport {
	if cfg.Clients < 1 {
		cfg.Clients = 1
	}
	if cfg.ShedBackoff <= 0 {
		cfg.ShedBackoff = 200 * time.Microsecond
	}
	var ok atomic.Int64
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				_, err := s.Predict(context.Background(), sample(c, i))
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, ErrOverloaded):
					time.Sleep(cfg.ShedBackoff)
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	rep := LoadReport{OK: ok.Load()}
	if wall > 0 {
		rep.Throughput = float64(rep.OK) / wall.Seconds()
	}
	return rep
}
