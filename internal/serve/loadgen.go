package serve

import (
	"context"
	"errors"
	"math"
	"math/rand"
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

// ShapeConfig describes a bursty diurnal arrival process, phase by
// phase: a sinusoidal base rate (the day/night swing of a million-user
// serving fleet) with seeded Poisson noise per phase and occasional
// Poisson bursts (flash crowds) on top. The generated counts are a pure
// function of the config — the storm scenario replays identical traffic
// across runs, and tests pin exact per-phase counts.
type ShapeConfig struct {
	// BaseRate is the mean arrivals per phase at the diurnal midline.
	BaseRate float64
	// Amplitude in [0,1] is the sinusoidal swing: phase p's mean rate is
	// BaseRate·(1 + Amplitude·sin(2πp/Period)).
	Amplitude float64
	// Period is the number of phases per diurnal cycle (default 24).
	Period int
	// BurstProb is the per-phase probability of a flash-crowd burst.
	BurstProb float64
	// BurstMean is the mean extra arrivals a burst adds (Poisson).
	BurstMean float64
	// Phases is how many phases to generate.
	Phases int
	// Seed makes the arrival sequence reproducible.
	Seed int64
}

// ArrivalCounts generates the per-phase arrival counts for the shape:
// deterministic for a given config, Poisson-distributed around the
// sinusoidal rate, with bursts superimposed.
func (c ShapeConfig) ArrivalCounts() []int {
	period := c.Period
	if period <= 0 {
		period = 24
	}
	rng := rand.New(rand.NewSource(c.Seed))
	counts := make([]int, c.Phases)
	for p := range counts {
		lambda := c.BaseRate * (1 + c.Amplitude*math.Sin(2*math.Pi*float64(p)/float64(period)))
		if lambda < 0 {
			lambda = 0
		}
		n := poisson(rng, lambda)
		if c.BurstProb > 0 && rng.Float64() < c.BurstProb {
			n += poisson(rng, c.BurstMean)
		}
		counts[p] = n
	}
	return counts
}

// poisson draws a Poisson variate: Knuth's product method for small
// lambda, a (clamped) normal approximation beyond it — the storm runs at
// lambda in the tens of thousands, where exact inversion is pointless.
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 64 {
		l := math.Exp(-lambda)
		k, p := 0, 1.0
		for {
			p *= rng.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	n := lambda + math.Sqrt(lambda)*rng.NormFloat64()
	if n < 0 {
		return 0
	}
	return int(n + 0.5)
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
