package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tensor"
)

// TestStressConcurrentClients is the -race workout for the whole
// pipeline: hundreds of concurrent clients against a small flaky replica
// pool with a tight queue and mixed deadlines, exercising shedding,
// deadline expiry, replica failure + retry, and response routing all at
// once.
//
// Invariants checked:
//   - every request resolves to exactly one of OK/shed/expired/failed
//     (no lost or duplicated responses),
//   - an OK response carries the caller's own payload (no cross-routing),
//   - server- and client-side shed counts agree,
//   - after Close, server-side accounting is exact:
//     arrivals = completed + shed + expired + failed.
func TestStressConcurrentClients(t *testing.T) {
	const (
		clients    = 200
		perClient  = 20
		classes    = 4
		totalReqs  = clients * perClient
		slowEveryN = 5 // every 5th client uses a very tight deadline
	)

	// Two healthy echo replicas plus two that fail every third call.
	mk := func() Backend { return &echoBackend{delay: 200 * time.Microsecond} }
	backends := []Backend{
		mk(), mk(),
		&flakyBackend{inner: mk(), failWhen: func(c int64) bool { return c%3 == 0 }},
		&flakyBackend{inner: mk(), failWhen: func(c int64) bool { return c%3 == 0 }},
	}
	s := New(backends, Config{
		MaxBatch:        8,
		BatchWindow:     300 * time.Microsecond,
		QueueCap:        32,
		DefaultDeadline: 2 * time.Second,
	})

	var ok, shed, expired, failed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				x := tensor.New(classes)
				x.Set(float64(c*perClient+i), 0)
				ctx := context.Background()
				var cancel context.CancelFunc
				if c%slowEveryN == 0 {
					ctx, cancel = context.WithTimeout(ctx, 50*time.Microsecond)
				}
				p, err := s.Predict(ctx, x)
				if cancel != nil {
					cancel()
				}
				switch {
				case err == nil:
					ok.Add(1)
					if p.Probs[0] != float64(c*perClient+i) {
						t.Errorf("client %d req %d received someone else's prediction: %v", c, i, p.Probs)
					}
				case errors.Is(err, ErrOverloaded):
					shed.Add(1)
				case errors.Is(err, context.DeadlineExceeded):
					expired.Add(1)
				case errors.Is(err, ErrReplicasExhausted):
					failed.Add(1)
				default:
					t.Errorf("client %d req %d: unexpected error %v", c, i, err)
				}
			}
		}(c)
	}
	wg.Wait()
	s.Close()

	if got := ok.Load() + shed.Load() + expired.Load() + failed.Load(); got != totalReqs {
		t.Fatalf("client outcomes sum to %d, want %d (lost or duplicated responses)", got, totalReqs)
	}
	if ok.Load() == 0 {
		t.Fatal("no request succeeded under stress")
	}

	snap := s.Snapshot()
	if snap.Arrivals != totalReqs {
		t.Fatalf("server saw %d arrivals, want %d", snap.Arrivals, totalReqs)
	}
	// After Close the pipeline is drained, so the server-side ledger must
	// balance exactly. (Client-side expiry can exceed server-side when a
	// response lands after the caller gave up — those count as completed
	// or failed here.)
	if sum := snap.Completed + snap.Shed + snap.Expired + snap.Failed; sum != snap.Arrivals {
		t.Fatalf("server ledger unbalanced: completed=%d shed=%d expired=%d failed=%d ≠ arrivals=%d",
			snap.Completed, snap.Shed, snap.Expired, snap.Failed, snap.Arrivals)
	}
	if snap.Shed != shed.Load() {
		t.Fatalf("shed mismatch: server %d, clients %d", snap.Shed, shed.Load())
	}
	if snap.Completed < ok.Load() {
		t.Fatalf("server completed %d < client OK %d", snap.Completed, ok.Load())
	}
	if snap.P99 < snap.P50 {
		t.Fatalf("latency quantiles not monotone: p50=%v p99=%v", snap.P50, snap.P99)
	}
}

// TestStressReplicaChurn hammers a pool where every replica fails
// periodically, ensuring quarantine + cooldown never wedges the server.
func TestStressReplicaChurn(t *testing.T) {
	backends := make([]Backend, 3)
	for i := range backends {
		backends[i] = &flakyBackend{inner: &echoBackend{}, failWhen: func(c int64) bool { return c%4 == 0 }}
	}
	s := New(backends, Config{
		MaxBatch:        4,
		BatchWindow:     200 * time.Microsecond,
		QueueCap:        64,
		DefaultDeadline: 5 * time.Second,
	})
	defer s.Close()

	rep := RunClosedLoop(s, LoadConfig{Clients: 50, Duration: 20 * time.Millisecond},
		func(c, i int) *tensor.Tensor { return sampleVec(float64(c), float64(i), 0) })
	s.Close()
	snap := s.Snapshot()
	if snap.Completed+snap.Shed+snap.Expired+snap.Failed != snap.Arrivals {
		t.Fatalf("outcomes don't sum: %+v", snap)
	}
	if rep.OK < snap.Arrivals/2 {
		t.Fatalf("churn degraded service too far: %d of %d served", rep.OK, snap.Arrivals)
	}
}
