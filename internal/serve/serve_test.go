package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/msa"
	"repro/internal/nn"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
)

// echoBackend returns its input as the score matrix: row i of the output
// equals request i's sample, so tests can verify responses are routed to
// the right requester. It also records every dispatched batch size.
// flakyBackend injects replica failures: calls for which failWhen
// returns true fail instead of inferring.
type flakyBackend struct {
	inner    Backend
	failWhen func(call int64) bool
	calls    atomic.Int64
}

func (b *flakyBackend) Infer(batch *tensor.Tensor) (*tensor.Tensor, error) {
	n := b.calls.Add(1)
	if b.failWhen(n) {
		return nil, fmt.Errorf("serve: injected failure on call %d", n)
	}
	return b.inner.Infer(batch)
}

type echoBackend struct {
	delay time.Duration
	mu    sync.Mutex
	sizes []int
}

func (b *echoBackend) Infer(batch *tensor.Tensor) (*tensor.Tensor, error) {
	if b.delay > 0 {
		time.Sleep(b.delay)
	}
	b.mu.Lock()
	b.sizes = append(b.sizes, batch.Dim(0))
	b.mu.Unlock()
	n := batch.Dim(0)
	out := tensor.New(n, batch.Size()/n)
	copy(out.Data(), batch.Data())
	return out, nil
}

func (b *echoBackend) batchSizes() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]int(nil), b.sizes...)
}

func sampleVec(vals ...float64) *tensor.Tensor {
	t := tensor.New(len(vals))
	copy(t.Data(), vals)
	return t
}

func TestPredictRoutesResponses(t *testing.T) {
	be := &echoBackend{}
	s := New([]Backend{be}, Config{MaxBatch: 4, BatchWindow: time.Millisecond})
	defer s.Close()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := s.Predict(context.Background(), sampleVec(float64(i), 0))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			if p.Probs[0] != float64(i) {
				t.Errorf("request %d got someone else's response: %v", i, p.Probs)
			}
			if p.Class != 0 {
				t.Errorf("request %d: argmax = %d, want 0", i, p.Class)
			}
		}(i)
	}
	wg.Wait()
}

func TestDynamicBatchingCoalesces(t *testing.T) {
	// One slow replica: while the first batch is in flight, the other
	// requests pile up in the queue and must coalesce.
	be := &echoBackend{delay: 5 * time.Millisecond}
	s := New([]Backend{be}, Config{MaxBatch: 8, BatchWindow: time.Millisecond, QueueCap: 32,
		DefaultDeadline: 5 * time.Second})
	defer s.Close()

	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Predict(context.Background(), sampleVec(float64(i))); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	sizes := be.batchSizes()
	total, maxB := 0, 0
	for _, sz := range sizes {
		total += sz
		if sz > maxB {
			maxB = sz
		}
	}
	if total != 24 {
		t.Fatalf("served %d samples across batches %v, want 24", total, sizes)
	}
	if maxB < 2 {
		t.Fatalf("no coalescing happened: batch sizes %v", sizes)
	}
	snap := s.Snapshot()
	if snap.MeanBatch <= 1 {
		t.Fatalf("mean batch %.2f, want > 1", snap.MeanBatch)
	}
}

func TestAdmissionControlSheds(t *testing.T) {
	be := &echoBackend{delay: 20 * time.Millisecond}
	s := New([]Backend{be}, Config{MaxBatch: 1, QueueCap: 2, DefaultDeadline: 5 * time.Second})
	defer s.Close()

	const n = 32
	var wg sync.WaitGroup
	var shed, ok atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Predict(context.Background(), sampleVec(1))
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, ErrOverloaded):
				shed.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if shed.Load() == 0 {
		t.Fatal("expected load shedding with a 2-deep queue and 32 instant clients")
	}
	snap := s.Snapshot()
	if snap.Shed != shed.Load() {
		t.Fatalf("server counted %d shed, clients saw %d", snap.Shed, shed.Load())
	}
	if snap.Completed != ok.Load() {
		t.Fatalf("server counted %d completed, clients saw %d", snap.Completed, ok.Load())
	}
	if snap.MaxQueueDepth == 0 {
		t.Fatal("max queue depth never observed above zero")
	}
}

func TestDeadlineExpiry(t *testing.T) {
	be := &echoBackend{delay: 30 * time.Millisecond}
	s := New([]Backend{be}, Config{MaxBatch: 1, QueueCap: 16})
	defer s.Close()

	// Occupy the only replica, then send a request that expires queued.
	go s.Predict(context.Background(), sampleVec(1))
	time.Sleep(2 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := s.Predict(ctx, sampleVec(2))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if errors.Is(err, ErrOverloaded) {
		t.Fatal("deadline expiry must be distinct from shedding")
	}
}

func TestReplicaFailureRetries(t *testing.T) {
	// Replica 0 always fails; replica 1 echoes. Requests must succeed
	// via retry, and the pool must record the failures.
	bad := &flakyBackend{inner: &echoBackend{}, failWhen: func(int64) bool { return true }}
	good := &echoBackend{}
	s := New([]Backend{bad, good}, Config{MaxBatch: 4, BatchWindow: time.Millisecond,
		DefaultDeadline: 5 * time.Second})
	defer s.Close()

	for i := 0; i < 8; i++ {
		p, err := s.Predict(context.Background(), sampleVec(float64(i)))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if p.Probs[0] != float64(i) {
			t.Fatalf("request %d: wrong response %v", i, p.Probs)
		}
	}
	snap := s.Snapshot()
	if snap.Completed != 8 {
		t.Fatalf("completed %d, want 8", snap.Completed)
	}
	failures := int64(0)
	for _, r := range snap.Replicas {
		failures += r.Failures
	}
	if failures == 0 || snap.Retries == 0 {
		t.Fatalf("expected recorded failures and retries, got failures=%d retries=%d", failures, snap.Retries)
	}
}

// TestAllReplicasFailing: a one-replica server whose replica always fails
// dispatches the batch exactly 1+maxRetries times, then gives up with
// ErrReplicasExhausted.
func TestAllReplicasFailing(t *testing.T) {
	var calls atomic.Int64
	bad := &flakyBackend{inner: &echoBackend{}, failWhen: func(int64) bool { calls.Add(1); return true }}
	s := New([]Backend{bad}, Config{MaxBatch: 1, DefaultDeadline: 5 * time.Second})
	defer s.Close()

	_, err := s.Predict(context.Background(), sampleVec(1))
	if !errors.Is(err, ErrReplicasExhausted) {
		t.Fatalf("got %v, want ErrReplicasExhausted", err)
	}
	if got := calls.Load(); got != 1+maxRetries {
		t.Fatalf("Infer called %d times, want 1+maxRetries = %d", got, 1+maxRetries)
	}
	snap := s.Snapshot()
	if snap.Failed != 1 {
		t.Fatalf("failed count %d, want 1", snap.Failed)
	}
	if snap.Retries != maxRetries {
		t.Fatalf("retries %d, want %d", snap.Retries, maxRetries)
	}
}

func TestMismatchedShapeRejected(t *testing.T) {
	be := &echoBackend{delay: 2 * time.Millisecond}
	s := New([]Backend{be}, Config{MaxBatch: 8, BatchWindow: 20 * time.Millisecond,
		DefaultDeadline: 5 * time.Second})
	defer s.Close()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); _, errs[0] = s.Predict(context.Background(), sampleVec(1, 2)) }()
	go func() { defer wg.Done(); _, errs[1] = s.Predict(context.Background(), sampleVec(1, 2, 3)) }()
	wg.Wait()
	bad := 0
	for _, err := range errs {
		if err != nil && strings.Contains(err.Error(), "does not match batch shape") {
			bad++
		}
	}
	if bad != 1 {
		t.Fatalf("want exactly one shape rejection, got errors %v", errs)
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	be := &echoBackend{delay: time.Millisecond}
	s := New([]Backend{be}, Config{MaxBatch: 4, DefaultDeadline: 5 * time.Second})

	var wg sync.WaitGroup
	var ok atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Predict(context.Background(), sampleVec(1)); err == nil {
				ok.Add(1)
			}
		}()
	}
	wg.Wait()
	s.Close()
	s.Close() // idempotent

	if _, err := s.Predict(context.Background(), sampleVec(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("after Close: got %v, want ErrClosed", err)
	}
	if ok.Load() != 8 {
		t.Fatalf("pre-close requests lost: %d/8 served", ok.Load())
	}
}

func TestModelBackendProbabilities(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := nn.MLP(rng, 4, 8, 3)
	be := NewModelBackend(m, nn.ActSoftmax)
	batch := tensor.Randn(rng, 2, 5, 4)
	out, err := be.Infer(batch)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dim(0) != 5 || out.Dim(1) != 3 {
		t.Fatalf("output shape %v, want (5,3)", out.Shape())
	}
	for i := 0; i < 5; i++ {
		sum := 0.0
		for c := 0; c < 3; c++ {
			sum += out.At(i, c)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d probabilities sum to %f", i, sum)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond) // bucket [64,128)µs
	}
	for i := 0; i < 10; i++ {
		h.Observe(10 * time.Millisecond) // bucket [8192,16384)µs
	}
	if h.Count() != 100 {
		t.Fatalf("count %d", h.Count())
	}
	p50, p99 := h.Quantile(0.50), h.Quantile(0.99)
	if p50 < 64*time.Microsecond || p50 >= 128*time.Microsecond {
		t.Fatalf("p50 %v outside the 64-128µs bucket", p50)
	}
	if p99 < 8*time.Millisecond || p99 >= 17*time.Millisecond {
		t.Fatalf("p99 %v outside the 8-16ms bucket", p99)
	}
	if p99 <= p50 {
		t.Fatalf("quantiles not monotone: p50=%v p99=%v", p50, p99)
	}
	if h.Mean() <= 0 {
		t.Fatal("mean must be positive")
	}
}

func TestSnapshotString(t *testing.T) {
	be := &echoBackend{}
	s := New([]Backend{be}, Config{})
	defer s.Close()
	if _, err := s.Predict(context.Background(), sampleVec(1)); err != nil {
		t.Fatal(err)
	}
	out := s.Snapshot().String()
	for _, want := range []string{"throughput", "p99", "queue", "replica 0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("snapshot report missing %q:\n%s", want, out)
		}
	}
}

func TestDerivePlan(t *testing.T) {
	deep := msa.DEEP()
	w := perfmodel.InferenceWorkload("resnet50-fwd", 3.9e9, 5e7)

	esb := DerivePlan(w, deep.Module(msa.BoosterModule), 8)
	cm := DerivePlan(w, deep.Module(msa.ClusterModule), 8)
	dam := DerivePlan(w, deep.Module(msa.DataAnalytics), 1000) // clamped

	if esb.Replicas != 8 {
		t.Fatalf("ESB: 8 single-GPU nodes should host 8 replicas, got %d", esb.Replicas)
	}
	if cm.Replicas != 8 {
		t.Fatalf("CM: 8 CPU nodes should host 8 replicas, got %d", cm.Replicas)
	}
	if dam.Nodes != deep.Module(msa.DataAnalytics).Nodes() {
		t.Fatalf("DAM plan not clamped to module size: %d", dam.Nodes)
	}
	// §II-A: accelerator inference is much faster per sample than CPU.
	if esb.PerSample >= cm.PerSample {
		t.Fatalf("ESB per-sample %v should beat CM %v", esb.PerSample, cm.PerSample)
	}
	if esb.Overhead <= 0 || esb.PerSample <= 0 {
		t.Fatalf("invalid plan costs: %+v", esb)
	}

	scaled := esb.Scaled(10)
	if scaled.PerSample >= esb.PerSample {
		t.Fatalf("Scaled(10) did not shrink PerSample: %v vs %v", scaled.PerSample, esb.PerSample)
	}
	backends := esb.Backends(func() Backend { return &echoBackend{} })
	if len(backends) != esb.Replicas {
		t.Fatalf("Backends produced %d, want %d", len(backends), esb.Replicas)
	}
	if esb.String() == "" || scaled.String() == "" {
		t.Fatal("empty plan description")
	}
}

func TestRunClosedLoop(t *testing.T) {
	be := &echoBackend{}
	s := New([]Backend{be, &echoBackend{}}, Config{MaxBatch: 4, BatchWindow: 500 * time.Microsecond,
		QueueCap: 64, DefaultDeadline: time.Second})
	defer s.Close()

	rep := RunClosedLoop(s, LoadConfig{Clients: 8, Duration: 20 * time.Millisecond},
		func(c, i int) *tensor.Tensor { return sampleVec(float64(c), float64(i)) })
	if rep.OK == 0 || rep.Throughput <= 0 {
		t.Fatalf("no successful load: %+v", rep)
	}
	snap := s.Snapshot()
	if snap.Completed+snap.Shed+snap.Expired+snap.Failed != snap.Arrivals {
		t.Fatalf("outcomes don't sum: %+v", snap)
	}
	if snap.Completed != rep.OK {
		t.Fatalf("server completed %d, client counted %d OK", snap.Completed, rep.OK)
	}
}
