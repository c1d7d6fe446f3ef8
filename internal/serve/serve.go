// Package serve is the online inference serving subsystem: the deployment
// pattern of §II-A ("compute-intensive training can be performed on the CM
// module while inference and testing ... can be scaled-out on the ESB")
// turned into a running service. Concurrent single-sample requests are
// admitted through a bounded queue, coalesced by a dynamic micro-batcher
// (max batch size + batching window), and dispatched to a pool of model
// replicas sized from the MSA module hosting the tier (placement.go).
//
// The request lifecycle distinguishes four terminal outcomes, each with
// its own error and metric: served (a probability vector), shed at
// admission (ErrOverloaded — the queue bound is the overload valve),
// expired (the per-request deadline passed before dispatch), and failed
// (every dispatch attempt hit a broken replica, ErrReplicasExhausted).
// A lock-cheap metrics layer (metrics.go) tracks latency quantiles,
// throughput, queue depth, and per-replica utilization throughout.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/tensor"
)

// Terminal request outcomes besides success.
var (
	// ErrOverloaded is returned when the admission queue is full and the
	// request is shed immediately (load-shedding, never queued).
	ErrOverloaded = errors.New("serve: admission queue full, request shed")
	// ErrClosed is returned for requests arriving after Close.
	ErrClosed = errors.New("serve: server closed")
	// ErrReplicasExhausted is returned when every dispatch attempt
	// (1 + maxRetries) hit a failing replica.
	ErrReplicasExhausted = errors.New("serve: all inference replicas failed")
)

// Prediction is one served inference result.
type Prediction struct {
	// Probs holds per-class probabilities (or raw scores under
	// ActIdentity backends).
	Probs []float64
	// Class is the argmax of Probs.
	Class int
}

// Config tunes the serving pipeline. Zero values select the defaults
// noted per field.
type Config struct {
	// MaxBatch is the largest coalesced batch (default 8). 1 disables
	// micro-batching (the batch=1 baseline of the placement experiment).
	MaxBatch int
	// BatchWindow bounds how long an incomplete batch waits for more
	// requests after its first one arrives (default 2ms).
	BatchWindow time.Duration
	// QueueCap bounds the admission queue; requests beyond it are shed
	// with ErrOverloaded (default 4×MaxBatch).
	QueueCap int
	// DefaultDeadline is the per-request deadline applied when the
	// caller's context carries none (default 250ms).
	DefaultDeadline time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 4 * c.MaxBatch
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 250 * time.Millisecond
	}
	return c
}

// Replica failure handling: a batch that hits a failing replica is
// re-dispatched up to maxRetries times, sleeping retryBackoff doubled per
// retry, and the failed replica sits out failureCooldown before it rejoins
// the pool.
const (
	maxRetries      = 2
	retryBackoff    = 500 * time.Microsecond
	failureCooldown = 10 * time.Millisecond
)

type response struct {
	pred Prediction
	err  error
}

type request struct {
	x        *tensor.Tensor
	ctx      context.Context
	resp     chan response // buffered 1: respond never blocks, exactly one send
	enqueued time.Time
}

func (r *request) respond(p Prediction, err error) {
	r.resp <- response{pred: p, err: err}
}

type batchJob struct {
	reqs []*request
}

// Server is the online inference server: admission queue → micro-batcher
// → replica pool.
type Server struct {
	cfg     Config
	pool    *pool
	queue   chan *request
	batches chan *batchJob
	metrics *metrics

	mu     sync.RWMutex // guards closed vs. in-flight enqueues
	closed bool
	wg     sync.WaitGroup
}

// New starts a server over the given replica backends (one replica per
// backend; each backend is used by at most one batch at a time). The
// server owns goroutines until Close.
func New(backends []Backend, cfg Config) *Server {
	if len(backends) == 0 {
		panic("serve: need at least one backend")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		pool:    newPool(backends),
		queue:   make(chan *request, cfg.QueueCap),
		batches: make(chan *batchJob, len(backends)),
		metrics: newMetrics(),
	}
	s.wg.Add(1)
	go s.batcher()
	// One worker per replica: dispatch concurrency matches pool size.
	for i := 0; i < len(backends); i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Predict submits one sample (shape = model input without the batch
// dimension) and blocks until it is served, shed, expired, or failed. It
// is safe for any number of concurrent callers.
func (s *Server) Predict(ctx context.Context, x *tensor.Tensor) (Prediction, error) {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.DefaultDeadline)
		defer cancel()
	}
	r := &request{x: x, ctx: ctx, resp: make(chan response, 1), enqueued: time.Now()}

	s.metrics.arrivals.Add(1)
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		s.metrics.rejected.Add(1)
		return Prediction{}, ErrClosed
	}
	select {
	case s.queue <- r:
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		s.metrics.shed.Add(1)
		return Prediction{}, ErrOverloaded
	}
	s.metrics.observeQueueDepth(len(s.queue))

	select {
	case resp := <-r.resp:
		return resp.pred, resp.err
	case <-ctx.Done():
		// The request is still owned by the pipeline; it will be dropped
		// at assembly (and counted expired there) or served into the
		// buffered channel nobody reads. Either way exactly one response
		// is produced server-side.
		return Prediction{}, ctx.Err()
	}
}

// batcher coalesces queued requests into batches: the first request opens
// a batch, which closes when MaxBatch is reached or BatchWindow elapses.
func (s *Server) batcher() {
	defer s.wg.Done()
	for {
		r, ok := <-s.queue
		if !ok {
			close(s.batches)
			return
		}
		batch := []*request{r}
		if s.cfg.MaxBatch > 1 {
			timer := time.NewTimer(s.cfg.BatchWindow)
		collect:
			for len(batch) < s.cfg.MaxBatch {
				select {
				case r2, ok := <-s.queue:
					if !ok {
						break collect
					}
					batch = append(batch, r2)
				case <-timer.C:
					break collect
				}
			}
			timer.Stop()
		}
		s.batches <- &batchJob{reqs: batch}
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	// Each worker owns a workspace for its batch-assembly tensors, recycled
	// per batch — steady-state dispatch allocates only the per-request
	// probability slices that escape to callers.
	ws := tensor.NewWorkspace()
	for job := range s.batches {
		s.runBatch(ws, job)
	}
}

// runBatch assembles, dispatches (with retry across replicas), and
// responds. Every request in the job receives exactly one response on
// exactly one of the paths below.
func (s *Server) runBatch(ws *tensor.Workspace, job *batchJob) {
	ws.ReleaseAll()
	// Drop requests whose deadline already passed while queued.
	live := job.reqs[:0]
	for _, r := range job.reqs {
		select {
		case <-r.ctx.Done():
			s.metrics.expired.Add(1)
			r.respond(Prediction{}, r.ctx.Err())
		default:
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return
	}

	// Assemble the batch tensor; samples must share the first request's
	// shape.
	rowShape := live[0].x.Shape()
	rowLen := live[0].x.Size()
	valid := live[:0]
	for _, r := range live {
		if !sameShape(r.x.Shape(), rowShape) {
			s.metrics.failed.Add(1)
			r.respond(Prediction{}, fmt.Errorf("serve: sample shape %v does not match batch shape %v", r.x.Shape(), rowShape))
			continue
		}
		valid = append(valid, r)
	}
	if len(valid) == 0 {
		return
	}
	bx := ws.Get(append([]int{len(valid)}, rowShape...)...)
	for i, r := range valid {
		copy(bx.Data()[i*rowLen:(i+1)*rowLen], r.x.Data())
	}

	var lastErr error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		if attempt > 0 {
			s.metrics.retries.Add(1)
			time.Sleep(retryBackoff << (attempt - 1))
		}
		rep := s.pool.acquire()
		start := time.Now()
		out, err := rep.backend.Infer(bx)
		rep.busyNs.Add(time.Since(start).Nanoseconds())
		if err != nil {
			lastErr = err
			rep.failures.Add(1)
			s.pool.quarantine(rep)
			continue
		}
		rep.batches.Add(1)
		rep.samples.Add(int64(len(valid)))

		// Copy each request's probabilities out of the backend's output
		// BEFORE releasing the replica: pooled backends recycle the output
		// buffer on their next Infer, which another worker may trigger the
		// moment the replica is back in the pool. The per-request slice
		// must be a fresh allocation — it escapes to the caller.
		classes := out.Dim(1)
		now := time.Now()
		for i, r := range valid {
			probs := make([]float64, classes)
			copy(probs, out.Data()[i*classes:(i+1)*classes])
			s.metrics.completed.Add(1)
			s.metrics.latency.Observe(now.Sub(r.enqueued))
			r.respond(Prediction{Probs: probs, Class: argmax(probs)}, nil)
		}
		s.pool.release(rep)
		s.metrics.batches.Add(1)
		s.metrics.batchSamples.Add(int64(len(valid)))
		return
	}
	for _, r := range valid {
		s.metrics.failed.Add(1)
		r.respond(Prediction{}, fmt.Errorf("%w (last error: %v)", ErrReplicasExhausted, lastErr))
	}
}

// Close stops admission, drains already-queued requests through the
// pipeline, and waits for all workers to finish. Predict calls after
// Close return ErrClosed.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.queue)
	s.wg.Wait()
}

// QueueDepth returns the current admission-queue occupancy.
func (s *Server) QueueDepth() int { return len(s.queue) }

func sameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func argmax(v []float64) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}
