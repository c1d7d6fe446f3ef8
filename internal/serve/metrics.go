package serve

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Histogram is the shared power-of-two latency histogram from the
// telemetry package (it originated here and was generalized); the alias
// keeps the serve API unchanged.
type Histogram = telemetry.Histogram

// metrics is the server's internal counter set. All fields are atomics;
// the hot path never takes a lock.
type metrics struct {
	start time.Time

	arrivals  atomic.Int64
	shed      atomic.Int64
	rejected  atomic.Int64 // arrivals after Close
	expired   atomic.Int64 // dropped at assembly, deadline passed
	completed atomic.Int64
	failed    atomic.Int64
	retries   atomic.Int64

	batches      atomic.Int64
	batchSamples atomic.Int64

	maxQueueDepth atomic.Int64

	latency Histogram
}

func newMetrics() *metrics { return &metrics{start: time.Now()} }

func (m *metrics) observeQueueDepth(depth int) {
	d := int64(depth)
	for {
		cur := m.maxQueueDepth.Load()
		if d <= cur || m.maxQueueDepth.CompareAndSwap(cur, d) {
			return
		}
	}
}

// ReplicaStats is one replica's snapshot row.
type ReplicaStats struct {
	ID       int
	Batches  int64
	Samples  int64
	Failures int64
	// Utilization is the fraction of wall time the replica spent
	// inferring (including modeled service time).
	Utilization float64
}

// Snapshot is a consistent-enough point-in-time view of the server's
// metrics (counters are read individually; cross-counter sums can be off
// by in-flight requests while the server is running, and are exact after
// Close).
type Snapshot struct {
	Elapsed time.Duration

	Arrivals  int64
	Completed int64
	Shed      int64
	Expired   int64
	Failed    int64
	Retries   int64

	// Throughput is completed requests per second of elapsed wall time.
	Throughput float64
	// MeanBatch is the average dispatched batch size — the dynamic
	// batcher's coalescing factor.
	MeanBatch float64
	Batches   int64

	MeanLatency   time.Duration
	P50, P95, P99 time.Duration

	QueueDepth    int
	MaxQueueDepth int

	Replicas []ReplicaStats
}

// Snapshot captures the server's metrics.
func (s *Server) Snapshot() Snapshot {
	m := s.metrics
	elapsed := time.Since(m.start)
	snap := Snapshot{
		Elapsed:       elapsed,
		Arrivals:      m.arrivals.Load(),
		Completed:     m.completed.Load(),
		Shed:          m.shed.Load(),
		Expired:       m.expired.Load(),
		Failed:        m.failed.Load(),
		Retries:       m.retries.Load(),
		Batches:       m.batches.Load(),
		MeanLatency:   m.latency.Mean(),
		P50:           m.latency.Quantile(0.50),
		P95:           m.latency.Quantile(0.95),
		P99:           m.latency.Quantile(0.99),
		QueueDepth:    len(s.queue),
		MaxQueueDepth: int(m.maxQueueDepth.Load()),
	}
	if elapsed > 0 {
		snap.Throughput = float64(snap.Completed) / elapsed.Seconds()
	}
	if snap.Batches > 0 {
		snap.MeanBatch = float64(m.batchSamples.Load()) / float64(snap.Batches)
	}
	for _, r := range s.pool.all {
		util := 0.0
		if elapsed > 0 {
			util = float64(r.busyNs.Load()) / float64(elapsed.Nanoseconds())
			if util > 1 {
				util = 1
			}
		}
		snap.Replicas = append(snap.Replicas, ReplicaStats{
			ID: r.id, Batches: r.batches.Load(), Samples: r.samples.Load(),
			Failures: r.failures.Load(), Utilization: util,
		})
	}
	return snap
}

// RegisterMetrics re-exports the server's live counters, queue gauges,
// per-replica stats, and the latency histogram through a telemetry
// registry, so a serving tier scrapes as a normal Prometheus target
// (reg.Handler() serves the text endpoint). Counters are read at export
// time — no double bookkeeping on the hot path.
func (s *Server) RegisterMetrics(reg *telemetry.Registry) {
	m := s.metrics
	counter := func(name string, v *atomic.Int64, labels ...telemetry.Label) {
		reg.CounterFunc(name, func() float64 { return float64(v.Load()) }, labels...)
	}
	reg.SetHelp("msa_serve_requests_total", "requests by terminal outcome")
	counter("msa_serve_requests_total", &m.arrivals, telemetry.Label{Key: "outcome", Value: "arrived"})
	counter("msa_serve_requests_total", &m.completed, telemetry.Label{Key: "outcome", Value: "completed"})
	counter("msa_serve_requests_total", &m.shed, telemetry.Label{Key: "outcome", Value: "shed"})
	counter("msa_serve_requests_total", &m.rejected, telemetry.Label{Key: "outcome", Value: "rejected"})
	counter("msa_serve_requests_total", &m.expired, telemetry.Label{Key: "outcome", Value: "expired"})
	counter("msa_serve_requests_total", &m.failed, telemetry.Label{Key: "outcome", Value: "failed"})
	counter("msa_serve_retries_total", &m.retries)
	counter("msa_serve_batches_total", &m.batches)
	counter("msa_serve_batch_samples_total", &m.batchSamples)
	reg.GaugeFunc("msa_serve_queue_depth", func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("msa_serve_queue_depth_max", func() float64 { return float64(m.maxQueueDepth.Load()) })
	reg.AttachHistogram("msa_serve_latency_seconds", &m.latency)
	for _, r := range s.pool.all {
		id := telemetry.Label{Key: "replica", Value: strconv.Itoa(r.id)}
		counter("msa_serve_replica_batches_total", &r.batches, id)
		counter("msa_serve_replica_samples_total", &r.samples, id)
		counter("msa_serve_replica_failures_total", &r.failures, id)
	}
}

// String renders the snapshot as a small report.
func (sn Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "elapsed %.2fs  throughput %.1f req/s  mean batch %.2f\n",
		sn.Elapsed.Seconds(), sn.Throughput, sn.MeanBatch)
	fmt.Fprintf(&b, "requests: %d arrived, %d completed, %d shed, %d expired, %d failed (%d retries)\n",
		sn.Arrivals, sn.Completed, sn.Shed, sn.Expired, sn.Failed, sn.Retries)
	fmt.Fprintf(&b, "latency: mean %s  p50 %s  p95 %s  p99 %s\n",
		sn.MeanLatency.Round(time.Microsecond), sn.P50, sn.P95, sn.P99)
	fmt.Fprintf(&b, "queue: depth %d (max %d)\n", sn.QueueDepth, sn.MaxQueueDepth)
	for _, r := range sn.Replicas {
		fmt.Fprintf(&b, "  replica %d: %d batches / %d samples, %d failures, %.0f%% busy\n",
			r.ID, r.Batches, r.Samples, r.Failures, 100*r.Utilization)
	}
	return b.String()
}
