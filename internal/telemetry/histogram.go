package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// NumHistogramBuckets is the fixed bucket count of Histogram: bucket i
// covers durations with microseconds in [2^(i-1), 2^i) — spanning
// sub-microsecond to years in 48 octaves.
const NumHistogramBuckets = 48

// Histogram is a lock-cheap latency histogram: power-of-two microsecond
// buckets updated with a single atomic add per observation. Quantiles are
// reconstructed from the bucket counts (resolution is one octave — ample
// for p50/p95/p99 reporting and regression tracking). The zero value is
// ready to use.
type Histogram struct {
	buckets [NumHistogramBuckets]atomic.Int64
	count   atomic.Int64
	sumNs   atomic.Int64
}

// Observe records one latency.
func (h *Histogram) Observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	idx := bits.Len64(uint64(us))
	if idx >= NumHistogramBuckets {
		idx = NumHistogramBuckets - 1
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sumNs.Add(d.Nanoseconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observed latencies.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNs.Load()) }

// Mean returns the average observed latency.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sumNs.Load() / n)
}

// Quantile returns the latency at quantile q in [0,1], estimated as the
// geometric midpoint of the containing bucket (0 when nothing was
// observed).
func (h *Histogram) Quantile(q float64) time.Duration {
	buckets := h.BucketCounts()
	var n int64
	for _, c := range buckets {
		n += c
	}
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(n-1)) + 1
	var cum int64
	for i, c := range buckets {
		cum += c
		if cum >= rank {
			if i == 0 {
				return 0
			}
			// Bucket i covers [2^(i-1), 2^i) µs; midpoint ≈ 1.5·2^(i-1).
			mid := 3 * (int64(1) << uint(i-1)) / 2
			return time.Duration(mid) * time.Microsecond
		}
	}
	return time.Duration(3*(int64(1)<<uint(NumHistogramBuckets-2))/2) * time.Microsecond
}

// BucketUpperBound returns the exclusive upper edge of bucket i.
func BucketUpperBound(i int) time.Duration {
	return time.Duration(int64(1)<<uint(i)) * time.Microsecond
}

// BucketCounts returns a snapshot of the per-bucket observation counts
// (not cumulative). Counters are loaded individually, so the snapshot can
// be off by in-flight observations — fine for export and reporting.
func (h *Histogram) BucketCounts() [NumHistogramBuckets]int64 {
	var out [NumHistogramBuckets]int64
	for i := range out {
		out[i] = h.buckets[i].Load()
	}
	return out
}
