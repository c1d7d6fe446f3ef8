// Package pipeline implements pipeline-parallel training: an
// nn.Sequential is partitioned into contiguous chunks placed on the ranks
// of an mpi (sub-)communicator, and micro-batches stream through the
// resulting pipeline with activations and activation-gradients moving as
// tagged point-to-point messages. Two schedules are provided: GPipe
// (fill-drain — all forwards, then all backwards) and interleaved 1F1B
// (each rank hosts VirtualChunks model chunks and drains backwards with
// priority, the Megatron-style schedule whose bubble shrinks from
// (S−1)/(M+S−1) to roughly (S−1)/(vM+S−1)).
//
// This is the missing half of the repository's parallelism story: every
// prior layer (ring/tree/GCE allreduce, ZeRO-1) scales
// training data-parallel only, replicating the whole model per rank. The
// source paper's MSA setting — models grown to the point where one module
// cannot hold them (§III-A; JUWELS Booster, arXiv:2108.11976) — needs the
// model itself split, with inter-stage communication efficiency deciding
// whether the split pays off (arXiv:1802.02326). Composition with data
// parallelism (pipeline groups × replica groups over Comm.Split) lives in
// distdl.WithPipeline.
//
// Determinism contract, pinned by the package tests: each chunk processes
// its forwards, and separately its backwards, in micro-batch order, so
// every parameter gradient accumulates in exactly the order a single-rank
// micro-batched gradient-accumulation loop produces — bitwise identical
// results under both schedules, on any number of stages.
package pipeline

import (
	"fmt"

	"repro/internal/nn"
)

// Schedule selects the micro-batch execution order.
type Schedule int

const (
	// GPipe is the fill-drain schedule: every rank runs all M forward
	// micro-batches, then all M backwards. Bubble B = (S−1)/(M+S−1).
	GPipe Schedule = iota
	// OneFOneB is the interleaved one-forward-one-backward schedule: each
	// rank hosts VirtualChunks chunks of the model and prefers ready
	// backwards over forwards, bounding in-flight micro-batches per chunk.
	// The finer-grained chunks shorten the fill/drain ramps, giving a
	// strictly lower bubble than GPipe at equal micro-batch count.
	OneFOneB
)

// String returns the schedule's CLI name.
func (s Schedule) String() string {
	switch s {
	case GPipe:
		return "gpipe"
	case OneFOneB:
		return "1f1b"
	default:
		return fmt.Sprintf("schedule(%d)", int(s))
	}
}

// ParseSchedule maps a CLI name to a Schedule.
func ParseSchedule(s string) (Schedule, error) {
	switch s {
	case "gpipe":
		return GPipe, nil
	case "1f1b":
		return OneFOneB, nil
	default:
		return 0, fmt.Errorf("pipeline: unknown schedule %q (want gpipe or 1f1b)", s)
	}
}

// Partition splits model's layers into n contiguous chunks, balancing the
// maximum per-chunk cost where a layer costs 1 plus its parameter count —
// a proxy for both compute and the gradient state a stage carries. The
// returned Sequentials alias the model's layers (no parameters are
// copied), so updating a chunk updates the model. Every layer can stash
// per-micro-batch state (nn.Stasher), so any model with at least n layers
// partitions.
func Partition(model *nn.Sequential, n int) ([]*nn.Sequential, error) {
	layers := model.Layers
	if n < 1 {
		return nil, fmt.Errorf("pipeline: need at least 1 chunk, got %d", n)
	}
	if len(layers) < n {
		return nil, fmt.Errorf("pipeline: cannot split %d layers into %d chunks", len(layers), n)
	}
	L := len(layers)
	cost := make([]float64, L)
	prefix := make([]float64, L+1)
	for i, l := range layers {
		cost[i] = 1 + float64(nn.NumParams(l.Params()))
		prefix[i+1] = prefix[i] + cost[i]
	}
	// DP over contiguous splits minimizing the maximum chunk cost.
	// f[k][i] = best max-cost splitting layers[0:i] into k chunks.
	const inf = 1e308
	f := make([][]float64, n+1)
	cut := make([][]int, n+1)
	for k := range f {
		f[k] = make([]float64, L+1)
		cut[k] = make([]int, L+1)
		for i := range f[k] {
			f[k][i] = inf
		}
	}
	f[0][0] = 0
	for k := 1; k <= n; k++ {
		for i := k; i <= L; i++ {
			// Last chunk is layers[j:i]; it must leave at least k-1 layers
			// before it and be non-empty.
			for j := k - 1; j < i; j++ {
				if f[k-1][j] == inf {
					continue
				}
				m := f[k-1][j]
				if c := prefix[i] - prefix[j]; c > m {
					m = c
				}
				if m < f[k][i] {
					f[k][i] = m
					cut[k][i] = j
				}
			}
		}
	}
	bounds := make([]int, n+1)
	bounds[n] = L
	for k := n; k >= 1; k-- {
		bounds[k-1] = cut[k][bounds[k]]
	}
	out := make([]*nn.Sequential, n)
	for c := 0; c < n; c++ {
		out[c] = nn.NewSequential(layers[bounds[c]:bounds[c+1]]...)
	}
	return out, nil
}
