package distdl

import (
	"fmt"
	"slices"

	"repro/internal/nn"
)

// Gradient bucketing for overlapped synchronization, after PyTorch DDP's
// reducer: layers are grouped into size-bounded buckets in *reverse-layer*
// order — the order their gradients become final during the backward pass
// — so bucket 0 (the output-side layers) is ready while backward is still
// grinding through the input-side layers, and its allreduce can run
// concurrently with that remaining compute.
//
// A bucket's layers are adjacent, so their gradients form one contiguous
// span of the model's gradient arena (nn.Sequential.BindArena), in forward
// (arena) order; the allreduce runs on that span in place. The layout is a
// pure function of the model structure and BucketBytes, computed once at
// trainer construction. Every rank therefore derives the same layout, each
// bucket's allreduce reduces the same element sets in the same order, and
// the result is independent of overlap timing — the property that keeps
// overlapped and blocking bucketed training bitwise identical.

// DefaultBucketBytes is the bucket size cap used when overlap is requested
// without an explicit BucketBytes (1 MiB of float64 gradient payload).
const DefaultBucketBytes = 1 << 20

// Bucket is one contiguous gradient-exchange unit: the parameters of one
// or more adjacent layers.
type Bucket struct {
	Index  int
	Layers []int // contributing layer indices, descending (backward order)
	Elems  int
	params []*nn.Param // in forward (arena) order
	span   string      // trace span name of its gradient sync, built once
	grads  []float64   // the bucket's span of the gradient arena
}

// Grads returns the bucket's span of the model's gradient arena, its
// parameters' gradients in forward order. It is a view, not a copy: the
// allreduce that reads the span writes the result back where backward
// wrote the gradients.
func (b *Bucket) Grads() []float64 { return b.grads }

// Bucketer owns a model's bucket layout plus the per-step readiness
// countdowns that the backward hook drives.
type Bucketer struct {
	buckets     []*Bucket
	layerBucket map[int]int // layer index -> bucket index (paramless layers absent)
	initial     []int       // per-bucket contributing-layer counts
	remaining   []int       // live countdowns, reset each step
}

// NewBucketer computes the bucket layout for a model: walk layers in
// reverse, appending each parameterized layer to the current bucket, and
// close the bucket when adding the layer would push it past bucketBytes
// (8 bytes per float64 gradient element). Splits happen only at layer
// boundaries — a layer's parameters always share one bucket, so a single
// backward-hook firing decides a whole bucket's readiness — and a layer
// bigger than the cap gets a bucket of its own. The model's parameter
// arena must be bound (nn.Sequential.BindArena): the buckets are its spans.
func NewBucketer(model *nn.Sequential, bucketBytes int) *Bucketer {
	if bucketBytes <= 0 {
		bucketBytes = DefaultBucketBytes
	}
	bb := &Bucketer{layerBucket: make(map[int]int)}
	var cur *Bucket
	for i := len(model.Layers) - 1; i >= 0; i-- {
		ps := model.Layers[i].Params()
		if len(ps) == 0 {
			continue
		}
		elems := nn.NumParams(ps)
		if cur == nil || (cur.Elems+elems)*8 > bucketBytes {
			n := len(bb.buckets)
			cur = &Bucket{Index: n, span: fmt.Sprintf("grad-sync:bucket%d", n)}
			bb.buckets = append(bb.buckets, cur)
		}
		cur.Layers = append(cur.Layers, i)
		cur.params = slices.Concat(ps, cur.params)
		cur.Elems += elems
		bb.layerBucket[i] = cur.Index
	}
	bb.initial = make([]int, len(bb.buckets))
	for _, b := range bb.buckets {
		bb.initial[b.Index] = len(b.Layers)
		_, b.grads = model.Span(b.params)
	}
	bb.remaining = make([]int, len(bb.buckets))
	bb.Reset()
	return bb
}

// NumBuckets returns the number of buckets in the layout.
func (bb *Bucketer) NumBuckets() int { return len(bb.buckets) }

// Buckets returns the layout in launch order (bucket 0 = output-side
// layers, ready first during backward).
func (bb *Bucketer) Buckets() []*Bucket { return bb.buckets }

// LayerBucket returns the bucket index holding layer i's parameters;
// ok is false for paramless layers.
func (bb *Bucketer) LayerBucket(i int) (int, bool) {
	b, ok := bb.layerBucket[i]
	return b, ok
}

// Reset re-arms the per-bucket readiness countdowns for a new backward
// pass.
func (bb *Bucketer) Reset() { copy(bb.remaining, bb.initial) }

// MarkLayerDone records that layer i's Backward has run (its gradients
// are final) and returns the index of the bucket this completes, or -1 if
// no bucket became ready (paramless layer, or the bucket still waits on
// other layers).
func (bb *Bucketer) MarkLayerDone(i int) int {
	bi, ok := bb.layerBucket[i]
	if !ok {
		return -1
	}
	bb.remaining[bi]--
	if bb.remaining[bi] == 0 {
		return bi
	}
	return -1
}
