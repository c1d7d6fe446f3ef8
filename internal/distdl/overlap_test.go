package distdl

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/telemetry"
)

// Overlapped bucketed gradient synchronization: layout determinism, hook
// firing, and — the load-bearing property — bitwise parameter identity
// between overlap on and off over the same bucket layout.

func TestBucketerLayout(t *testing.T) {
	model := buildModel(1) // MLP(4,16,2): Dense, ReLU, Dense
	model.BindArena()
	// Tiny cap: every parameterized layer gets its own bucket.
	bb := NewBucketer(model, 1)
	if bb.NumBuckets() != 2 {
		t.Fatalf("NumBuckets = %d, want 2", bb.NumBuckets())
	}
	// Bucket 0 must hold the *output-side* Dense (highest layer index):
	// buckets are laid out in backward order.
	lastDense := len(model.Layers) - 1
	if bi, ok := bb.LayerBucket(lastDense); !ok || bi != 0 {
		t.Fatalf("LayerBucket(%d) = (%d, %v), want (0, true)", lastDense, bi, ok)
	}
	if bi, ok := bb.LayerBucket(0); !ok || bi != 1 {
		t.Fatalf("LayerBucket(0) = (%d, %v), want (1, true)", bi, ok)
	}
	if _, ok := bb.LayerBucket(1); ok {
		t.Fatal("paramless ReLU layer mapped to a bucket")
	}
	total := 0
	for _, b := range bb.Buckets() {
		total += b.Elems
	}
	if want := nn.NumParams(model.Params()); total != want {
		t.Fatalf("bucketed elems = %d, want %d", total, want)
	}

	// Huge cap: one bucket holds everything.
	one := NewBucketer(model, 1<<30)
	if one.NumBuckets() != 1 {
		t.Fatalf("NumBuckets = %d, want 1", one.NumBuckets())
	}

	// Layout is a pure function of (model shape, cap): two replicas agree.
	model2 := buildModel(2)
	model2.BindArena()
	bb2 := NewBucketer(model2, 1)
	if bb2.NumBuckets() != bb.NumBuckets() {
		t.Fatal("layout differs between identically-shaped replicas")
	}
	for i, b := range bb.Buckets() {
		if bb2.Buckets()[i].Elems != b.Elems {
			t.Fatalf("bucket %d: elems %d vs %d", i, b.Elems, bb2.Buckets()[i].Elems)
		}
	}
}

func TestBucketerCountdown(t *testing.T) {
	model := buildModel(1)
	model.BindArena()
	bb := NewBucketer(model, 1<<30) // single bucket, two contributing layers
	if bb.NumBuckets() != 1 {
		t.Fatalf("NumBuckets = %d, want 1", bb.NumBuckets())
	}
	last := len(model.Layers) - 1
	if got := bb.MarkLayerDone(last); got != -1 {
		t.Fatalf("bucket ready after first layer, MarkLayerDone = %d", got)
	}
	if got := bb.MarkLayerDone(1); got != -1 { // ReLU: no params
		t.Fatalf("paramless layer advanced a countdown, MarkLayerDone = %d", got)
	}
	if got := bb.MarkLayerDone(0); got != 0 {
		t.Fatalf("bucket not ready after all layers, MarkLayerDone = %d", got)
	}
	bb.Reset()
	if got := bb.MarkLayerDone(last); got != -1 {
		t.Fatalf("Reset did not re-arm countdown, MarkLayerDone = %d", got)
	}
}

// TestBucketGradsIsGradientSpan: a bucket is a span of the gradient arena
// in forward order — Grads copies nothing, the spans tile the arena in
// reverse, and a write through the span is a write to the gradients.
func TestBucketGradsIsGradientSpan(t *testing.T) {
	model := nn.MLP(rand.New(rand.NewSource(3)), 4, 8, 6, 2)
	x, y, _ := synthClassification(9, 8, 4)
	out := model.Forward(x, true)
	_, grad := (nn.SoftmaxCrossEntropy{}).Forward(out, y)
	model.Backward(grad)
	want := make([][]float64, 0)
	for _, p := range model.Params() {
		want = append(want, append([]float64(nil), p.Grad.Data()...))
	}

	// The two output-side Dense layers share bucket 0, the input one is
	// bucket 1.
	_, grads := model.BindArena()
	bb := NewBucketer(model, 8*(14+54))
	if bb.NumBuckets() != 2 || len(bb.Buckets()[0].Layers) != 2 {
		t.Fatalf("layout: %d buckets, bucket 0 has %d layers", bb.NumBuckets(), len(bb.Buckets()[0].Layers))
	}
	end := len(grads)
	for _, b := range bb.Buckets() {
		span := b.Grads()
		if len(span) != b.Elems || &span[len(span)-1] != &grads[end-1] {
			t.Fatalf("bucket %d: span of %d elems does not end at arena offset %d", b.Index, len(span), end)
		}
		end -= len(span)
		off := 0
		for _, p := range b.params {
			if &p.Grad.Data()[0] != &span[off] {
				t.Fatalf("bucket %d: %s is not at span offset %d", b.Index, p.Name, off)
			}
			off += p.Grad.Size()
		}
	}
	if end != 0 {
		t.Fatalf("buckets leave %d arena elements uncovered", end)
	}
	for i, p := range model.Params() {
		for j, v := range p.Grad.Data() {
			if v != want[i][j] {
				t.Fatalf("%s grad[%d] changed by binding: %v != %v", p.Name, j, v, want[i][j])
			}
		}
	}
	bb.Buckets()[1].Grads()[0] = 42
	if model.Params()[0].Grad.Data()[0] != 42 {
		t.Fatal("write through the bucket span did not reach the gradient")
	}
}

// runSteps trains for a few steps with the given options and returns the
// final flat parameters of rank 0, the last mean loss, and the float64
// elements each rank sent during the steps (its RankStats ElemsSent delta).
func runSteps(t *testing.T, p, steps int, opts ...Option) ([]float64, float64, []int64) {
	t.Helper()
	x, y, _ := synthClassification(11, 8*p, 4)
	var params []float64
	var lastLoss float64
	sent := make([]int64, p)
	w := mpi.NewWorld(p)
	err := w.Run(func(c *mpi.Comm) error {
		tr := New(c, buildModel(int64(40+c.Rank())), nn.SoftmaxCrossEntropy{}, nn.NewSGD(0.9, 0),
			append([]Option{WithSchedule(nn.ConstLR(0.05))}, opts...)...)
		before := w.RankStats(c.Rank()).ElemsSent
		for s := 0; s < steps; s++ {
			idx := Shard(8*p, int64(s), c.Rank(), p)
			bx, by := GatherBatch(x, y, idx)
			loss := tr.Step(bx, by)
			if c.Rank() == 0 {
				lastLoss = loss
			}
		}
		sent[c.Rank()] = w.RankStats(c.Rank()).ElemsSent - before
		pt := tr.(*Trainer)
		if !pt.ParamsInSync() {
			return fmt.Errorf("rank %d: replicas diverged", c.Rank())
		}
		if c.Rank() == 0 {
			params = nn.FlattenValues(pt.Model.Params())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return params, lastLoss, sent
}

// TestOverlapBitwiseIdenticalToBlocking is the acceptance-criteria check:
// with a fixed bucket layout and the (default) ring algorithm, overlapped
// and blocking bucketed sync produce bitwise-identical parameters and
// identical losses, and every rank sends the same number of elements.
func TestOverlapBitwiseIdenticalToBlocking(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		for _, bucketBytes := range []int{1, 512, 1 << 20} {
			t.Run(fmt.Sprintf("p%d/bb%d", p, bucketBytes), func(t *testing.T) {
				blocking, lossB, sentB := runSteps(t, p, 4, WithBucketBytes(bucketBytes))
				overlapped, lossO, sentO := runSteps(t, p, 4, WithBucketBytes(bucketBytes), WithOverlap(true))
				if lossB != lossO {
					t.Fatalf("loss diverged: blocking %v, overlapped %v", lossB, lossO)
				}
				if len(blocking) != len(overlapped) {
					t.Fatalf("param count %d vs %d", len(blocking), len(overlapped))
				}
				for i := range blocking {
					if blocking[i] != overlapped[i] {
						t.Fatalf("param %d: blocking %v != overlapped %v (bitwise)", i, blocking[i], overlapped[i])
					}
				}
				for r := range sentB {
					if sentB[r] != sentO[r] {
						t.Fatalf("rank %d ElemsSent: blocking %d, overlapped %d", r, sentB[r], sentO[r])
					}
					if p > 1 && sentO[r] == 0 {
						t.Fatalf("rank %d sent nothing in the overlapped run", r)
					}
				}
			})
		}
	}
}

// TestOverlapMatchesMonolithicLoss: bucketing changes the reduction
// association, so parameters need not be bitwise equal to the monolithic
// path — but training must still converge equivalently. Loose check: same
// loss to float32-ish tolerance after a few steps.
func TestOverlapConvergesLikeMonolithic(t *testing.T) {
	mono, lossM, _ := runSteps(t, 2, 4)
	over, lossO, _ := runSteps(t, 2, 4, WithOverlap(true), WithBucketBytes(256))
	if d := lossM - lossO; d > 1e-9 || d < -1e-9 {
		t.Fatalf("losses diverged beyond tolerance: monolithic %v, overlapped %v", lossM, lossO)
	}
	for i := range mono {
		if d := mono[i] - over[i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("param %d drifted: %v vs %v", i, mono[i], over[i])
		}
	}
}

func TestOverlapRatioAndSpans(t *testing.T) {
	tracer := telemetry.NewTracer(0)
	reg := telemetry.NewRegistry()
	x, y, _ := synthClassification(13, 16, 4)
	w := mpi.NewWorld(2)
	err := w.Run(func(c *mpi.Comm) error {
		opts := []Option{WithBucketBytes(64), WithOverlap(true), WithSchedule(nn.ConstLR(0.05))}
		if c.Rank() == 0 {
			opts = append(opts, WithTracer(tracer), WithMetrics(reg))
		}
		tr := New(c, buildModel(7), nn.SoftmaxCrossEntropy{}, nn.NewSGD(0.9, 0), opts...)
		pt := tr.(*Trainer)
		if pt.NumBuckets() < 2 {
			return fmt.Errorf("rank %d: expected multiple buckets, got %d", c.Rank(), pt.NumBuckets())
		}
		for s := 0; s < 3; s++ {
			idx := Shard(16, int64(s), c.Rank(), 2)
			bx, by := GatherBatch(x, y, idx)
			tr.Step(bx, by)
		}
		ratio := pt.OverlapRatio()
		if ratio < 0 || ratio > 1 {
			return fmt.Errorf("rank %d: OverlapRatio = %v outside [0,1]", c.Rank(), ratio)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Per-bucket spans must appear on the trace.
	found := map[string]bool{}
	for _, sp := range tracer.Spans() {
		found[sp.Name] = true
	}
	for _, want := range []string{"grad-sync:bucket0", "grad-sync:bucket1"} {
		if !found[want] {
			t.Fatalf("span %q missing from trace (have %v)", want, found)
		}
	}
	// The overlap-ratio gauge must be registered and scrapeable.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "msa_distdl_overlap_ratio") {
		t.Fatalf("msa_distdl_overlap_ratio missing from registry output:\n%s", sb.String())
	}
}

// TestBackwardHookOrder pins the hook contract overlap depends on: fired
// once per layer, in reverse layer order, after that layer's gradients
// are final.
func TestBackwardHookOrder(t *testing.T) {
	model := buildModel(66)
	x, y, _ := synthClassification(17, 8, 4)
	out := model.Forward(x, true)
	_, grad := (nn.SoftmaxCrossEntropy{}).Forward(out, y)
	var order []int
	model.SetBackwardHook(func(i int, l nn.Layer) {
		if l != model.Layers[i] {
			t.Fatalf("hook layer mismatch at index %d", i)
		}
		order = append(order, i)
	})
	model.Backward(grad)
	model.SetBackwardHook(nil)
	if len(order) != len(model.Layers) {
		t.Fatalf("hook fired %d times, want %d", len(order), len(model.Layers))
	}
	for k, i := range order {
		if want := len(model.Layers) - 1 - k; i != want {
			t.Fatalf("firing %d: layer %d, want %d", k, i, want)
		}
	}
	// Removed hook must not fire.
	model.Forward(x, true)
	before := len(order)
	model.Backward(grad)
	if len(order) != before {
		t.Fatal("hook fired after SetBackwardHook(nil)")
	}
}
