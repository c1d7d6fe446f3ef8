package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// forwardStashed runs micro-batch forwards with stashing, then backwards
// in micro order, the execution shape of a pipeline stage: all caches of
// micro m are parked in slot m between its forward and its backward.
func forwardStashed(t *testing.T, model *Sequential, loss Loss, xs, ys []*tensor.Tensor) {
	t.Helper()
	model.EnsureStash(len(xs))
	outs := make([]*tensor.Tensor, len(xs))
	for m, x := range xs {
		outs[m] = model.Forward(x, true)
		model.Stash(m)
	}
	for m := range xs {
		model.Stash(m)
		_, grad := loss.Forward(outs[m], ys[m])
		model.Backward(grad)
	}
}

// TestStashMatchesSequentialBackward pins the stash contract: N forwards
// followed by N (stash-restored) backwards accumulates bitwise the same
// gradients as the plain forward/backward/forward/backward interleaving.
func TestStashMatchesSequentialBackward(t *testing.T) {
	build := func(seed int64) *Sequential {
		rng := rand.New(rand.NewSource(seed))
		m := MLP(rng, 12, 16, 10, 6)
		m.Add(&Tanh{})
		m.Add(NewDense(rng, "head", 6, 4))
		m.Add(&Sigmoid{})
		return m
	}
	rng := rand.New(rand.NewSource(7))
	xs := []*tensor.Tensor{
		tensor.Randn(rng, 1, 5, 12),
		tensor.Randn(rng, 1, 5, 12),
		tensor.Randn(rng, 1, 5, 12),
	}
	ys := make([]*tensor.Tensor, len(xs))
	for i := range ys {
		ys[i] = tensor.Randn(rng, 1, 5, 4)
	}
	loss := MSE{}

	ref := build(1)
	for m := range xs {
		out := ref.Forward(xs[m], true)
		_, grad := loss.Forward(out, ys[m])
		ref.Backward(grad)
	}

	got := build(1)
	forwardStashed(t, got, loss, xs, ys)

	compareGrads(t, ref, got)
}

// TestStashConvStack runs the same contract over the convolutional layer
// set (Conv2D, BatchNorm2D, MaxPool, Residual, GlobalAvgPool2D, Flatten)
// via ResNetMini, with a shared workspace held open across the whole
// multi-micro-batch step as pipeline stages do.
func TestStashConvStack(t *testing.T) {
	build := func() *Sequential {
		return ResNetMini(rand.New(rand.NewSource(3)), 2, 5, 4, 2)
	}
	rng := rand.New(rand.NewSource(11))
	xs := []*tensor.Tensor{
		tensor.Randn(rng, 1, 2, 2, 8, 8),
		tensor.Randn(rng, 1, 2, 2, 8, 8),
	}
	ys := make([]*tensor.Tensor, len(xs))
	for i := range ys {
		y := tensor.New(2, 5)
		for r := 0; r < 2; r++ {
			y.Data()[r*5+rng.Intn(5)] = 1
		}
		ys[i] = y
	}
	loss := SoftmaxCrossEntropy{}

	ref := build()
	for m := range xs {
		out := ref.Forward(xs[m], true)
		_, grad := loss.Forward(out, ys[m])
		ref.Backward(grad)
	}

	got := build()
	ws := tensor.NewWorkspace()
	got.SetWorkspace(ws)
	// Two steps: the second runs entirely from recycled pool + stash
	// storage after the step-boundary ReleaseAll.
	for step := 0; step < 2; step++ {
		ws.ReleaseAll()
		got.ZeroGrads()
		forwardStashed(t, got, loss, xs, ys)
	}
	if miss := ws.Allocs(); miss > 0 {
		before := miss
		ws.ReleaseAll()
		got.ZeroGrads()
		forwardStashed(t, got, loss, xs, ys)
		if ws.Allocs() != before {
			t.Errorf("stashed steady-state step still allocating: %d -> %d pool misses", before, ws.Allocs())
		}
	}

	compareGrads(t, ref, got)
}

// TestStashUnsupportedDetectsRecurrent verifies partition-time validation
// flags the recurrent layers and accepts the stashable stacks.
func TestStashUnsupportedDetectsRecurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if bad := StashUnsupported(ResNetMini(rng, 1, 3, 4, 2)); bad != nil {
		t.Fatalf("ResNetMini reported unsupported layer %T", bad)
	}
	mlp := MLP(rng, 4, 4, 2)
	mlp.Add(NewDropout(rng, 0.2))
	if bad := StashUnsupported(mlp); bad != nil {
		t.Fatalf("MLP+Dropout reported unsupported layer %T", bad)
	}
	gru := GRUImputer(rng, 3)
	if bad := StashUnsupported(gru); bad == nil {
		t.Fatal("GRUImputer should contain a stash-unsupported layer")
	}
}

// TestStashDropoutSameDrawOrder checks Dropout under stashing: forwards
// draw from the RNG in the same order as the plain interleaving as long
// as micro-batch forward order matches, so masks — and gradients — agree
// bitwise.
func TestStashDropoutSameDrawOrder(t *testing.T) {
	build := func() *Sequential {
		rng := rand.New(rand.NewSource(5))
		return NewSequential(
			NewDense(rng, "l0", 6, 8),
			&ReLU{},
			NewDropout(rand.New(rand.NewSource(99)), 0.4),
			NewDense(rng, "l1", 8, 3),
		)
	}
	rng := rand.New(rand.NewSource(21))
	xs := []*tensor.Tensor{tensor.Randn(rng, 1, 4, 6), tensor.Randn(rng, 1, 4, 6)}
	ys := []*tensor.Tensor{tensor.Randn(rng, 1, 4, 3), tensor.Randn(rng, 1, 4, 3)}
	loss := MSE{}

	// Reference draws masks f0 then f1 up front too, to match stash order.
	ref := build()
	refOuts := make([]*tensor.Tensor, len(xs))
	refGrads := make([]*tensor.Tensor, len(xs))
	for m := range xs {
		refOuts[m] = ref.Forward(xs[m], true)
		_, refGrads[m] = loss.Forward(refOuts[m], ys[m])
		if m == 0 {
			// Without stashing the second forward would clobber m0's mask:
			// run m0's backward before m1's forward.
			ref.Backward(refGrads[0])
		}
	}
	ref.Backward(refGrads[1])

	got := build()
	forwardStashed(t, got, loss, xs, ys)
	compareGrads(t, ref, got)
}

func compareGrads(t *testing.T, ref, got *Sequential) {
	t.Helper()
	rp, gp := ref.Params(), got.Params()
	if len(rp) != len(gp) {
		t.Fatalf("param count mismatch: %d vs %d", len(rp), len(gp))
	}
	for i := range rp {
		rd, gd := rp[i].Grad.Data(), gp[i].Grad.Data()
		for j := range rd {
			if rd[j] != gd[j] {
				t.Fatalf("param %s grad[%d]: ref %v got %v (not bitwise identical)", rp[i].Name, j, rd[j], gd[j])
			}
		}
	}
}
