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
		m.Add(&sigmoidLayer{})
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

// TestStashRecurrentModels runs the stash contract over the recurrent
// layer set — GRU, Dropout, TimeDistributed, InputDecay, Conv1D,
// LastTimestep — on uneven micro-batches through one shared workspace:
// gradients equal the plain interleaving bit for bit on every step (the
// dropout masks are drawn in the same forward order), and once warm a
// step misses the pool no more, though each GRU puts its buffers back
// while later micro-batches are still stashed.
func TestStashRecurrentModels(t *testing.T) {
	const T, D = 6, 4
	cases := []struct {
		name  string
		build func(rng *rand.Rand) *Sequential
		x     func(rng *rand.Rand, n int) *tensor.Tensor
		yCols []int // target shape after the batch axis
	}{
		{"GRUImputer", func(rng *rand.Rand) *Sequential { return GRUImputer(rng, D) },
			func(rng *rand.Rand, n int) *tensor.Tensor { return tensor.Randn(rng, 1, n, T, D) }, []int{T, 1}},
		{"GRUDImputer", func(rng *rand.Rand) *Sequential { return GRUDImputer(rng, D) },
			func(rng *rand.Rand, n int) *tensor.Tensor { return decayTestInput(rng, n, T, D/2) }, []int{T, 1}},
		{"Conv1DImputer", func(rng *rand.Rand) *Sequential { return Conv1DImputer(rng, D) },
			func(rng *rand.Rand, n int) *tensor.Tensor { return tensor.Randn(rng, 1, n, T, D) }, []int{T, 1}},
		{"GRU-LastTimestep-Dense", func(rng *rand.Rand) *Sequential {
			return NewSequential(NewGRU(rng, "gru", D, 8), &LastTimestep{}, NewDense(rng, "head", 8, 3))
		}, func(rng *rand.Rand, n int) *tensor.Tensor { return tensor.Randn(rng, 1, n, T, D) }, []int{3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			var xs, ys []*tensor.Tensor
			for _, n := range []int{3, 2, 3} {
				xs = append(xs, tc.x(rng, n))
				ys = append(ys, tensor.Randn(rng, 1, append([]int{n}, tc.yCols...)...))
			}
			loss := MSE{}
			ref := tc.build(rand.New(rand.NewSource(5)))
			got := tc.build(rand.New(rand.NewSource(5)))
			ws := tensor.NewWorkspace()
			got.SetWorkspace(ws)
			warm := 0
			for step := 0; step < 3; step++ {
				ref.ZeroGrads()
				for m := range xs {
					_, grad := loss.Forward(ref.Forward(xs[m], true), ys[m])
					ref.Backward(grad)
				}
				ws.ReleaseAll()
				got.ZeroGrads()
				forwardStashed(t, got, loss, xs, ys)
				compareGrads(t, ref, got)
				if step == 1 {
					warm = ws.Allocs()
				}
			}
			if ws.Allocs() != warm {
				t.Errorf("stashed steady-state step still misses the pool: %d -> %d", warm, ws.Allocs())
			}
		})
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
