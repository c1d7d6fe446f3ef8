package main

import (
	"math/rand"
	"runtime"
	"time"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Kernel probes: after a traced run, the tensor kernels are timed alone on
// the shapes the layer wrappers saw most work on, so that a kernel rate can
// be read beside the layer time it explains. Rates are computed from
// operation counts (2 flops per multiply-add) and from the bytes a kernel
// must move; they are CPU numbers, not a roofline share.

// probeResult holds the per-layer tensor metrics of one workload.
type probeResult struct {
	matmulGflops, convTrainGflops, convInferGflops, vecGbps, parEff float64
}

// timeCall returns the mean seconds per call of fn over at least 3 calls
// and 25 ms.
func timeCall(fn func()) float64 {
	fn() // warm caches and lazily grown pools
	n := 0
	start := time.Now()
	for n < 3 || time.Since(start) < 25*time.Millisecond {
		fn()
		n++
	}
	return time.Since(start).Seconds() / float64(n)
}

// heaviest returns the wrapped layer of the given concrete kind that did
// the most forward work.
func heaviest[T nn.Layer](layers []*tracedLayer) (T, *tracedLayer) {
	var best *tracedLayer
	var inner, zero T
	for _, l := range layers {
		if v, ok := l.inner.(T); ok && l.calls > 0 && (best == nil || l.flops > best.flops) {
			best, inner = l, v
		}
	}
	if best == nil {
		return zero, nil
	}
	return inner, best
}

func runProbes(layers []*tracedLayer, vecElems int) probeResult {
	var res probeResult
	rng := rand.New(rand.NewSource(1))
	var parFn func() // the workload's dominant kernel, for par_eff
	var parFlops float64

	// Dense and GRU both reduce to (rows × in) · (in × out) products.
	var m, k, n int
	if d, l := heaviest[*nn.Dense](layers); l != nil {
		k, n = d.W.Value.Dim(0), d.W.Value.Dim(1)
		m = sizeOf(l.shape) / k
	} else if g, l := heaviest[*nn.GRU](layers); l != nil {
		m, k, n = l.shape[0], g.H, g.H
	}
	if m > 0 {
		a, b, out := tensor.Randn(rng, 1, m, k), tensor.Randn(rng, 1, k, n), tensor.New(m, n)
		fn := func() { tensor.MatMulInto(out, a, b) }
		flops := 2 * float64(m) * float64(k) * float64(n)
		res.matmulGflops = flops / timeCall(fn) / 1e9
		parFn, parFlops = fn, flops
	}

	if c, l := heaviest[*nn.Conv2D](layers); l != nil && len(l.shape) == 4 {
		sh := l.shape
		oh := tensor.ConvDims(sh[2], c.KH, c.Stride, c.PadH)
		ow := tensor.ConvDims(sh[3], c.KW, c.Stride, c.PadW)
		img := tensor.Randn(rng, 1, sh...)
		w := c.W.Value
		bias := c.B.Value
		flops := 2 * float64(sh[0]*oh*ow) * float64(c.InC*c.KH*c.KW) * float64(c.OutC)
		cols := tensor.New(sh[0]*oh*ow, c.InC*c.KH*c.KW)
		flat := tensor.New(sh[0]*oh*ow, c.OutC)
		trainFn := func() {
			tensor.Im2ColInto(cols, img, c.KH, c.KW, c.Stride, c.PadH, c.PadW)
			tensor.MatMulInto(flat, cols, w)
		}
		res.convTrainGflops = flops / timeCall(trainFn) / 1e9
		out := tensor.New(sh[0], c.OutC, oh, ow)
		ws := tensor.NewWorkspace()
		inferFn := func() {
			tensor.Conv2DBiasInto(ws, out, img, w, bias, c.KH, c.KW, c.Stride, c.PadH, c.PadW)
			ws.ReleaseAll()
		}
		res.convInferGflops = flops / timeCall(inferFn) / 1e9
		parFn, parFlops = trainFn, flops
	}

	if vecElems > 0 {
		x, dst := make([]float64, vecElems), make([]float64, vecElems)
		for i := range x {
			x[i] = rng.Float64()
		}
		// Axpy reads x and dst and writes dst: 24 bytes per element.
		res.vecGbps = 24 * float64(vecElems) / timeCall(func() { tensor.AxpyInto(dst, 0.5, x) }) / 1e9
	}

	// Parallel efficiency of the dominant kernel: rate with every core
	// against the rate of one worker times the worker count. The global
	// setting is restored afterwards.
	if workers := runtime.GOMAXPROCS(0); parFn != nil && workers > 1 {
		saved := tensor.Workers()
		tensor.Configure(tensor.WithWorkers(1))
		one := parFlops / timeCall(parFn)
		tensor.Configure(tensor.WithWorkers(workers))
		all := parFlops / timeCall(parFn)
		tensor.Configure(tensor.WithWorkers(saved))
		res.parEff = all / (float64(workers) * one)
	}
	return res
}

func sizeOf(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}
