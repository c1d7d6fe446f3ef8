package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// refGRU is the per-gate, per-timestep recurrence nn.GRU ran before its
// time loop was rebuilt around batched GEMMs: six matmuls per forward
// step, BPTT with separate temporaries, plain allocation. It defines what
// the layer must still compute bit for bit — the forward output, dx and
// the dh chain. The nine parameter gradients are spelled out literally
// instead (refParamGrads): one chain per element over (t, n) ascending.
type refGRU struct {
	g *GRU // parameters only

	xs, hs, zs, rs, hhs []*tensor.Tensor
	// Per-step pre-activation gradients and r⊙h_{t-1}, kept for
	// refParamGrads.
	dahs, dazs, dars, rhs []*tensor.Tensor
}

func (r *refGRU) forward(x *tensor.Tensor) *tensor.Tensor {
	g := r.g
	n, t := x.Dim(0), x.Dim(1)
	r.xs, r.hs, r.zs, r.rs, r.hhs = nil, nil, nil, nil, nil
	h := tensor.New(n, g.H)
	r.hs = append(r.hs, h)
	out := tensor.New(n, t, g.H)
	for step := 0; step < t; step++ {
		xt := sliceTimeInto(tensor.New(n, g.D), x, step)
		hPrev := r.hs[len(r.hs)-1]

		z := tensor.New(n, g.H)
		tensor.MatMulInto(z, xt, g.Wxz.Value)
		tensor.MatMulAccBiasActInto(z, hPrev, g.Whz.Value, g.Bz.Value, tensor.EpSigmoid)

		rr := tensor.New(n, g.H)
		tensor.MatMulInto(rr, xt, g.Wxr.Value)
		tensor.MatMulAccBiasActInto(rr, hPrev, g.Whr.Value, g.Br.Value, tensor.EpSigmoid)

		rh := tensor.New(n, g.H)
		tensor.VecMulInto(rh.Data(), rr.Data(), hPrev.Data())
		hh := tensor.New(n, g.H)
		tensor.MatMulInto(hh, xt, g.Wxh.Value)
		tensor.MatMulAccBiasActInto(hh, rh, g.Whh.Value, g.Bh.Value, tensor.EpTanh)

		hNew := tensor.New(n, g.H)
		hd, zd, hhd, hpd := hNew.Data(), z.Data(), hh.Data(), hPrev.Data()
		for i := range hd {
			hd[i] = float64((1-zd[i])*hhd[i]) + float64(zd[i]*hpd[i])
		}

		r.xs = append(r.xs, xt)
		r.zs = append(r.zs, z)
		r.rs = append(r.rs, rr)
		r.hhs = append(r.hhs, hh)
		r.hs = append(r.hs, hNew)
		copyIntoTime(out, step, hNew)
	}
	return out
}

func (r *refGRU) backward(dout *tensor.Tensor) *tensor.Tensor {
	g := r.g
	n, t := dout.Dim(0), dout.Dim(1)
	dx := tensor.New(n, t, g.D)
	dhNext := tensor.New(n, g.H)
	r.dahs = make([]*tensor.Tensor, t)
	r.dazs = make([]*tensor.Tensor, t)
	r.dars = make([]*tensor.Tensor, t)
	r.rhs = make([]*tensor.Tensor, t)

	for step := t - 1; step >= 0; step-- {
		dh := sliceTimeInto(tensor.New(n, g.H), dout, step)
		dh.AddInPlace(dhNext)
		z, rr, hh := r.zs[step], r.rs[step], r.hhs[step]
		hPrev := r.hs[step]

		// h = (1-z)·h̃ + z·hPrev
		dz := tensor.New(n, g.H)
		dhh := tensor.New(n, g.H)
		dhPrev := tensor.New(n, g.H)
		dhd, zd, hhd, hpd := dh.Data(), z.Data(), hh.Data(), hPrev.Data()
		dzd, dhhd, dhpd := dz.Data(), dhh.Data(), dhPrev.Data()
		for i := range dhd {
			dzd[i] = dhd[i] * (hpd[i] - hhd[i])
			dhhd[i] = dhd[i] * (1 - zd[i])
			dhpd[i] = dhd[i] * zd[i]
		}

		// Candidate pre-activation: a_h = x·Wxh + (r⊙hPrev)·Whh + bh.
		dah := tensor.New(n, g.H)
		dahd := dah.Data()
		for i := range dahd {
			dahd[i] = dhhd[i] * (1 - float64(hhd[i]*hhd[i]))
		}
		rh := tensor.New(n, g.H)
		tensor.VecMulInto(rh.Data(), rr.Data(), hPrev.Data())
		dxt := tensor.New(n, g.D)
		tensor.MatMulTInto(dxt, dah, g.Wxh.Value)
		drh := tensor.New(n, g.H)
		tensor.MatMulTInto(drh, dah, g.Whh.Value)
		// r⊙hPrev splits.
		dr := tensor.New(n, g.H)
		tensor.VecMulInto(dr.Data(), drh.Data(), hPrev.Data())
		for i, v := range drh.Data() {
			dhpd[i] += float64(v * rr.Data()[i])
		}

		// Update gate pre-activation.
		daz := tensor.New(n, g.H)
		dazd := daz.Data()
		for i := range dazd {
			dazd[i] = dzd[i] * zd[i] * (1 - zd[i])
		}
		tensor.MatMulTAccInto(dxt, daz, g.Wxz.Value)
		tensor.MatMulTAccInto(dhPrev, daz, g.Whz.Value)

		// Reset gate pre-activation.
		dar := tensor.New(n, g.H)
		dard := dar.Data()
		rd := rr.Data()
		for i := range dard {
			dard[i] = dr.Data()[i] * rd[i] * (1 - rd[i])
		}
		tensor.MatMulTAccInto(dxt, dar, g.Wxr.Value)
		tensor.MatMulTAccInto(dhPrev, dar, g.Whr.Value)

		copyIntoTime(dx, step, dxt)
		dhNext = dhPrev
		r.dahs[step], r.dazs[step], r.dars[step], r.rhs[step] = dah, daz, dar, rh
	}
	return dx
}

// refParamGrads accumulates the nine parameter gradients onto grads (in
// GRU.Params order) exactly as the layer's contract states them: every
// weight-gradient element is one FMA chain over t ascending, then n
// ascending, seeded from the gradient's prior value; every bias-gradient
// element is the plain sum in the same order, started from zero and then
// added to the prior value.
func (r *refGRU) refParamGrads(grads []*tensor.Tensor) {
	weight := func(grad *tensor.Tensor, a, b []*tensor.Tensor) {
		rows, cols := grad.Dim(0), grad.Dim(1)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				acc := grad.Data()[i*cols+j]
				for step := range a {
					ad, bd := a[step].Data(), b[step].Data()
					for s := 0; s < a[step].Dim(0); s++ {
						acc = math.FMA(ad[s*rows+i], bd[s*cols+j], acc)
					}
				}
				grad.Data()[i*cols+j] = acc
			}
		}
	}
	bias := func(grad *tensor.Tensor, b []*tensor.Tensor) {
		cols := grad.Size()
		for j := 0; j < cols; j++ {
			sum := 0.0
			for step := range b {
				bd := b[step].Data()
				for s := 0; s < b[step].Dim(0); s++ {
					sum += bd[s*cols+j]
				}
			}
			grad.Data()[j] += sum
		}
	}
	hPrevs := r.hs[:len(r.hs)-1]
	weight(grads[0], r.xs, r.dazs)   // Wxz
	weight(grads[1], hPrevs, r.dazs) // Whz
	bias(grads[2], r.dazs)           // bz
	weight(grads[3], r.xs, r.dars)   // Wxr
	weight(grads[4], hPrevs, r.dars) // Whr
	bias(grads[5], r.dars)           // br
	weight(grads[6], r.xs, r.dahs)   // Wxh
	weight(grads[7], r.rhs, r.dahs)  // Whh
	bias(grads[8], r.dahs)           // bh
}

// gruCase draws a layer whose gradients already hold nonzero values (so
// the "seeded from the prior gradient" half of the contract is exercised),
// an input and an upstream gradient.
func gruCase(seed int64, n, t, d, h int) (*GRU, *tensor.Tensor, *tensor.Tensor) {
	rng := rand.New(rand.NewSource(seed))
	g := NewGRU(rng, "gru", d, h)
	for _, p := range g.Params() {
		if p.Value.NDim() == 1 { // biases start at zero; make them count
			p.Value.CopyFrom(tensor.RandUniform(rng, -0.5, 0.5, h))
		}
		p.Grad.CopyFrom(tensor.RandUniform(rng, -1, 1, p.Grad.Shape()...))
	}
	x := tensor.RandUniform(rng, -1, 1, n, t, d)
	dout := tensor.RandUniform(rng, -1, 1, n, t, h)
	return g, x, dout
}

func cloneGrads(g *GRU) []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, p := range g.Params() {
		out = append(out, p.Grad.Clone())
	}
	return out
}

func requireSameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !tensor.SameShape(got, want) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape(), want.Shape())
	}
	for i, v := range got.Data() {
		if math.Float64bits(v) != math.Float64bits(want.Data()[i]) {
			t.Fatalf("%s: element %d is %v, want %v", what, i, v, want.Data()[i])
		}
	}
}

// TestGRUMatchesReferenceBitwise is the layer's floating-point contract:
// over odd, tile-remainder and benchmark-sized shapes, with and without a
// workspace, the forward output and dx equal the per-gate recurrence bit
// for bit, and all nine gradients equal the spelled-out (t, n) chains.
func TestGRUMatchesReferenceBitwise(t *testing.T) {
	dims := []int{1, 12, 32}
	seed := int64(0)
	for _, n := range []int{1, 3, 5, 33, 256} {
		for _, steps := range []int{1, 2, 7, 32} {
			for _, d := range dims {
				for _, h := range dims {
					seed++
					g, x, dout := gruCase(seed, n, steps, d, h)
					prior, want := cloneGrads(g), cloneGrads(g)
					ref := &refGRU{g: g}
					wantOut := ref.forward(x)
					wantDX := ref.backward(dout)
					ref.refParamGrads(want)

					if seed%2 == 0 {
						// A pass over other data first, so the pool hands
						// back dirty storage and any element the layer
						// fails to overwrite shows up as a mismatch.
						ws := tensor.NewWorkspace()
						g.SetWorkspace(ws)
						_, x2, dout2 := gruCase(-seed, n, steps, d, h)
						g.Forward(x2, true)
						g.Backward(dout2)
						ws.ReleaseAll()
						for i, p := range g.Params() {
							p.Grad.CopyFrom(prior[i])
						}
					}
					name := fmt.Sprintf("N=%d T=%d D=%d H=%d", n, steps, d, h)
					requireSameBits(t, name+" output", g.Forward(x, true), wantOut)
					requireSameBits(t, name+" dx", g.Backward(dout), wantDX)
					for i, p := range g.Params() {
						requireSameBits(t, name+" grad "+p.Name, p.Grad, want[i])
					}
				}
			}
		}
	}
}

// gruDigest runs a fixed forward+backward at a batch large
// enough to split into row blocks and hashes every result bit.
func gruDigest() string {
	g, x, dout := gruCase(77, 256, 9, 12, 32)
	g.SetWorkspace(tensor.NewWorkspace())
	sum := sha256.New()
	add := func(ts ...*tensor.Tensor) {
		for _, x := range ts {
			binary.Write(sum, binary.LittleEndian, x.Data())
		}
	}
	add(g.Forward(x, true), g.Backward(dout))
	for _, p := range g.Params() {
		add(p.Grad)
	}
	return fmt.Sprintf("%x", sum.Sum(nil))
}

// TestGRUWorkerCountInvariance: the row-block split follows the worker
// count, the results must not.
func TestGRUWorkerCountInvariance(t *testing.T) {
	prev := tensor.Workers()
	t.Cleanup(func() { tensor.Configure(tensor.WithWorkers(prev)) })
	tensor.Configure(tensor.WithWorkers(1))
	want := gruDigest()
	for _, w := range []int{2, 3, 8} {
		tensor.Configure(tensor.WithWorkers(w))
		if got := gruDigest(); got != want {
			t.Fatalf("results at %d workers differ from 1 worker", w)
		}
	}
}

// TestGRUNoAVXEquality re-runs the digest in a child process started with
// MSA_NO_AVX=1 (the switch is read once at process start), so the AVX2
// kernels and their pure-Go mirrors are compared through the whole layer.
func TestGRUNoAVXEquality(t *testing.T) {
	const childEnv = "NN_GRU_DIGEST_CHILD"
	if os.Getenv(childEnv) != "" {
		fmt.Println("digest:" + gruDigest())
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestGRUNoAVXEquality$", "-test.v")
	cmd.Env = append(os.Environ(), "MSA_NO_AVX=1", childEnv+"=1")
	outBytes, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child run: %v\n%s", err, outBytes)
	}
	_, rest, ok := strings.Cut(string(outBytes), "digest:")
	if !ok {
		t.Fatalf("child printed no digest:\n%s", outBytes)
	}
	got, _, _ := strings.Cut(rest, "\n")
	if want := gruDigest(); got != want {
		t.Fatalf("MSA_NO_AVX=1 digest %s, want %s", got, want)
	}
}

// TestGRUBackwardNeedsForward: Backward consumes the stash in place, so a
// second Backward without a new Forward must fail loudly, not silently
// differentiate through overwritten gates.
func TestGRUBackwardNeedsForward(t *testing.T) {
	g, x, dout := gruCase(5, 2, 3, 2, 2)
	g.Forward(x, true)
	g.Backward(dout)
	defer func() {
		if recover() == nil {
			t.Fatal("second Backward did not panic")
		}
	}()
	g.Backward(dout)
}

// TestGRUEvalReturnsSavedBuffers: an eval Forward has no Backward to hand
// the time-major buffers back, so it returns them itself. An eval pass of
// the §IV-B imputer leaves only the three layer outputs borrowed (each
// GRU's and the head's; dropout passes its input through), and a training
// pass still keeps the saved state its Backward needs.
func TestGRUEvalReturnsSavedBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := GRUImputer(rng, 5)
	x := tensor.RandUniform(rng, -1, 1, 3, 7, 5)
	if _, inUse := evalPass(m, x); inUse != 3 {
		t.Fatalf("eval forward left %d workspace tensors in use, want 3 (the layer outputs)", inUse)
	}
	ws := tensor.NewWorkspace()
	m.SetWorkspace(ws)
	m.Forward(x, true)
	if inUse := ws.InUse(); inUse <= 3 {
		t.Fatalf("training forward left %d workspace tensors in use, want the saved state too", inUse)
	}
}
