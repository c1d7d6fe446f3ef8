package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refBNStats, refBNNormalize and refBNBackward are nn.BatchNorm2D's
// former loops, one channel at a time, each sum one chain over images
// then pixels.
func refBNStats(x []float64, n, c, hw int) (mean, variance []float64) {
	mean, variance = make([]float64, c), make([]float64, c)
	cnt := float64(n * hw)
	for ch := 0; ch < c; ch++ {
		s := 0.0
		for i := 0; i < n; i++ {
			for _, v := range x[(i*c+ch)*hw:][:hw] {
				s += v
			}
		}
		mean[ch] = s / cnt
	}
	for ch := 0; ch < c; ch++ {
		s := 0.0
		for i := 0; i < n; i++ {
			for _, v := range x[(i*c+ch)*hw:][:hw] {
				d := v - mean[ch]
				s += float64(d * d)
			}
		}
		variance[ch] = s / cnt
	}
	return mean, variance
}

func refBNNormalize(out, xhat, x []float64, n, c, hw int, mean, inv, gamma, beta []float64) {
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			base := (i*c + ch) * hw
			for p := 0; p < hw; p++ {
				t := (x[base+p] - mean[ch]) * inv[ch]
				xhat[base+p] = t
				out[base+p] = float64(gamma[ch]*t) + beta[ch]
			}
		}
	}
}

func refBNBackward(din, dy, xhat []float64, n, c, hw int, gamma, inv []float64) (sumDy, sumDyXhat []float64) {
	sumDy, sumDyXhat = make([]float64, c), make([]float64, c)
	cnt := float64(n * hw)
	for ch := 0; ch < c; ch++ {
		for i := 0; i < n; i++ {
			base := (i*c + ch) * hw
			for p := 0; p < hw; p++ {
				sumDy[ch] += dy[base+p]
				sumDyXhat[ch] += float64(dy[base+p] * xhat[base+p])
			}
		}
		scale := gamma[ch] * inv[ch] / cnt
		for i := 0; i < n; i++ {
			base := (i*c + ch) * hw
			for p := 0; p < hw; p++ {
				din[base+p] = scale * (float64(cnt*dy[base+p]) - sumDy[ch] - float64(xhat[base+p]*sumDyXhat[ch]))
			}
		}
	}
	return sumDy, sumDyXhat
}

// TestBatchNormKernelsMatchScalarLoops pins the batch-norm kernels (the
// channel-lane sums, the normalise pass with and without xhat, and the
// backward pass) against the former loops bit for bit, on the assembly
// and on the Go mirror. The channel counts cover every lane-group tail
// (1–9) and whole groups (16); the plane sizes cover one pixel, odd and
// even pixel counts and the vector tails. In each case one channel in
// turn (every lane position, for c >= 4) carries special values in x, dy
// and xhat — first only finite ones (±0, subnormals, huge values), then
// NaN and ±Inf as well — while the other channels stay plain, so their
// chains are still checked exactly. A NaN matches any NaN (bitsEqNaN).
func TestBatchNormKernelsMatchScalarLoops(t *testing.T) {
	finite := []float64{math.Copysign(0, -1), 0, 5e-324, -5e-324, 1e-310, -2.5e-308, 1e300, -3e299}
	all := append([]float64{math.NaN(), math.Inf(1), math.Inf(-1)}, finite...)
	forEachSIMDMode(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(43))
		for _, c := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16} {
			for _, hw := range []int{1, 3, 4, 5, 42, 64} {
				for _, n := range []int{1, 3} {
					for si, specials := range [][]float64{finite, all} {
						for sp := -1; sp < c; sp++ {
							name := fmt.Sprintf("c=%d hw=%d n=%d specials=%d channel=%d", c, hw, n, si, sp)
							checkBatchNormCase(t, rng, name, n, c, hw, sp, specials)
						}
					}
				}
			}
		}
	})
}

func checkBatchNormCase(t *testing.T, rng *rand.Rand, name string, n, c, hw, sp int, specials []float64) {
	t.Helper()
	size := n * c * hw
	fill := func(v []float64) {
		for i := range v {
			v[i] = rng.NormFloat64()
			if (i/hw)%c == sp && rng.Intn(3) == 0 {
				v[i] = specials[rng.Intn(len(specials))]
			}
		}
	}
	perChan := func() []float64 {
		v := make([]float64, c)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	x, dy, xh := New(n, c, hw, 1), New(n, c, hw, 1), New(n, c, hw, 1)
	fill(x.data)
	fill(dy.data)
	fill(xh.data)
	gamma, beta, inv := perChan(), perChan(), perChan()
	dirty := func() *Tensor {
		d := New(n, c, hw, 1)
		d.Fill(math.NaN())
		return d
	}

	mean, variance := make([]float64, c), make([]float64, c)
	BatchNormStats(mean, variance, x)
	wantMean, wantVar := refBNStats(x.data, n, c, hw)
	if i, ok := bitsEqNaN(mean, wantMean); !ok {
		t.Fatalf("%s: mean[%d] = %v, want %v", name, i, mean[i], wantMean[i])
	}
	if i, ok := bitsEqNaN(variance, wantVar); !ok {
		t.Fatalf("%s: variance[%d] = %v, want %v", name, i, variance[i], wantVar[i])
	}

	out, outEval, xhat := dirty(), dirty(), dirty()
	wantOut, wantXhat := make([]float64, size), make([]float64, size)
	BatchNormNormalizeInto(out, xhat, x, mean, inv, gamma, beta)
	BatchNormNormalizeInto(outEval, nil, x, mean, inv, gamma, beta)
	refBNNormalize(wantOut, wantXhat, x.data, n, c, hw, mean, inv, gamma, beta)
	if i, ok := bitsEqNaN(out.data, wantOut); !ok {
		t.Fatalf("%s: out[%d] = %v, want %v", name, i, out.data[i], wantOut[i])
	}
	if i, ok := bitsEqNaN(outEval.data, wantOut); !ok {
		t.Fatalf("%s: eval out[%d] = %v, want %v", name, i, outEval.data[i], wantOut[i])
	}
	if i, ok := bitsEqNaN(xhat.data, wantXhat); !ok {
		t.Fatalf("%s: xhat[%d] = %v, want %v", name, i, xhat.data[i], wantXhat[i])
	}

	din, wantDin := dirty(), make([]float64, size)
	sumDy, sumDyXhat := make([]float64, c), make([]float64, c)
	BatchNormBackwardInto(din, dy, xh, gamma, inv, sumDy, sumDyXhat)
	wantSumDy, wantSumDyXhat := refBNBackward(wantDin, dy.data, xh.data, n, c, hw, gamma, inv)
	if i, ok := bitsEqNaN(sumDy, wantSumDy); !ok {
		t.Fatalf("%s: sumDy[%d] = %v, want %v", name, i, sumDy[i], wantSumDy[i])
	}
	if i, ok := bitsEqNaN(sumDyXhat, wantSumDyXhat); !ok {
		t.Fatalf("%s: sumDyXhat[%d] = %v, want %v", name, i, sumDyXhat[i], wantSumDyXhat[i])
	}
	if i, ok := bitsEqNaN(din.data, wantDin); !ok {
		t.Fatalf("%s: din[%d] = %v, want %v", name, i, din.data[i], wantDin[i])
	}
}

// BenchmarkBatchNormReLU times a batch norm followed by a ReLU, as
// nn.BatchNorm2D and nn.ReLU run them: at resnet-ddp's two training
// shapes (statistics, normalise with xhat, rectify, then the rectifier's
// and the batch norm's backward) and at serve-model's three eval shapes
// (normalise without xhat, rectify). Each eval shape also times the 3×3
// conv that produces it, followed by the two passes (conv+bn+relu) and
// with both in its tile store (fused), as nn.Conv2D runs a linked group.
func BenchmarkBatchNormReLU(b *testing.B) {
	for _, s := range []struct {
		n, c, hw, inC int
		train         bool
	}{
		{16, 8, 16, 0, true}, {16, 16, 8, 0, true},
		{8, 16, 32, 1, false}, {8, 32, 16, 16, false}, {8, 64, 8, 32, false},
	} {
		rng := rand.New(rand.NewSource(3))
		x := Randn(rng, 1, s.n, s.c, s.hw, s.hw)
		dout := Randn(rng, 1, s.n, s.c, s.hw, s.hw)
		out, xhat, act, dact, din := New(x.shape...), New(x.shape...), New(x.shape...), New(x.shape...), New(x.shape...)
		mean, variance, inv := make([]float64, s.c), make([]float64, s.c), make([]float64, s.c)
		gamma, beta := Randn(rng, 1, s.c).data, Randn(rng, 1, s.c).data
		name := fmt.Sprintf("%dx%dx%dx%d/", s.n, s.c, s.hw, s.hw)
		if !s.train {
			img := Randn(rng, 1, s.n, s.inC, s.hw, s.hw)
			w, bias := Randn(rng, 0.2, s.inC*9, s.c), Randn(rng, 0.1, s.c)
			copy(mean, Randn(rng, 0.1, s.c).data)
			for ch := range inv {
				inv[ch] = 0.5 + float64(rng.Float64())
			}
			b.Run(name+"eval", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					BatchNormNormalizeInto(out, nil, x, mean, inv, gamma, beta)
					ReLUInto(act, out)
				}
				b.ReportMetric(float64(x.Size()*b.N)/b.Elapsed().Seconds()/1e9, "Gelem/s")
			})
			b.Run(name+"conv+bn+relu", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					Conv2DBiasInto(nil, x, img, w, bias, 3, 3, 1, 1, 1)
					BatchNormNormalizeInto(out, nil, x, mean, inv, gamma, beta)
					ReLUInto(act, out)
				}
				b.ReportMetric(float64(x.Size()*b.N)/b.Elapsed().Seconds()/1e9, "Gelem/s")
			})
			b.Run(name+"fused", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					Conv2DBiasInto(nil, act, img, w, bias, 3, 3, 1, 1, 1, BNReLU{mean, inv, gamma, beta, true})
				}
				b.ReportMetric(float64(x.Size()*b.N)/b.Elapsed().Seconds()/1e9, "Gelem/s")
			})
			continue
		}
		b.Run(name+"train", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				BatchNormStats(mean, variance, x)
				for ch, v := range variance {
					inv[ch] = 1 / math.Sqrt(v+1e-5)
				}
				BatchNormNormalizeInto(out, xhat, x, mean, inv, gamma, beta)
				ReLUInto(act, out)
				ReLUBackwardInto(dact, act, dout)
				BatchNormBackwardInto(din, dact, xhat, gamma, inv, mean, variance)
			}
			b.ReportMetric(float64(x.Size()*b.N)/b.Elapsed().Seconds()/1e9, "Gelem/s")
		})
	}
}
