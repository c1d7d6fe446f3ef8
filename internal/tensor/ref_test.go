package tensor

import "math"

// Reference kernels: the floating-point contract stated literally — one
// scalar FMA chain per element, ascending p, seeded from the prior out
// value. Every optimized path must match these bitwise.

func refGemm(kind gemmKind, out, a, b, bias *Tensor, ep Epilogue, acc bool) {
	var m, k, n int
	switch kind {
	case gemmNN:
		m, k, n = a.shape[0], a.shape[1], b.shape[1]
	case gemmNT:
		m, k, n = a.shape[0], a.shape[1], b.shape[0]
	case gemmTN:
		k, m, n = a.shape[0], a.shape[1], b.shape[1]
	}
	if out.shape[0] != m || out.shape[1] != n {
		panic("tensor: matmul output shape mismatch")
	}
	if !acc {
		out.Zero()
	}
	od, ad, bd := out.data, a.data, b.data
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			acc := od[i*n+j]
			switch kind {
			case gemmNN:
				for p := 0; p < k; p++ {
					acc = math.FMA(ad[i*k+p], bd[p*n+j], acc)
				}
			case gemmNT:
				for p := 0; p < k; p++ {
					acc = math.FMA(ad[i*k+p], bd[j*k+p], acc)
				}
			case gemmTN:
				for p := 0; p < k; p++ {
					acc = math.FMA(ad[p*m+i], bd[p*n+j], acc)
				}
			}
			if bias != nil {
				acc += bias.data[j]
			}
			od[i*n+j] = applyEp(acc, ep)
		}
	}
}

// RefMatMulInto is the naive reference for MatMulInto (out = a·b).
func RefMatMulInto(out, a, b *Tensor) *Tensor {
	refGemm(gemmNN, out, a, b, nil, EpNone, false)
	return out
}

// RefMatMulTInto is the naive reference for MatMulTInto (out = a·bᵀ).
func RefMatMulTInto(out, a, b *Tensor) *Tensor {
	refGemm(gemmNT, out, a, b, nil, EpNone, false)
	return out
}

// RefTMatMulInto is the naive reference for out = aᵀ·b (TMatMulAccInto
// into a zeroed out).
func RefTMatMulInto(out, a, b *Tensor) *Tensor {
	refGemm(gemmTN, out, a, b, nil, EpNone, false)
	return out
}

// RefConv2DInto is the naive scalar reference for Conv2DBiasInto
// (stride 1): per-element FMA accumulation in ascending (c, ky, kx)
// order, skipping padded taps, bias added with a plain + afterwards.
func RefConv2DInto(out, img, w, bias *Tensor, kh, kw, padH, padW int) *Tensor {
	n, c, h, iw := img.shape[0], img.shape[1], img.shape[2], img.shape[3]
	outC, oh, ow := out.shape[1], out.shape[2], out.shape[3]
	od, id, wd := out.data, img.data, w.data
	for b := 0; b < n; b++ {
		for oc := 0; oc < outC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					acc := 0.0
					for ch := 0; ch < c; ch++ {
						for ky := 0; ky < kh; ky++ {
							iy := oy + ky - padH
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < kw; kx++ {
								ix := ox + kx - padW
								if ix < 0 || ix >= iw {
									continue
								}
								acc = math.FMA(id[((b*c+ch)*h+iy)*iw+ix], wd[((ch*kh+ky)*kw+kx)*outC+oc], acc)
							}
						}
					}
					if bias != nil {
						acc += bias.data[oc]
					}
					od[((b*outC+oc)*oh+oy)*ow+ox] = acc
				}
			}
		}
	}
	return out
}
