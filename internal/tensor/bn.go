package tensor

// Batch-norm kernels for nn.BatchNorm2D over (N, C, H, W) tensors, with
// hw = H·W pixels per plane and cnt = N·hw elements per channel.
//
// The per-channel sums are serial chains: each channel adds its elements
// images first, then pixels, in order, so a sum cannot be split into
// partial sums without changing its bits. chanSums4 therefore puts four
// channels in the four lanes of a YMM register: it loads the four planes
// at one pixel offset and transposes them, so lane k runs channel k's own
// chain in its own order. The element passes (normalise, input gradient)
// are elementwise and vectorise directly. Every product is rounded before
// it is added (float64(…) here, separate VMULPD and VADDPD in
// bn_amd64.s), so no path fuses, and the assembly, the Go mirror and any
// architecture give the same bits.

// BatchNormStats sets mean[ch] = Σx/cnt and then variance[ch] =
// Σfloat64(d·d)/cnt with d = x − mean[ch], over channel ch of x.
func BatchNormStats(mean, variance []float64, x *Tensor) {
	n, c, hw := bnDims("BatchNormStats", x, mean, variance)
	cnt := float64(n * hw)
	chanSums(mean, nil, x.data, nil, nil, n, c, hw)
	for ch := range mean[:c] {
		mean[ch] /= cnt
	}
	chanSums(nil, variance, x.data, nil, mean, n, c, hw)
	for ch := range variance[:c] {
		variance[ch] /= cnt
	}
}

// BatchNormNormalizeInto sets out = float64(g·t) + bt per element, t =
// (x − m)·iv, with m, iv, g and bt the channel's mean, inv, gamma and
// beta entries, and stores t in xhat unless xhat is nil (the eval path).
func BatchNormNormalizeInto(out, xhat, x *Tensor, mean, inv, gamma, beta []float64) *Tensor {
	checkSame("BatchNormNormalizeInto", out, x)
	n, c, hw := bnDims("BatchNormNormalizeInto", x, mean, inv, gamma, beta)
	var xh []float64
	if xhat != nil {
		checkSame("BatchNormNormalizeInto", xhat, x)
		xh = xhat.data
	}
	if n*c*hw > 0 {
		bnNorm(out.data, xh, x.data, mean, inv, gamma, beta, n, c, hw)
	}
	return out
}

// BatchNormBackwardInto sets sumDy[ch] = Σdy and sumDyXhat[ch] =
// Σfloat64(dy·xhat) over channel ch, then din = scale·(float64(cnt·dy) −
// sumDy[ch] − float64(xhat·sumDyXhat[ch])) with scale = gamma[ch]·inv[ch]/cnt.
func BatchNormBackwardInto(din, dy, xhat *Tensor, gamma, inv, sumDy, sumDyXhat []float64) *Tensor {
	checkSame("BatchNormBackwardInto", din, dy)
	checkSame("BatchNormBackwardInto", xhat, dy)
	n, c, hw := bnDims("BatchNormBackwardInto", dy, gamma, inv, sumDy, sumDyXhat)
	chanSums(sumDy, sumDyXhat, dy.data, xhat.data, nil, n, c, hw)
	if n*c*hw > 0 {
		bnBack(din.data, dy.data, xhat.data, gamma, inv, sumDy, sumDyXhat, float64(n*hw), n, c, hw)
	}
	return din
}

// bnDims returns x's (n, c, h·w) and panics unless x is 4-D and every
// per-channel slice holds c entries.
func bnDims(op string, x *Tensor, perChan ...[]float64) (n, c, hw int) {
	if len(x.shape) != 4 {
		panic("tensor: " + op + " requires (N,C,H,W)")
	}
	n, c, hw = x.shape[0], x.shape[1], x.shape[2]*x.shape[3]
	for _, s := range perChan {
		if len(s) < c {
			panic("tensor: " + op + " per-channel slice shorter than C")
		}
	}
	return n, c, hw
}

// chanSums sets s1[ch] = Σt and s2[ch] = Σfloat64(t·u) over channel ch of
// the (n, c, hw) data a, t = a − m[ch] (m nil: t = a, exactly) and u = b
// at the same offset (b nil: u = t); a nil s1 or s2 is not written. Four
// channels at a time run through chanSums4, the rest through its mirror.
func chanSums(s1, s2, a, b, m []float64, n, c, hw int) {
	for ch := 0; ch < c; ch += 4 {
		k := min(4, c-ch)
		var mk [4]float64
		if m != nil {
			copy(mk[:k], m[ch:])
		}
		bk := b
		if b != nil {
			bk = b[ch*hw:]
		}
		var s [8]float64
		chanSums4(&s, a[ch*hw:], bk, &mk, k, n, c*hw, hw)
		if s1 != nil {
			copy(s1[ch:ch+k], s[:k])
		}
		if s2 != nil {
			copy(s2[ch:ch+k], s[4:4+k])
		}
	}
}

// chanSumsGo runs chanSums' chains for k <= 4 channels, lane l's plane of
// image i starting at a[i·stride + l·hw], into s[l] and s[4+l].
func chanSumsGo(s *[8]float64, a, b []float64, m *[4]float64, k, n, stride, hw int) {
	for l := 0; l < k; l++ {
		s1, s2, ml := 0.0, 0.0, m[l]
		for i := 0; i < n; i++ {
			off := i*stride + l*hw
			ap := a[off : off+hw]
			if b == nil {
				for _, v := range ap {
					t := v - ml
					s1 += t
					s2 += float64(t * t)
				}
				continue
			}
			for j, u := range b[off : off+hw] {
				t := ap[j] - ml
				s1 += t
				s2 += float64(t * u)
			}
		}
		s[l], s[4+l] = s1, s2
	}
}

// bnNormGo is BatchNormNormalizeInto's loop, plane by plane.
func bnNormGo(out, xhat, x, mean, inv, gamma, beta []float64, n, c, hw int) {
	for p := 0; p < n*c; p++ {
		ch := p % c
		m, iv, g, bt := mean[ch], inv[ch], gamma[ch], beta[ch]
		xs, o := x[p*hw:][:hw], out[p*hw:][:hw]
		if xhat == nil {
			for i, v := range xs {
				o[i] = float64(g*((v-m)*iv)) + bt
			}
			continue
		}
		xh := xhat[p*hw:][:hw]
		for i, v := range xs {
			t := (v - m) * iv
			xh[i] = t
			o[i] = float64(g*t) + bt
		}
	}
}

// bnBackGo is BatchNormBackwardInto's input-gradient loop, plane by plane.
func bnBackGo(din, dy, xhat, gamma, inv, sumDy, sumDyXhat []float64, cnt float64, n, c, hw int) {
	for p := 0; p < n*c; p++ {
		ch := p % c
		scale, sd, sdx := gamma[ch]*inv[ch]/cnt, sumDy[ch], sumDyXhat[ch]
		xh, di := xhat[p*hw:][:hw], din[p*hw:][:hw]
		for i, d := range dy[p*hw:][:hw] {
			di[i] = scale * (float64(cnt*d) - sd - float64(xh[i]*sdx))
		}
	}
}
