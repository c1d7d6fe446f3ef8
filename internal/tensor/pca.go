package tensor

import (
	"math"
	"math/rand"
)

// PCA computes the top-k principal components of row-major data (N, D)
// by power iteration with Gram-Schmidt deflation on the covariance
// operator — no full eigendecomposition needed. It returns the component
// matrix (k, D, unit rows) and the column means. It is the linear
// baseline against which the RS-compression autoencoder (Haut et al.,
// paper ref [7]) is compared.
func PCA(x *Tensor, k, iters int, rng *rand.Rand) (components *Tensor, means *Tensor) {
	if x.NDim() != 2 {
		panic("tensor: PCA requires (N, D) data")
	}
	n, d := x.Dim(0), x.Dim(1)
	if k < 1 || k > d {
		panic("tensor: PCA component count out of range")
	}
	means = MeanAxis0(x)
	centered := x.Clone()
	for i := 0; i < n; i++ {
		row := centered.Row(i)
		for j := range row {
			row[j] -= means.Data()[j]
		}
	}

	components = New(k, d)
	for c := 0; c < k; c++ {
		v := Randn(rng, 1, d)
		normalize(v.Data())
		for it := 0; it < iters; it++ {
			// w = Covᵀ·v computed as Xᵀ·(X·v) without materializing Cov.
			xv := MatVec(centered, v)
			w := make([]float64, d)
			for i := 0; i < n; i++ {
				row := centered.Row(i)
				s := xv.Data()[i]
				for j := range row {
					w[j] += float64(s * row[j])
				}
			}
			// Deflate against previously found components.
			for p := 0; p < c; p++ {
				prev := components.Row(p)
				dot := 0.0
				for j := range w {
					dot += float64(w[j] * prev[j])
				}
				for j := range w {
					w[j] -= float64(dot * prev[j])
				}
			}
			normalize(w)
			copy(v.Data(), w)
		}
		copy(components.Row(c), v.Data())
	}
	return components, means
}

func normalize(v []float64) {
	s := 0.0
	for _, x := range v {
		s += float64(x * x)
	}
	if s == 0 {
		v[0] = 1
		return
	}
	inv := 1 / math.Sqrt(s)
	for i := range v {
		v[i] *= inv
	}
}

// PCAProject encodes data (N, D) into (N, k) scores given components and
// means from PCA.
func PCAProject(x, components, means *Tensor) *Tensor {
	n, d := x.Dim(0), x.Dim(1)
	k := components.Dim(0)
	out := New(n, k)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for c := 0; c < k; c++ {
			comp := components.Row(c)
			s := 0.0
			for j := 0; j < d; j++ {
				s += float64((row[j] - means.Data()[j]) * comp[j])
			}
			out.Set(s, i, c)
		}
	}
	return out
}

// PCAReconstruct decodes scores (N, k) back to (N, D).
func PCAReconstruct(scores, components, means *Tensor) *Tensor {
	n, k := scores.Dim(0), scores.Dim(1)
	d := components.Dim(1)
	out := New(n, d)
	for i := 0; i < n; i++ {
		row := out.Row(i)
		copy(row, means.Data())
		for c := 0; c < k; c++ {
			s := scores.At(i, c)
			comp := components.Row(c)
			for j := 0; j < d; j++ {
				row[j] += float64(s * comp[j])
			}
		}
	}
	return out
}
