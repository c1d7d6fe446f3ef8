package data

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// CXR class labels of the COVIDx benchmark (§IV-A: COVID-Net classifies
// normal vs. pneumonia vs. COVID-19 chest radiographs).
const (
	CXRNormal = iota
	CXRPneumonia
	CXRCovid
	CXRClasses
)

// CXRClassNames maps labels to their names.
var CXRClassNames = [CXRClasses]string{"normal", "pneumonia", "COVID-19"}

// CXRConfig controls the synthetic chest X-ray generator.
type CXRConfig struct {
	Samples int
	Size    int // square image edge; default 32
	Seed    int64
}

// cxrNoise is the standard deviation of the pixel noise on every image.
const cxrNoise = 0.25

// CXRDataset holds synthetic radiographs: X (N, 1, Size, Size) and
// integer labels.
type CXRDataset struct {
	X      *tensor.Tensor
	Labels []int
}

// GenCXR produces the COVIDx stand-in. All classes share a lung-field
// background (two bright elliptical regions). Pneumonia adds one dense
// focal consolidation in a single lung; COVID-19 adds multiple diffuse
// bilateral ground-glass patches (the radiological pattern COVID-Net keys
// on, per Wang et al. [25]); normals have only anatomy plus noise.
func GenCXR(cfg CXRConfig) *CXRDataset {
	if cfg.Size == 0 {
		cfg.Size = 32
	}
	if cfg.Samples <= 0 {
		panic("data: Samples must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := cfg.Size
	x := tensor.New(cfg.Samples, 1, s, s)
	labels := make([]int, cfg.Samples)

	for i := 0; i < cfg.Samples; i++ {
		class := i % CXRClasses
		labels[i] = class
		img := x.Data()[i*s*s : (i+1)*s*s]
		drawLungs(img, s, rng)
		switch class {
		case CXRPneumonia:
			// One focal consolidation in a random lung.
			side := rng.Intn(2)
			cx := float64(s)*0.25 + float64(side)*float64(s)*0.5
			cy := float64(s) * (0.35 + rng.Float64()*0.3)
			addBlob(img, s, cx+rng.NormFloat64(), cy, float64(s)*0.12, 1.8)
		case CXRCovid:
			// Bilateral, peripheral, multiple faint patches.
			for _, side := range []float64{0.25, 0.75} {
				for k := 0; k < 2+rng.Intn(2); k++ {
					cx := float64(s)*side + rng.NormFloat64()*float64(s)*0.06
					cy := float64(s) * (0.3 + rng.Float64()*0.45)
					addBlob(img, s, cx, cy, float64(s)*0.08, 0.9)
					_ = k
				}
			}
		}
		for p := range img {
			img[p] += rng.NormFloat64() * cxrNoise
		}
	}
	return &CXRDataset{X: x, Labels: labels}
}

// drawLungs paints the two elliptical lung fields.
func drawLungs(img []float64, s int, rng *rand.Rand) {
	jitter := rng.NormFloat64() * 0.02
	for _, cxFrac := range []float64{0.28, 0.72} {
		cx := float64(s) * (cxFrac + jitter)
		cy := float64(s) * 0.5
		rx := float64(s) * 0.16
		ry := float64(s) * 0.32
		for py := 0; py < s; py++ {
			for px := 0; px < s; px++ {
				dx := (float64(px) - cx) / rx
				dy := (float64(py) - cy) / ry
				if dx*dx+dy*dy < 1 {
					img[py*s+px] += 1.0
				}
			}
		}
	}
}

// addBlob adds a Gaussian opacity of the given intensity.
func addBlob(img []float64, s int, cx, cy, sigma, amp float64) {
	for py := 0; py < s; py++ {
		for px := 0; px < s; px++ {
			dx := float64(px) - cx
			dy := float64(py) - cy
			img[py*s+px] += amp * math.Exp(-(dx*dx+dy*dy)/(2*sigma*sigma))
		}
	}
}

// OneHotLabels returns the (N, CXRClasses) target matrix.
func (d *CXRDataset) OneHotLabels() *tensor.Tensor {
	out := tensor.New(len(d.Labels), CXRClasses)
	for i, l := range d.Labels {
		out.Set(1, i, l)
	}
	return out
}
