package ft

import (
	"math/rand"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// DemoJob builds the small, fully seeded 2-class MLP training job the
// msa-ft driver uses: a 256-sample synthetic Gaussian
// classification task with a 4-16-2 network and momentum SGD. Every
// source of randomness is fixed, so runs are bit-reproducible — the
// property the fault-injection demos rely on.
func DemoJob(ranks, batchSize, steps int) Job {
	const n, dim = 256, 4
	rng := rand.New(rand.NewSource(5))
	xs := tensor.New(n, dim)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		for j := 0; j < dim; j++ {
			xs.Set(float64(c*2-1)+rng.NormFloat64()*0.8, i, j)
		}
		labels[i] = c
	}
	return Job{
		NewModel:  func() *nn.Sequential { return nn.MLP(rand.New(rand.NewSource(7)), dim, 16, 2) },
		NewOpt:    func() nn.Optimizer { return nn.NewSGD(0.9, 0) },
		Loss:      nn.SoftmaxCrossEntropy{},
		Xs:        xs,
		Ys:        nn.OneHot(labels, 2),
		Ranks:     ranks,
		BatchSize: batchSize,
		Steps:     steps,
		EpochSeed: 42,
	}
}
