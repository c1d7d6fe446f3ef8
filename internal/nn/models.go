package nn

import (
	"math/rand"
)

// ResNetMini builds a scaled-down ResNet (the He et al. [17] basic-block
// family of the paper's RS case study) for multispectral patches of shape
// (N, inC, size, size). Stages halve resolution and double width. The
// final Dense emits `classes` logits — trained with BCEWithLogits for the
// multi-label BigEarthNet task or SoftmaxCrossEntropy for single-label
// tasks.
//
// width controls the stem channel count (ResNet-50 ≈ width 64 with
// bottleneck blocks; the mini variant uses basic blocks so laptop-scale
// training stays tractable while preserving the architecture family).
func ResNetMini(rng *rand.Rand, inC, classes, width, stages int) *Sequential {
	m := NewSequential(
		NewConv2D(rng, "stem.conv", inC, width, 3, 1, 1),
		NewBatchNorm2D("stem.bn", width),
		&ReLU{},
	)
	ch := width
	for s := 0; s < stages; s++ {
		stride := 1
		out := ch
		if s > 0 {
			stride = 2
			out = ch * 2
		}
		m.Add(NewResidual(rng, nameStage("res", s, 0), ch, out, stride))
		m.Add(NewResidual(rng, nameStage("res", s, 1), out, out, 1))
		ch = out
	}
	m.Add(&GlobalAvgPool2D{})
	m.Add(NewDense(rng, "head", ch, classes))
	return m
}

func nameStage(prefix string, stage, block int) string {
	return prefix + string(rune('0'+stage)) + "." + string(rune('0'+block))
}

// CovidNetMini builds the chest-X-ray screening CNN of the COVID-19 case
// study (§IV-A): a lightweight tailored CNN for 3-way classification
// (normal / pneumonia / COVID-19) over single-channel radiographs.
func CovidNetMini(rng *rand.Rand, size, classes int) *Sequential {
	m := NewSequential(
		NewConv2D(rng, "c1", 1, 16, 3, 1, 1),
		NewBatchNorm2D("bn1", 16),
		&ReLU{},
		NewMaxPool(2, 2),
		NewConv2D(rng, "c2", 16, 32, 3, 1, 1),
		NewBatchNorm2D("bn2", 32),
		&ReLU{},
		NewMaxPool(2, 2),
		NewConv2D(rng, "c3", 32, 64, 3, 1, 1),
		NewBatchNorm2D("bn3", 64),
		&ReLU{},
		&GlobalAvgPool2D{},
		NewDense(rng, "head", 64, classes),
	)
	return m
}

// GRUImputer builds the exact model of the ARDS time-series case study
// (§IV-B): "two GRU layers with 32 units each, with dropout values of
// 0.2 ... followed by an output layer (Dense layer of size 1)". Input is
// (N, T, features); output is (N, T, 1) — one imputed value per step.
func GRUImputer(rng *rand.Rand, features int) *Sequential {
	return NewSequential(
		NewGRU(rng, "gru1", features, 32),
		NewDropout(rng, 0.2),
		NewGRU(rng, "gru2", 32, 32),
		NewDropout(rng, 0.2),
		NewTimeDistributed(NewDense(rng, "out", 32, 1)),
	)
}

// Conv1DImputer builds the paper's 1-D CNN alternative for the same task
// ("the results highlight One-Dimensional CNN as promising method as well
// as GRUs", §IV-B): two temporal convolutions with same-padding and a
// per-step linear head.
func Conv1DImputer(rng *rand.Rand, features int) *Sequential {
	return NewSequential(
		NewConv1D(rng, "c1", features, 32, 5, 1, 2),
		&ReLU{},
		NewConv1D(rng, "c2", 32, 32, 5, 1, 2),
		&ReLU{},
		NewTimeDistributed(NewDense(rng, "out", 32, 1)),
	)
}

// MLP builds a plain multilayer perceptron (the fault-tolerance demo job
// and a cheap distributed-training workload in tests and benchmarks).
func MLP(rng *rand.Rand, dims ...int) *Sequential {
	if len(dims) < 2 {
		panic("nn: MLP needs at least input and output dims")
	}
	m := NewSequential()
	for i := 0; i+1 < len(dims); i++ {
		m.Add(NewDense(rng, nameStage("fc", i, 0), dims[i], dims[i+1]))
		if i+2 < len(dims) {
			m.Add(&ReLU{})
		}
	}
	return m
}
