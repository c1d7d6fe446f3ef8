package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Accuracy computes top-1 accuracy for logits (N,C) against integer
// labels.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	pred := logits.ArgmaxRows()
	if len(pred) != len(labels) {
		panic(fmt.Sprintf("nn: Accuracy got %d predictions for %d labels", len(pred), len(labels)))
	}
	correct := 0
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	if len(labels) == 0 {
		return 0
	}
	return float64(correct) / float64(len(labels))
}

// ConfusionMatrix returns an C×C matrix m[actual][predicted].
func ConfusionMatrix(logits *tensor.Tensor, labels []int, classes int) [][]int {
	pred := logits.ArgmaxRows()
	m := make([][]int, classes)
	for i := range m {
		m[i] = make([]int, classes)
	}
	for i, p := range pred {
		m[labels[i]][p]++
	}
	return m
}

// PerClassRecall returns recall per class from a confusion matrix (the
// COVID-Net evaluation reports per-class sensitivity).
func PerClassRecall(cm [][]int) []float64 {
	out := make([]float64, len(cm))
	for c, row := range cm {
		total := 0
		for _, v := range row {
			total += v
		}
		if total > 0 {
			out[c] = float64(row[c]) / float64(total)
		}
	}
	return out
}

// PerClassPrecision returns precision per class from a confusion matrix.
func PerClassPrecision(cm [][]int) []float64 {
	n := len(cm)
	out := make([]float64, n)
	for c := 0; c < n; c++ {
		colTotal := 0
		for r := 0; r < n; r++ {
			colTotal += cm[r][c]
		}
		if colTotal > 0 {
			out[c] = float64(cm[c][c]) / float64(colTotal)
		}
	}
	return out
}

// MultiLabelF1 computes micro-averaged F1 for multi-label logits against
// 0/1 targets using threshold 0 on logits (i.e. σ(x) > 0.5): the
// BigEarthNet metric.
func MultiLabelF1(logits, target *tensor.Tensor) float64 {
	var tp, fp, fn float64
	ld, td := logits.Data(), target.Data()
	for i := range ld {
		pred := ld[i] > 0
		actual := td[i] > 0.5
		switch {
		case pred && actual:
			tp++
		case pred && !actual:
			fp++
		case !pred && actual:
			fn++
		}
	}
	if tp == 0 {
		return 0
	}
	prec := tp / (tp + fp)
	rec := tp / (tp + fn)
	return 2 * prec * rec / (prec + rec)
}

// OneHot encodes integer labels as (N, classes) rows.
func OneHot(labels []int, classes int) *tensor.Tensor {
	out := tensor.New(len(labels), classes)
	for i, l := range labels {
		if l < 0 || l >= classes {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", l, classes))
		}
		out.Set(1, i, l)
	}
	return out
}

// Stateful is implemented by layers carrying non-trainable state that a
// checkpoint must include (batch-norm running statistics).
type Stateful interface {
	// States returns the state tensors in a stable order; loading writes
	// into the same tensors.
	States() []*tensor.Tensor
}

// States implements Stateful for Sequential by recursing into layers.
func (s *Sequential) States() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, l := range s.Layers {
		if st, ok := l.(Stateful); ok {
			out = append(out, st.States()...)
		}
	}
	return out
}

// States returns the running mean and variance.
func (b *BatchNorm2D) States() []*tensor.Tensor {
	return []*tensor.Tensor{b.RunMean, b.RunVar}
}

// States recurses into both residual paths.
func (r *Residual) States() []*tensor.Tensor {
	out := r.Main.States()
	if r.Shortcut != nil {
		out = append(out, r.Shortcut.States()...)
	}
	return out
}
