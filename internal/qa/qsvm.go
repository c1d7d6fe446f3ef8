package qa

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/svm"
)

// Quantum SVM on a quantum annealer, following the formulation of the
// paper's ref [11] (Cavallaro, Willsch et al., IGARSS 2020): the kernel
// SVM dual is cast as a QUBO by encoding each Lagrange multiplier with K
// binary variables, αᵢ = Σₖ Bᵏ·a_{iK+k}, and adding a squared penalty for
// the equality constraint Σ αᵢyᵢ = 0. The annealer samples low-energy
// assignments; the best feasible sample yields the classifier.

// QSVMConfig tunes the quantum SVM, which runs on the Advantage device.
type QSVMConfig struct {
	Kernel svm.Kernel // default RBF{Gamma: 0.5}
	Anneal AnnealConfig
}

// The multiplier encoding: qsvmBits binary digits per multiplier in base
// qsvmBase, and qsvmPenalty, the weight ξ of the equality constraint.
const (
	qsvmBits    = 3
	qsvmBase    = 2
	qsvmPenalty = 1
)

func (c QSVMConfig) withDefaults() QSVMConfig {
	if c.Kernel == nil {
		c.Kernel = svm.RBF{Gamma: 0.5}
	}
	return c
}

// QSVM is a trained quantum SVM.
type QSVM struct {
	X      [][]float64
	Y      []int
	Alphas []float64
	B      float64
	Kernel svm.Kernel
}

// BuildQUBO constructs the dual-SVM QUBO for the given ±1-labeled data.
// Exported so experiments can inspect problem sizes against device limits.
func BuildQUBO(x [][]float64, y []int, cfg QSVMConfig) *QUBO {
	cfg = cfg.withDefaults()
	n := len(x)
	k := qsvmBits
	q := NewQUBO(n * k)

	// Precompute kernel and the B^k digit weights.
	ker := make([][]float64, n)
	for i := range ker {
		ker[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			v := cfg.Kernel.Eval(x[i], x[j])
			ker[i][j] = v
			ker[j][i] = v
		}
	}
	w := make([]float64, k)
	for d := range w {
		w[d] = math.Pow(qsvmBase, float64(d))
	}

	// E = ½ Σᵢⱼ αᵢαⱼyᵢyⱼK(i,j) − Σᵢ αᵢ + ξ(Σᵢ αᵢyᵢ)².
	// Expand over binary digits a_{i,d}. Quadratic coefficient between
	// digit (i,d) and (j,e):
	//   w_d·w_e·yᵢyⱼ·(½K(i,j) + ξ)
	// with the i==j,d==e diagonal also collecting the linear −w_d term.
	for i := 0; i < n; i++ {
		for d := 0; d < k; d++ {
			vi := i*k + d
			for j := 0; j < n; j++ {
				for e := 0; e < k; e++ {
					vj := j*k + e
					if vj < vi {
						continue
					}
					coef := w[d] * w[e] * float64(y[i]*y[j]) * (0.5*ker[i][j] + qsvmPenalty)
					if vi == vj {
						// a² = a for binary variables.
						q.AddLinear(vi, coef-w[d])
					} else {
						// Off-diagonal pairs appear twice in the double sum.
						q.AddCoupling(vi, vj, 2*coef)
					}
				}
			}
		}
	}
	return q
}

// TrainQSVM builds the QUBO, submits it to the (simulated) device, and
// decodes the lowest-energy sample into a classifier. Returns an error if
// the problem exceeds the device (callers should sub-sample, as the paper
// did).
func TrainQSVM(x [][]float64, y []int, cfg QSVMConfig) (*QSVM, error) {
	cfg = cfg.withDefaults()
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("qa: bad training set (%d samples, %d labels)", len(x), len(y))
	}
	q := BuildQUBO(x, y, cfg)
	samples, err := Advantage.Submit(q, cfg.Anneal)
	if err != nil {
		return nil, err
	}
	best := samples[0]

	n, k := len(x), qsvmBits
	alphas := make([]float64, n)
	for i := 0; i < n; i++ {
		for d := 0; d < k; d++ {
			if best.X[i*k+d] == 1 {
				alphas[i] += math.Pow(qsvmBase, float64(d))
			}
		}
	}
	m := &QSVM{X: x, Y: y, Alphas: alphas, Kernel: cfg.Kernel}
	m.B = m.computeBias()
	return m, nil
}

// computeBias averages y_s − Σ αᵢyᵢK(xᵢ,x_s) over support samples.
func (m *QSVM) computeBias() float64 {
	var sum float64
	var cnt int
	for s := range m.X {
		if m.Alphas[s] <= 0 {
			continue
		}
		f := 0.0
		for i := range m.X {
			if m.Alphas[i] > 0 {
				f += m.Alphas[i] * float64(m.Y[i]) * m.Kernel.Eval(m.X[i], m.X[s])
			}
		}
		sum += float64(m.Y[s]) - f
		cnt++
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// Decision returns the signed margin.
func (m *QSVM) Decision(x []float64) float64 {
	f := m.B
	for i := range m.X {
		if m.Alphas[i] > 0 {
			f += m.Alphas[i] * float64(m.Y[i]) * m.Kernel.Eval(m.X[i], x)
		}
	}
	return f
}

// Predict returns the ±1 label.
func (m *QSVM) Predict(x []float64) int {
	if m.Decision(x) >= 0 {
		return 1
	}
	return -1
}

// Accuracy evaluates on ±1-labeled data.
func (m *QSVM) Accuracy(x [][]float64, y []int) float64 {
	if len(x) == 0 {
		return 0
	}
	correct := 0
	for i := range x {
		if m.Predict(x[i]) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(x))
}

// QEnsemble is a committee of quantum SVMs trained on bootstrap
// sub-samples: the paper's workaround for the annealer's size limit
// ("the requirement to sub-sample from large quantities of data and using
// ensemble methods", §III-C).
type QEnsemble struct {
	Members []*QSVM
}

// TrainQEnsemble draws `members` bootstrap sub-samples of size
// `subsample` (capped by the device) and trains one QSVM on each.
func TrainQEnsemble(x [][]float64, y []int, members, subsample int, cfg QSVMConfig, seed int64) (*QEnsemble, error) {
	cfg = cfg.withDefaults()
	if maxN := Advantage.MaxTrainSamples(qsvmBits); subsample > maxN {
		return nil, fmt.Errorf("qa: subsample %d exceeds device capacity %d (bits=%d)", subsample, maxN, qsvmBits)
	}
	rng := rand.New(rand.NewSource(seed))
	ens := &QEnsemble{}
	for m := 0; m < members; m++ {
		idx := rng.Perm(len(x))[:subsample]
		sx := make([][]float64, subsample)
		sy := make([]int, subsample)
		for i, r := range idx {
			sx[i] = x[r]
			sy[i] = y[r]
		}
		mcfg := cfg
		mcfg.Anneal.Seed = cfg.Anneal.Seed + int64(m)*7919
		model, err := TrainQSVM(sx, sy, mcfg)
		if err != nil {
			return nil, err
		}
		ens.Members = append(ens.Members, model)
	}
	return ens, nil
}

// Predict returns the majority-vote label.
func (e *QEnsemble) Predict(x []float64) int {
	s := 0
	for _, m := range e.Members {
		s += m.Predict(x)
	}
	if s >= 0 {
		return 1
	}
	return -1
}

// Accuracy evaluates the ensemble.
func (e *QEnsemble) Accuracy(x [][]float64, y []int) float64 {
	if len(x) == 0 {
		return 0
	}
	correct := 0
	for i := range x {
		if e.Predict(x[i]) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(x))
}
