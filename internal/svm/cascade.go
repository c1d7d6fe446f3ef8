package svm

import "repro/internal/mpi"

// Cascade SVM (Graf et al., the parallelization scheme behind the paper's
// MPI SVM [16]): the training set is split across P workers, each trains a
// local SVM, and support vectors are merged pairwise up a binary tree with
// retraining at every merge. Only support vectors travel, so communication
// shrinks as the cascade ascends.

// userTagSV is the p2p tag for serialized support-vector sets.
const userTagSV = 17

// serializeSVSet packs vectors and ±1 labels into one float64 payload:
// [count, dim, rows..., labels...].
func serializeSVSet(x [][]float64, y []int) []float64 {
	dim := 0
	if len(x) > 0 {
		dim = len(x[0])
	}
	out := make([]float64, 0, 2+len(x)*dim+len(y))
	out = append(out, float64(len(x)), float64(dim))
	for _, row := range x {
		out = append(out, row...)
	}
	for _, l := range y {
		out = append(out, float64(l))
	}
	return out
}

// deserializeSVSet unpacks a payload produced by serializeSVSet.
func deserializeSVSet(buf []float64) ([][]float64, []int) {
	n := int(buf[0])
	dim := int(buf[1])
	x := make([][]float64, n)
	off := 2
	for i := range x {
		x[i] = append([]float64(nil), buf[off:off+dim]...)
		off += dim
	}
	y := make([]int, n)
	for i := range y {
		y[i] = int(buf[off+i])
	}
	return x, y
}

// svLabels recovers ±1 labels of a model's support vectors from the sign
// of their coefficients (coef = α·y with α > 0).
func svLabels(m *Model) []int {
	y := make([]int, len(m.Coef))
	for i, c := range m.Coef {
		if c >= 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	return y
}

// TrainCascade trains a binary SVM over an mpi world of P ranks: rank r
// trains on its shard of (x, y), then support vectors merge up a binary
// tree (rank r receives from r+stride while r%2·stride==0) with a retrain
// at each level. Rank 0 broadcasts the final model's support set so every
// rank returns an identical model.
//
// It must be called inside world.Run; each rank passes its comm and its
// local shard.
func TrainCascade(c *mpi.Comm, localX [][]float64, localY []int, cfg Config) *Model {
	model := Train(localX, localY, cfg)
	svX, svY := model.SVs, svLabels(model)

	p := c.Size()
	for stride := 1; stride < p; stride *= 2 {
		if c.Rank()%(2*stride) == 0 {
			partner := c.Rank() + stride
			if partner < p {
				buf := c.Recv(partner, userTagSV)
				ox, oy := deserializeSVSet(buf)
				svX = append(svX, ox...)
				svY = append(svY, oy...)
				model = Train(svX, svY, cfg)
				svX, svY = model.SVs, svLabels(model)
			}
		} else if c.Rank()%stride == 0 {
			c.Send(c.Rank()-stride, userTagSV, serializeSVSet(svX, svY))
			break
		}
	}

	// Rank 0 holds the fully merged model; broadcast its parameters so all
	// ranks return an identical classifier without redundant retraining.
	var payload []float64
	if c.Rank() == 0 {
		payload = serializeModel(model)
	}
	payload = c.Bcast(0, payload)
	return deserializeModel(payload, cfg.withDefaults().Kernel)
}

// serializeModel packs a trained model as [b, count, dim, coefs..., rows...].
func serializeModel(m *Model) []float64 {
	dim := 0
	if len(m.SVs) > 0 {
		dim = len(m.SVs[0])
	}
	out := make([]float64, 0, 3+len(m.Coef)+len(m.SVs)*dim)
	out = append(out, m.B, float64(len(m.SVs)), float64(dim))
	out = append(out, m.Coef...)
	for _, sv := range m.SVs {
		out = append(out, sv...)
	}
	return out
}

// deserializeModel unpacks a payload from serializeModel.
func deserializeModel(buf []float64, k Kernel) *Model {
	m := &Model{Kernel: k, B: buf[0]}
	n := int(buf[1])
	dim := int(buf[2])
	off := 3
	m.Coef = append([]float64(nil), buf[off:off+n]...)
	off += n
	m.SVs = make([][]float64, n)
	for i := range m.SVs {
		m.SVs[i] = append([]float64(nil), buf[off:off+dim]...)
		off += dim
	}
	return m
}

// ShardData splits (x, y) into p contiguous shards for cascade training.
func ShardData(x [][]float64, y []int, p int) ([][][]float64, [][]int) {
	if p < 1 {
		panic("svm: shard count must be >=1")
	}
	xs := make([][][]float64, p)
	ys := make([][]int, p)
	n := len(x)
	for r := 0; r < p; r++ {
		lo, hi := r*n/p, (r+1)*n/p
		xs[r] = x[lo:hi]
		ys[r] = y[lo:hi]
	}
	return xs, ys
}
