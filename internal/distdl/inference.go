package distdl

import (
	"sort"

	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Distributed inference: §II-A's deployment pattern — "compute-intensive
// training can be performed on the CM module while inference and testing
// (i.e., both less compute-intensive) can be scaled-out on the ESB".
// Inference is embarrassingly parallel: ranks process disjoint
// contiguous shards and the predictions are reassembled everywhere.

// DistributedPredict runs model forward over this rank's shard of xs in
// minibatches and returns the (N, classes) per-class probability matrix
// for the FULL dataset, identical on every rank (gather at rank 0 +
// broadcast). act selects the logit-to-probability mapping matching the
// training loss (sigmoid for multi-label BigEarthNet heads, softmax for
// single-label). The model must already hold identical parameters on all
// ranks (e.g. via Trainer's broadcast or nn.LoadModel).
func DistributedPredict(c mpi.Communicator, model *nn.Sequential, xs *tensor.Tensor, batch int, act nn.Activation) *tensor.Tensor {
	if batch < 1 {
		panic("distdl: batch must be positive")
	}
	n := xs.Dim(0)
	if n == 0 {
		panic("distdl: empty dataset")
	}
	p, r := c.Size(), c.Rank()
	lo, hi := r*n/p, (r+1)*n/p

	// The index buffer is allocated once and resliced per minibatch; batch
	// tensors and activation outputs come from a local workspace recycled
	// per minibatch, so the loop's steady state allocates nothing beyond
	// the result accumulation. If the model carries its own workspace (a
	// trainer's), its per-forward borrows are recycled per minibatch too,
	// so a long inference sweep cannot grow the trainer's pool.
	idx := make([]int, batch)
	ws := tensor.NewWorkspace()
	mws := model.Workspace()
	rowShape := xs.Shape()[1:]
	var local []float64
	for b := lo; b < hi; b += batch {
		e := b + batch
		if e > hi {
			e = hi
		}
		ids := idx[:e-b]
		for i := range ids {
			ids[i] = b + i
		}
		ws.ReleaseAll()
		mws.ReleaseAll()
		bx := gatherRowsInto(ws.Get(append([]int{len(ids)}, rowShape...)...), xs, ids)
		out := nn.Activate(ws, model.Forward(bx, false), act)
		if local == nil {
			local = make([]float64, 0, (hi-lo)*out.Dim(1))
		}
		local = append(local, out.Data()...)
	}

	parts := c.Gather(0, local)
	var flat []float64
	if r == 0 {
		total := 0
		for _, pt := range parts {
			total += len(pt)
		}
		flat = make([]float64, 0, total)
		for _, pt := range parts {
			flat = append(flat, pt...)
		}
	}
	flat = c.Bcast(0, flat)

	classes := len(flat) / n
	probs := tensor.New(n, classes)
	copy(probs.Data(), flat)
	return probs
}

// DistributedArgmax runs model forward over this rank's shard of xs and
// returns the argmax class per sample for the FULL dataset, identical on
// every rank. It is DistributedPredict with the scores thrown away (raw
// logits are exchanged — argmax is activation-invariant — at the cost of
// an n×classes rather than n-element gather).
func DistributedArgmax(c mpi.Communicator, model *nn.Sequential, xs *tensor.Tensor, batch int) []int {
	return DistributedPredict(c, model, xs, batch, nn.ActIdentity).ArgmaxRows()
}

// TopK returns the indices of the k largest probabilities in descending
// order (serving's "top-k classes with confidence" response shape). k is
// clamped to len(probs).
func TopK(probs []float64, k int) []int {
	if k > len(probs) {
		k = len(probs)
	}
	if k < 0 {
		k = 0
	}
	order := make([]int, len(probs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return probs[order[a]] > probs[order[b]] })
	return order[:k]
}
