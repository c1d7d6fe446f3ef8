package mpi

import "sync"

// gceEngine models the Global Collective Engine: the FPGA integrated in
// the Extreme Scale Booster's network fabric that executes MPI reductions
// in hardware (paper Section II-A). Ranks contribute their vectors and the
// engine combines them centrally in a single in-network pass; every
// contributor receives the combined result. A world has one engine — one
// lock, one revocation flag — and each communicator group owns a gceRound
// in it, a generation-counted rendezvous so back-to-back collectives and
// concurrent sibling groups are safe.
type gceEngine struct {
	mu      sync.Mutex
	cond    sync.Cond   // on mu
	revoked *revocation // the world's
}

// gceRound is one group's rendezvous state, guarded by the engine's lock.
type gceRound struct {
	gen, count  int
	acc, result []float64
}

// allreduce contributes data to round r's current generation, blocks until
// all n members of the group have contributed, then overwrites data with
// the combined vector. The combine order follows arrival order, matching
// the nondeterministic accumulation of a real in-network reduction tree.
func (e *gceEngine) allreduce(r *gceRound, n int, data []float64, op ReduceOp) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.revoked.check()
	gen := r.gen
	if r.count == 0 {
		r.acc = append(r.acc[:0], data...)
	} else {
		op.Combine(r.acc, data)
	}
	r.count++
	if r.count == n {
		// Publish by swapping buffers: the previous result is dead (every
		// member copied it out before contributing to this generation), so
		// it becomes the next accumulator.
		r.acc, r.result = r.result, r.acc
		r.count = 0
		r.gen++
		e.cond.Broadcast()
	}
	for r.gen == gen {
		e.revoked.check()
		e.cond.Wait()
	}
	e.revoked.check()
	copy(data, r.result)
}
