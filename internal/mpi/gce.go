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
	cond    *sync.Cond
	revoked bool
	reason  string
}

// gceRound is one group's rendezvous state, guarded by the engine's lock.
type gceRound struct {
	gen, count  int
	acc, result []float64
}

func newGCEEngine() *gceEngine {
	e := &gceEngine{}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// revoke wakes every rank blocked in the engine; they panic with
// RevokedError, matching mailbox semantics.
func (e *gceEngine) revoke(reason string) {
	e.mu.Lock()
	e.revoked = true
	e.reason = reason
	e.mu.Unlock()
	e.cond.Broadcast()
}

// allreduce contributes data to round r's current generation, blocks until
// all n members of the group have contributed, then overwrites data with
// the combined vector. The combine order follows arrival order, matching
// the nondeterministic accumulation of a real in-network reduction tree.
func (e *gceEngine) allreduce(r *gceRound, n int, data []float64, op ReduceOp) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.revoked {
		panic(RevokedError{Reason: e.reason})
	}
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
		if e.revoked {
			panic(RevokedError{Reason: e.reason})
		}
		e.cond.Wait()
	}
	if e.revoked {
		panic(RevokedError{Reason: e.reason})
	}
	copy(data, r.result)
}
