package mpi

import (
	"sync/atomic"
	"time"
)

// Nonblocking allreduce (MPI_Iallreduce), the primitive overlapped gradient
// sync is built from: the blocking ring's in-place core (ring.go) run on a
// goroutine on the operation's own ring slots, so the result is bitwise
// Allreduce(data, op, AlgoRing)'s and no mailbox or wire buffer is touched.
// distdl relies on this to keep overlapped and blocking training equal.

// Each in-flight operation is numbered by a per-member counter modulo
// iallreduceSeqMod (far above any realistic bucket count). The number keys
// its ring slots and, above tagIallreduceBase, names its traced stream.
const (
	tagIallreduceBase = maxUserTag + 1<<16
	iallreduceSeqMod  = 1 << 14
)

// AllreduceRequest is a handle on a pending nonblocking allreduce started
// by Iallreduce; its Test is Request's.
type AllreduceRequest struct {
	Request
	completed time.Time
}

// Wait blocks until the allreduce completes and returns the reduced
// vector (every rank obtains the same result). If the operation failed —
// the world was revoked mid-collective — Wait re-panics with the original
// error (RevokedError) on the caller's goroutine, exactly like a blocking
// collective would.
func (r *AllreduceRequest) Wait() []float64 {
	out, _ := r.Request.Wait()
	return out
}

// CompletedAt returns the wall-clock time the operation finished. Valid
// only after completion (Test() == true or Wait returned); distdl uses it
// to attribute how much of each bucket's communication was hidden behind
// backward compute (the overlap_ratio metric).
func (r *AllreduceRequest) CompletedAt() time.Time {
	<-r.done
	return r.completed
}

// Iallreduce starts a nonblocking ring allreduce of data under op and
// returns immediately. The input is copied before Iallreduce returns, so
// the caller may reuse its buffer (the same guarantee Isend gives).
//
// Like every collective, all ranks must issue their Iallreduce calls in
// the same order: matching between ranks is positional (the k-th call on
// each rank forms one collective). Multiple operations may be outstanding
// at once — each gets its own ring slots, so concurrent bucket allreduces
// do not cross-talk.
func (c *Comm) Iallreduce(data []float64, op ReduceOp) *AllreduceRequest {
	return c.IallreduceShared(append([]float64(nil), data...), op)
}

// IallreduceShared is Iallreduce minus the defensive input copy: the ring
// reduction runs in place on buf, and Wait returns buf itself. The caller
// must not read or write buf between the call and Wait. Hot paths that
// already own a per-bucket wire buffer (distdl's overlapped gradient sync)
// use this to launch every bucket with zero allocation.
func (c *Comm) IallreduceShared(buf []float64, op ReduceOp) *AllreduceRequest {
	r := &AllreduceRequest{Request: Request{done: make(chan struct{}), data: buf}}
	end := c.collective(KindIallreduce, len(buf), "iallreduce-ring")
	if c.Size() == 1 {
		r.completed = time.Now()
		end()
		close(r.done)
		return r
	}
	seq := int(atomic.AddInt64(&c.g.iseq[c.rank], 1)-1) % iallreduceSeqMod
	go func() {
		defer r.finish()
		defer func() { r.completed = time.Now(); end() }()
		c.ring(c.g.iop(seq), tagIallreduceBase+seq, buf, op.Combine, c.rank, 2, 0)
	}()
	return r
}
