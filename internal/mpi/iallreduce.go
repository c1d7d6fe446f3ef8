package mpi

import (
	"sync/atomic"
	"time"
)

// Nonblocking allreduce (MPI_Iallreduce): the primitive overlapped
// gradient synchronization is built from. A call returns immediately with
// an AllreduceRequest handle; the ring allreduce runs in the background on
// the rank's behalf while the caller keeps computing (for distdl, the
// remaining backward pass). It is the blocking ring's own function
// (allreduceRing) on a private tag pair with chunks streamed in segments,
// so for a fixed input the result is bitwise identical to
// Allreduce(data, op, AlgoRing); distdl relies on this to keep overlapped
// and blocking training bit-for-bit equal.

// Iallreduce tag space. Each in-flight operation owns two tags (one per
// ring phase) carved from a band that sits above the iota-reserved
// collective tags, inside the communicator's own tag block (which ends at
// commTagStride). Sequence numbers cycle modulo iallreduceSeqMod, which
// bounds simultaneously outstanding operations per rank — far above any
// realistic gradient bucket count.
const (
	tagIallreduceBase = maxUserTag + 1<<16
	iallreduceSeqMod  = 1 << 14
)

// iallreduceSegElems is the pipelining granularity: each ring step's chunk
// is streamed as segments of at most this many elements, so a receiver
// combines early segments while later ones are still in flight.
const iallreduceSegElems = 4096

// AllreduceRequest is a handle on a pending nonblocking allreduce started
// by Iallreduce.
type AllreduceRequest struct {
	done      chan struct{}
	out       []float64
	err       any
	completed time.Time
}

// Wait blocks until the allreduce completes and returns the reduced
// vector (every rank obtains the same result). If the operation failed —
// the world was revoked mid-collective — Wait re-panics with the original
// error (RevokedError) on the caller's goroutine, exactly like a blocking
// collective would.
func (r *AllreduceRequest) Wait() []float64 {
	<-r.done
	if r.err != nil {
		panic(r.err)
	}
	return r.out
}

// Test reports whether the operation has completed (successfully or not)
// without blocking. After Test returns true, Wait returns immediately.
func (r *AllreduceRequest) Test() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
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
// at once — each gets its own tag pair, so concurrent bucket allreduces
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
	r := &AllreduceRequest{done: make(chan struct{})}
	end := c.collective(KindIallreduce, len(buf), "iallreduce-ring")
	if c.Size() == 1 {
		r.out = buf
		r.completed = time.Now()
		close(r.done)
		end()
		return r
	}
	seq := int(atomic.AddInt64(&c.g.iseq[c.rank], 1)-1) % iallreduceSeqMod
	tagRS := tagIallreduceBase + 2*seq
	go func() {
		defer func() {
			if e := recover(); e != nil {
				r.err = e
			}
			r.completed = time.Now()
			end()
			close(r.done)
		}()
		c.allreduceRing(buf, op, tagRS, tagRS+1, iallreduceSegElems)
		r.out = buf
	}()
	return r
}
