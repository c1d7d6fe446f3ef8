package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/tensor"
)

// ringSlot is one member's published view in the rendezvous of the
// in-place ring (DESIGN §9): a group holds one slot per member, and each
// ring collective is a new epoch on it. state packs the owner's epoch (its
// count of ring calls on the group) above its completed steps, so "this
// call, at least s steps" is one comparison; buf is set before the epoch is
// published.
type ringSlot struct {
	buf   []float64
	state atomic.Uint64
	_     [32]byte // a cache line per slot
}

// parkSpot is where waiters on one world rank's ring slots sleep.
type parkSpot struct {
	mu     sync.Mutex
	cond   sync.Cond
	parked atomic.Int32
}

// ringSpins is how many polls a waiter makes before it parks (DESIGN §9
// has the measurements behind neither yielding nor spinning longer).
const ringSpins = 32

// ring runs passes·(p-1) steps over data's p chunks (chunkBounds) with the
// message ring's dst, src and combine order, hence its bits, and no message
// or wire buffer. First-pass step s waits until the left neighbour has done
// s steps, then folds its chunk start-s-1 out of its buffer with combine.
// Second-pass step s pushes this rank's final chunk start+1-s into the right
// neighbour's buffer, once the left neighbour has pushed it here (s > 0) and
// the rank two to the right has read the chunk it overwrites (its step s).
// A call returns once no neighbour touches its buffer any more: the right
// one has done its single pass, or the left one has pushed its last chunk.
// A nonzero scale multiplies the chunk the first pass completes. Each step
// counts, and on a traced group emits, one message of the chunk it makes
// available.
func (c *Comm) ring(data []float64, combine func(dst, src []float64), start, passes int, scale float64) {
	w, p, n := c.world, c.Size(), len(data)
	w.revoked.check()
	left, right, far := (c.rank+p-1)%p, (c.rank+1)%p, (c.rank+2)%p
	wl, wr, wf := c.g.members[left], c.g.members[right], c.g.members[far]
	slots := c.g.ring
	me, ls, rs, fs := &slots[c.rank], &slots[left], &slots[right], &slots[far]
	me.buf = data
	base := (me.state.Load()>>32 + 1) << 32
	tr, wtag := w.tracer.Load(), c.g.tagBase+tagRing
	if !traceTag(wtag) {
		tr = nil
	}
	steps, sent := passes*(p-1), 0
	w.publish(me, c.wrank, base)
	for g := 0; g < steps; g++ {
		s, t0 := g%(p-1), tr.Start()
		if g < p-1 { // pull
			slo, shi := chunkBounds(n, p, (start-s+2*p)%p)
			lo, hi := chunkBounds(n, p, (start-s-1+2*p)%p)
			sent += shi - slo
			c.traceSend(tr, wr, wtag, shi-slo)
			w.await(ls, wl, base|uint64(g))
			c.checkLen(ls, left, n)
			c.traceRecv(tr, t0, wl, wtag, hi-lo)
			combine(data[lo:hi], ls.buf[lo:hi])
			if g == p-2 && scale != 0 {
				tensor.VecScaleInto(data[lo:hi], data[lo:hi], scale)
			}
		} else { // push
			lo, hi := chunkBounds(n, p, (start+1-s+2*p)%p)
			sent += hi - lo
			if s > 0 {
				w.await(ls, wl, base|uint64(g))
				c.traceRecv(tr, t0, wl, wtag, hi-lo)
			}
			w.await(fs, wf, base|uint64(s+1))
			c.checkLen(rs, right, n)
			c.traceSend(tr, wr, wtag, hi-lo)
			copyInto(rs.buf[lo:hi], data[lo:hi])
		}
		w.publish(me, c.wrank, base|uint64(g+1))
	}
	if t0 := tr.Start(); passes == 1 {
		w.await(rs, wr, base|uint64(steps))
	} else {
		w.await(ls, wl, base|uint64(steps))
		lo, hi := chunkBounds(n, p, (start+2)%p)
		c.traceRecv(tr, t0, wl, wtag, hi-lo)
	}
	atomic.AddInt64(&w.stats[c.wrank].MessagesSent, int64(steps))
	atomic.AddInt64(&w.stats[c.wrank].ElemsSent, int64(sent))
}

// ShareBuffer is MPI_Win_shared_query in one address space: it returns every
// member's buf by reference, in rank order; callers order their accesses.
func (c *Comm) ShareBuffer(buf []float64) [][]float64 {
	w, slots, out := c.world, c.g.ring, make([][]float64, c.Size())
	me := &slots[c.rank]
	me.buf = buf
	base := (me.state.Load()>>32 + 1) << 32
	for step := range uint64(2) { // publish the buffers, then keep them until all are read
		w.publish(me, c.wrank, base|step)
		for r := range out {
			if w.await(&slots[r], c.g.members[r], base|step); step == 0 {
				out[r] = slots[r].buf
			}
		}
	}
	return out
}

// checkLen panics unless neighbour r's published buffer sl holds n elements
// like this rank's: a mismatched ring would otherwise fold a short chunk, or
// read or write past a buffer.
func (c *Comm) checkLen(sl *ringSlot, r, n int) {
	if len(sl.buf) != n {
		panic(fmt.Sprintf("mpi: ring length mismatch: rank %d has %d elements, its neighbour rank %d has %d",
			c.rank, n, r, len(sl.buf)))
	}
}

// publish stores a slot's state and wakes the waiters parked on its owner.
func (w *World) publish(sl *ringSlot, wrank int, v uint64) {
	sl.state.Store(v)
	if sp := &w.spots[wrank]; sp.parked.Load() > 0 {
		wake(&sp.cond)
	}
}

// await blocks until world rank wrank's slot sl reaches state want, polling
// ringSpins times and then parking; panics with RevokedError once the world
// is revoked. A waiter counts itself parked under the spot's lock before it
// re-checks, so a publish either sees the count or precedes the re-check.
func (w *World) await(sl *ringSlot, wrank int, want uint64) {
	for spin := 0; sl.state.Load() < want; spin++ {
		if w.revoked.check(); spin < ringSpins {
			continue
		}
		sp := &w.spots[wrank]
		sp.mu.Lock()
		sp.parked.Add(1)
		for sl.state.Load() < want && !w.Revoked() {
			sp.cond.Wait()
		}
		sp.parked.Add(-1)
		sp.mu.Unlock()
	}
}
