package mpi

import (
	"math/bits"
	"sync"
)

// wirePool recycles point-to-point message payloads. Send copies every
// payload into a buffer drawn from its world's pool (the copy is what makes
// Send asynchronous-buffered), and the message-based collectives — which
// fully consume a received message in their combine/copy step — return
// buffers here instead of dropping them for the GC, so their steady state
// circulates through the free lists without touching the allocator. The
// ring collectives read their neighbours' buffers in place (ring.go) and
// never come here.
//
// Buffers handed to user code by Recv are simply never returned: the pool
// refills on demand, so external callers keep MPI's "receiver owns the
// payload" contract with no release obligation. Only call sites that can
// prove the buffer is dead (the internal collectives) release.
//
// Free lists are size-bucketed by power-of-two capacity, mirroring
// tensor.Workspace; unlike a Workspace the pool is shared by all ranks of a
// world, so a mutex guards it. The critical sections are a few loads and
// stores — contention is negligible next to the copies around them.
type wirePool struct {
	mu   sync.Mutex
	free [wireClasses][][]float64
	// gets/puts count pool traffic (nil gets and ignored foreign puts
	// excluded). Over a window of purely internal circulation — e.g. a
	// steady-state AllreduceInPlace loop — the two advance in lockstep;
	// a growing gets-puts gap inside such a window is a leaked buffer.
	// User-owned Recv payloads legitimately widen the gap (receiver owns
	// the buffer, never returns it), so the invariant is per-window, not
	// global. The collective tests pin it via stats.
	gets, puts uint64
}

const wireClasses = 48

// wireClass returns the free-list class for n float64s: the exponent of
// the next power of two ≥ n.
func wireClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// get returns a length-n buffer with power-of-two capacity, recycled when
// possible. Contents are unspecified — every caller overwrites the full
// length immediately (Send copies its payload in).
func (p *wirePool) get(n int) []float64 {
	if n == 0 {
		return nil
	}
	c := wireClass(n)
	p.mu.Lock()
	p.gets++
	if fl := p.free[c]; len(fl) > 0 {
		b := fl[len(fl)-1]
		fl[len(fl)-1] = nil
		p.free[c] = fl[:len(fl)-1]
		p.mu.Unlock()
		return b[:n]
	}
	p.mu.Unlock()
	return make([]float64, n, 1<<c)
}

// put returns a dead buffer to its free list. Buffers with non-power-of-two
// capacity (not allocated by get) are ignored rather than pooled, so a
// stray release of a foreign slice cannot corrupt the class invariant.
func (p *wirePool) put(b []float64) {
	n := cap(b)
	if n == 0 {
		return
	}
	c := wireClass(n)
	if n != 1<<c {
		return
	}
	p.mu.Lock()
	p.puts++
	p.free[c] = append(p.free[c], b)
	p.mu.Unlock()
}

// stats returns the cumulative get/put counts.
func (p *wirePool) stats() (gets, puts uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gets, p.puts
}
