// Package mpi implements an MPI-like message-passing runtime in pure Go.
//
// Ranks are goroutines; a World wires them together with per-rank
// mailboxes that preserve MPI's non-overtaking guarantee (messages between
// the same pair with the same tag arrive in send order). There is one
// communicator type: a Comm is a rank's handle onto an ordered group of
// world ranks, the world communicator is the identity group, and Split
// carves further groups out of any Comm. Point-to-point Send/Recv/RecvInto
// and every collective the paper's distributed deep-learning workloads
// need — Barrier, Bcast, Allreduce, the in-place ReduceScatter and
// Allgather, Gather — are written once against that type and so run on the
// world and on any split group alike. Allreduce takes its algorithm from
// the caller (naive gather-based, binomial tree, ring, recursive doubling,
// and a simulated FPGA Global Collective Engine as in the MSA's ESB fabric,
// Section II-A of the paper), each with one in-place core; the allocating,
// mean and scalar forms wrap it. The ring
// collectives use neither mailbox nor wire pool: a rank reads and writes
// its neighbours' buffers in place and returns once no neighbour touches
// its own, and the ring's mean scales each reduced chunk once (ring.go).
//
// The World also keeps per-rank traffic statistics so experiments can
// report communication volume alongside wall-clock measurements.
package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// maxUserTag is the highest tag available to user code; larger tags are
// reserved for internal collective traffic.
const maxUserTag = 1 << 20

// message is a single point-to-point payload in flight.
type message struct {
	src, tag int
	data     []float64
}

// mailbox is a rank's incoming-message queue with blocking matched receive.
type mailbox struct {
	mu      sync.Mutex
	cond    sync.Cond // on mu
	queue   []message
	revoked *revocation // the world's
}

func (m *mailbox) put(msg message) {
	m.revoked.check()
	m.mu.Lock()
	m.queue = append(m.queue, msg)
	m.mu.Unlock()
	m.cond.Broadcast()
}

// get blocks until a message from world rank src carrying tag is queued
// and removes it from the queue; FIFO order per (src, tag) is preserved.
// Every receive goes through here, so the queue representation is known
// to this file alone. Panics with RevokedError once the world is revoked,
// so blocked receivers unwind instead of hanging.
func (m *mailbox) get(src, tag int) message {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		m.revoked.check()
		for i, msg := range m.queue {
			if msg.src == src && msg.tag == tag {
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				return msg
			}
		}
		m.cond.Wait()
	}
}

// wake broadcasts c under its lock, so a waiter between checking its
// condition and calling Wait cannot miss it.
func wake(c *sync.Cond) {
	c.L.Lock()
	c.Broadcast()
	c.L.Unlock()
}

// revocation is a world's revoked flag: Revoke's reason once it is set. The
// mailboxes, the collective engine and the ring waiters all read this one.
type revocation struct{ atomic.Pointer[string] }

// check panics with RevokedError once the world is revoked.
func (r *revocation) check() {
	if s := r.Load(); s != nil {
		panic(RevokedError{Reason: *s})
	}
}

// RevokedError is the panic payload thrown out of communication calls on a
// revoked world — the analogue of ULFM's MPI_ERR_REVOKED. Ranks blocked in
// a collective when a peer dies unwind with this value; supervisors
// recover() it (see AsRevoked) and rebuild a smaller world.
type RevokedError struct {
	Reason string
}

func (e RevokedError) Error() string {
	return fmt.Sprintf("mpi: world revoked: %s", e.Reason)
}

// AsRevoked reports whether a recover() value is a RevokedError.
func AsRevoked(r any) (RevokedError, bool) {
	e, ok := r.(RevokedError)
	return e, ok
}

// Stats aggregates communication traffic for one rank.
type Stats struct {
	MessagesSent int64
	ElemsSent    int64 // float64 elements sent point-to-point
	Collectives  int64 // total collective calls (all kinds)
	// ByKind breaks Collectives down per collective type, indexed by
	// CollectiveKind.
	ByKind [NumCollectiveKinds]int64
}

// World is a set of communicating ranks. Create one with NewWorld, then
// either call Run to execute an SPMD function on every rank, or obtain
// per-rank Comm handles with Comm for manual orchestration.
type World struct {
	size    int
	boxes   []mailbox
	stats   []Stats
	gce     gceEngine
	revoked revocation
	// spots are where ring waiters park, one per world rank (ring.go).
	spots []parkSpot
	// all is the identity group every world communicator shares (comm id
	// 0); commIDs hands each group a Split creates the next id (split.go).
	all     *group
	commIDs atomic.Int64
	// tracer, when set, receives one span per collective call, tagged
	// with payload bytes and algorithm (telemetry.go).
	tracer atomic.Pointer[telemetry.Tracer]
	// wire recycles Send payload buffers (wirepool.go); the zero value is
	// ready to use.
	wire wirePool
	// causal holds per-rank p2p stream sequence counters (causal.go),
	// advanced only while a tracer is attached.
	causal []rankCausal
}

// NewWorld creates a world with n ranks. Panics if n < 1.
func NewWorld(n int) *World {
	if n < 1 {
		panic(fmt.Sprintf("mpi: world size must be >=1, got %d", n))
	}
	w := &World{size: n, boxes: make([]mailbox, n), stats: make([]Stats, n), causal: make([]rankCausal, n),
		spots: make([]parkSpot, n)}
	members := make([]int, n)
	for i := range w.boxes {
		w.boxes[i].revoked, w.boxes[i].cond.L = &w.revoked, &w.boxes[i].mu
		w.spots[i].cond.L = &w.spots[i].mu
		members[i] = i
	}
	w.gce.revoked, w.gce.cond.L = &w.revoked, &w.gce.mu
	w.all = newGroup(0, members)
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Revoke marks the world as failed (ULFM's MPI_Comm_revoke): every blocked
// and future communication call on any rank panics with RevokedError. A
// fault-tolerance supervisor calls this after detecting a dead rank so the
// survivors stuck in a collective with the dead peer unwind; the revoked
// world is then discarded and a smaller one built from the survivors.
// Idempotent and safe to call from any goroutine.
func (w *World) Revoke(reason string) {
	if !w.revoked.CompareAndSwap(nil, &reason) {
		return
	}
	for i := range w.boxes {
		wake(&w.boxes[i].cond)
		wake(&w.spots[i].cond)
	}
	wake(&w.gce.cond)
}

// Revoked reports whether Revoke has been called.
func (w *World) Revoked() bool { return w.revoked.Load() != nil }

// Comm returns the communicator handle for a rank.
func (w *World) Comm(rank int) *Comm {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", rank, w.size))
	}
	return &Comm{world: w, g: w.all, rank: rank, wrank: rank}
}

// Run executes fn concurrently on every rank and waits for all to finish.
// It returns the first non-nil error (by rank order).
func (w *World) Run(fn func(c *Comm) error) error {
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(w.Comm(r))
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RankStats returns a copy of the traffic statistics for one rank.
func (w *World) RankStats(rank int) Stats {
	s := Stats{
		MessagesSent: atomic.LoadInt64(&w.stats[rank].MessagesSent),
		ElemsSent:    atomic.LoadInt64(&w.stats[rank].ElemsSent),
		Collectives:  atomic.LoadInt64(&w.stats[rank].Collectives),
	}
	for k := range s.ByKind {
		s.ByKind[k] = atomic.LoadInt64(&w.stats[rank].ByKind[k])
	}
	return s
}

// TotalStats sums traffic statistics across ranks.
func (w *World) TotalStats() Stats {
	var t Stats
	for r := 0; r < w.size; r++ {
		s := w.RankStats(r)
		t.MessagesSent += s.MessagesSent
		t.ElemsSent += s.ElemsSent
		t.Collectives += s.Collectives
		for k := range s.ByKind {
			t.ByKind[k] += s.ByKind[k]
		}
	}
	return t
}
