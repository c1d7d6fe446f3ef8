package mpi

import (
	"fmt"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Comm is a rank's handle onto a communicator: an ordered group of world
// ranks through which all point-to-point and collective communication
// happens. World.Run and World.Comm hand out the world communicator (the
// identity group over every rank); Split carves sub-groups out of any
// Comm. Ranks, sources and destinations are always group-local. Messages
// travel between world mailboxes, offset into the group's private tag
// block so concurrent communicators never cross-talk. A Comm is owned by
// exactly one goroutine (its rank); the underlying World is safe for the
// concurrent use that implies.
type Comm struct {
	world *World
	g     *group // shared by every member's handle
	rank  int    // this rank's index in g.members
	wrank int    // g.members[rank]
	// scalar is AllreduceScalar's one-element buffer, so the per-step loss
	// sync allocates nothing; safe because the handle has one owner.
	scalar [1]float64
}

// Rank returns this rank's index within the communicator's group.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator's group.
func (c *Comm) Size() int { return len(c.g.members) }

// Send delivers a copy of data to dst with the given tag. Tags must be in
// [0, maxUserTag) for user code; internal collectives use the reserved
// space above. Send is asynchronous-buffered: it never blocks.
func (c *Comm) Send(dst, tag int, data []float64) {
	if dst < 0 || dst >= c.Size() {
		panic(fmt.Sprintf("mpi: Send to invalid rank %d", dst))
	}
	if tag < 0 {
		panic("mpi: negative tag")
	}
	w, wdst, wtag := c.world, c.g.members[dst], c.g.tagBase+tag
	// The defensive copy goes through the world's wire pool: internal
	// collectives release consumed payloads back to it, so steady-state
	// traffic recirculates instead of allocating per message.
	buf := w.wire.get(len(data))
	copy(buf, data)
	w.boxes[wdst].put(message{src: c.wrank, tag: wtag, data: buf})
	atomic.AddInt64(&w.stats[c.wrank].MessagesSent, 1)
	atomic.AddInt64(&w.stats[c.wrank].ElemsSent, int64(len(data)))
	if tr := w.tracer.Load(); tr != nil && traceTag(wtag) {
		c.traceSend(tr, wdst, wtag, len(data))
	}
}

// traceSend emits the causal span of a send of elems elements to world rank
// wdst on wire tag wtag, numbered on that stream; a nil tracer emits nothing.
func (c *Comm) traceSend(tr *telemetry.Tracer, wdst, wtag, elems int) {
	if tr == nil {
		return
	}
	w := c.world
	tr.EmitSpan(telemetry.Span{
		Track: c.wrank, Cat: telemetry.CatComm, Name: "mpi.send",
		Start: tr.Start(), Bytes: int64(elems) * 8, Kind: telemetry.SpanSend,
		CommID: c.g.id, Peer: wdst, Tag: wtag, Seq: w.causal[c.wrank].nextSend(w.streamKey(wtag, wdst)),
	})
}

// traceRecv emits the causal span of a receive of elems elements from world
// rank wsrc on wire tag wtag, covering the wait since t0.
func (c *Comm) traceRecv(tr *telemetry.Tracer, t0 int64, wsrc, wtag, elems int) {
	if tr == nil {
		return
	}
	w := c.world
	tr.EmitSpan(telemetry.Span{
		Track: c.wrank, Cat: telemetry.CatComm, Name: "mpi.recv",
		Start: t0, Dur: tr.Start() - t0, Bytes: int64(elems) * 8, Kind: telemetry.SpanRecv,
		CommID: c.g.id, Peer: wsrc, Tag: wtag, Seq: w.causal[c.wrank].nextRecv(w.streamKey(wtag, wsrc)),
	})
}

// recv is the one matched receive behind Recv and RecvInto: it translates
// the group-local (src, tag) to world coordinates and blocks in this rank's
// mailbox. A traced receive emits a span covering the blocked wait and
// carrying the stream coordinates (source, tag, per-stream seq) that match
// it to its send; the tracer is loaded once so attach/detach races cannot
// mismatch start and emit, and the clock is read only when the tag is
// traced.
func (c *Comm) recv(src, tag int) []float64 {
	w, wsrc, wtag := c.world, c.g.members[src], c.g.tagBase+tag
	tr := w.tracer.Load()
	if !traceTag(wtag) {
		tr = nil
	}
	t0 := tr.Start()
	msg := w.boxes[c.wrank].get(wsrc, wtag)
	c.traceRecv(tr, t0, wsrc, wtag, len(msg.data))
	return msg.data
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload, which the caller owns.
func (c *Comm) Recv(src, tag int) []float64 { return c.recv(src, tag) }

// RecvInto receives a message from src with the given tag into buf,
// releasing the wire-pool payload immediately, and returns the element
// count. It is the pooled-receive counterpart of Send's pooled copy: Recv
// hands the wire buffer to the caller (who then owns it, and the pool
// refills on demand), while RecvInto keeps the buffer circulating — the
// receive path per-micro-batch pipeline traffic uses so steady-state
// activation transfers stay off the allocator. Panics if the message does
// not fit in buf: a pipeline stage knows its activation shapes, so
// truncation is a protocol bug, not a runtime condition.
func (c *Comm) RecvInto(src, tag int, buf []float64) int {
	data := c.recv(src, tag)
	if len(data) > len(buf) {
		panic(fmt.Sprintf("mpi: RecvInto buffer too small: message %d elems, buffer %d", len(data), len(buf)))
	}
	n := copy(buf, data)
	c.world.wire.put(data)
	return n
}
