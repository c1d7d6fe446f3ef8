package mpi

import "sync"

// Causal stream sequencing for p2p tracing. When a tracer is attached,
// every traced Send/Recv is stamped with its position on the (src, dst,
// tag) message stream. Because mailboxes are non-overtaking per
// (src, tag), the k-th send on a stream IS the k-th receive on the other
// side — so per-rank span logs can be merged into a global
// happens-before DAG (internal/telemetry/causal) purely from these
// coordinates, with no cross-rank clock agreement required.
//
// Counters are assigned on the rank goroutine issuing the operation.
// Traffic sent from a foreign goroutine onto a user tag may observe seq
// assignment order different from mailbox order; such edges simply go
// unmatched in the merge rather than corrupting it.

// traceTag reports whether p2p traffic on a wire tag (group tag block +
// local tag) belongs to a user-visible stream worth a causal span: plain
// user tags on the world, and everything in a split group's block —
// user tags and the group's own collective traffic alike, since group
// collectives get no collective span (see Comm.collective). The world's
// internal band [maxUserTag, commTagStride) — barrier/bcast/… handshakes —
// is deliberately excluded; world collectives are traced as single
// SpanCollective spans instead.
func traceTag(wtag int) bool {
	return wtag < maxUserTag || wtag >= commTagStride
}

// rankCausal holds one rank's per-stream sequence counters, keyed by
// (tag, peer). A mutex (not atomics) because the maps grow; the cost is
// paid only while a tracer is attached.
type rankCausal struct {
	mu   sync.Mutex
	send map[int64]int64 // (tag, dst) -> next seq
	recv map[int64]int64 // (tag, src) -> next seq
}

func (rc *rankCausal) nextSend(key int64) int64 { return rc.next(&rc.send, key) }
func (rc *rankCausal) nextRecv(key int64) int64 { return rc.next(&rc.recv, key) }

// next returns stream key's counter in *m and advances it.
func (rc *rankCausal) next(m *map[int64]int64, key int64) int64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if *m == nil {
		*m = map[int64]int64{}
	}
	seq := (*m)[key]
	(*m)[key] = seq + 1
	return seq
}

func (rc *rankCausal) reset() {
	rc.mu.Lock()
	rc.send = nil
	rc.recv = nil
	rc.mu.Unlock()
}

// streamKey packs (tag, peer) into one map key.
func (w *World) streamKey(tag, peer int) int64 {
	return int64(tag)*int64(w.size) + int64(peer)
}
