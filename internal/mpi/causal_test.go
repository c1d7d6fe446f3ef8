package mpi

import (
	"testing"

	"repro/internal/telemetry"
)

// The tag-band policy: user p2p traffic and split-group traffic get causal
// spans; the world's internal collective band does not (it is already
// summarized by the enclosing collective span).
// A group's tag block starts at its comm id times the stride.
func TestTraceTagBands(t *testing.T) {
	cases := []struct {
		tag    int
		traced bool
		comm   int
	}{
		{0, true, 0},
		{maxUserTag - 1, true, 0},
		{maxUserTag, false, 0},          // collective internal band
		{commTagStride - 1, false, 0},   // top of the internal band
		{commTagStride, true, 1},        // block of the first split group
		{commTagStride*3 + 17, true, 3}, // block of comm id 3
	}
	for _, c := range cases {
		if got := traceTag(c.tag); got != c.traced {
			t.Fatalf("traceTag(%d) = %v, want %v", c.tag, got, c.traced)
		}
		if got := newGroup(c.comm, nil).tagBase; got != c.tag-c.tag%commTagStride {
			t.Fatalf("comm %d tag base = %d, does not cover tag %d", c.comm, got, c.tag)
		}
	}
}

// Traced user p2p traffic carries complete causal coordinates: each send
// and its receive agree on (comm, peer, tag, seq), and seq counts per
// (peer, tag) stream in program order.
func TestP2PSpanCausalCoords(t *testing.T) {
	tr := telemetry.NewTracer(0)
	w := NewWorld(2)
	w.SetTracer(tr)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 5, []float64{1})
			c.Send(1, 5, []float64{2, 2})
			c.Send(1, 9, []float64{3})
			c.Send(1, 5, []float64{4})
		} else {
			c.Recv(0, 5)
			buf := make([]float64, 2)
			c.RecvInto(0, 5, buf)
			c.Recv(0, 9)
			c.Recv(0, 5)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	type coord struct {
		comm, peer, tag int
		seq, bytes      int64
	}
	var sends, recvs []coord
	for _, s := range tr.Spans() {
		switch s.Kind {
		case telemetry.SpanSend:
			if s.Track != 0 || s.Name != "mpi.send" {
				t.Fatalf("send span on track %d name %q", s.Track, s.Name)
			}
			sends = append(sends, coord{s.CommID, s.Peer, s.Tag, s.Seq, s.Bytes})
		case telemetry.SpanRecv:
			if s.Track != 1 || s.Name != "mpi.recv" {
				t.Fatalf("recv span on track %d name %q", s.Track, s.Name)
			}
			recvs = append(recvs, coord{s.CommID, s.Peer, s.Tag, s.Seq, s.Bytes})
		default:
			t.Fatalf("unexpected span kind %d (%s)", s.Kind, s.Name)
		}
	}
	wantSends := []coord{
		{0, 1, 5, 0, 8}, {0, 1, 5, 1, 16}, {0, 1, 9, 0, 8}, {0, 1, 5, 2, 8},
	}
	wantRecvs := []coord{
		{0, 0, 5, 0, 8}, {0, 0, 5, 1, 16}, {0, 0, 9, 0, 8}, {0, 0, 5, 2, 8},
	}
	if len(sends) != len(wantSends) {
		t.Fatalf("send spans %v, want %v", sends, wantSends)
	}
	for i := range wantSends {
		if sends[i] != wantSends[i] {
			t.Fatalf("send span %d = %+v, want %+v", i, sends[i], wantSends[i])
		}
		if recvs[i] != wantRecvs[i] {
			t.Fatalf("recv span %d = %+v, want %+v", i, recvs[i], wantRecvs[i])
		}
	}
}

// Collectives must not leak their internal point-to-point payload
// traffic as p2p spans — only the collective span itself appears, and
// its SPMD sequence number is identical on every rank so the merger can
// group the instances without a global ID exchange.
func TestCollectiveSeqMatchesAcrossRanks(t *testing.T) {
	tr := telemetry.NewTracer(0)
	w := NewWorld(4)
	w.SetTracer(tr)
	err := w.Run(func(c *Comm) error {
		c.Allreduce([]float64{float64(c.Rank())}, OpSum, AlgoRing)
		c.Barrier()
		c.Allreduce([]float64{1, 2}, OpSum, AlgoRecursiveDoubling)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	perRank := map[int][]string{}
	for _, s := range tr.Spans() {
		switch s.Kind {
		case telemetry.SpanSend, telemetry.SpanRecv:
			t.Fatalf("internal collective traffic leaked a p2p span: %+v", s)
		case telemetry.SpanCollective:
			if s.Peer != -1 {
				t.Fatalf("collective span peer %d, want -1", s.Peer)
			}
			perRank[s.Track] = append(perRank[s.Track], s.Name+"#"+string(rune('0'+s.Seq)))
		}
	}
	if len(perRank) != 4 {
		t.Fatalf("collective spans on %d ranks, want 4", len(perRank))
	}
	for r := 1; r < 4; r++ {
		if len(perRank[r]) != len(perRank[0]) {
			t.Fatalf("rank %d has %d collective spans, rank 0 has %d", r, len(perRank[r]), len(perRank[0]))
		}
		for i := range perRank[0] {
			if perRank[r][i] != perRank[0][i] {
				t.Fatalf("rank %d collective %d = %q, rank 0 = %q", r, i, perRank[r][i], perRank[0][i])
			}
		}
	}
}

// Split-group p2p traffic is user-meaningful and IS traced, in its own
// comm-id namespace so group-local streams never collide with world
// streams.
func TestGroupP2PTraced(t *testing.T) {
	tr := telemetry.NewTracer(0)
	w := NewWorld(4)
	w.SetTracer(tr)
	err := w.Run(func(c *Comm) error {
		g := c.split(c.Rank()%2, 0)
		if g.Rank() == 0 {
			g.Send(1, 3, []float64{7})
		} else {
			g.Recv(0, 3)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var p2p int
	for _, s := range tr.Spans() {
		if s.Kind != telemetry.SpanSend && s.Kind != telemetry.SpanRecv {
			continue
		}
		p2p++
		if s.CommID < 1 {
			t.Fatalf("group p2p span has world comm id: %+v", s)
		}
	}
	if p2p != 4 {
		t.Fatalf("group p2p spans %d, want 4 (2 sends + 2 recvs)", p2p)
	}
}

// SetTracer resets the per-rank stream counters so a fresh tracer sees
// seq numbers from zero — consecutive attach/detach cycles produce
// self-consistent traces instead of continuing old streams.
func TestSetTracerResetsStreamSeq(t *testing.T) {
	w := NewWorld(2)
	run := func() []telemetry.Span {
		tr := telemetry.NewTracer(0)
		w.SetTracer(tr)
		err := w.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				c.Send(1, 2, []float64{1})
			} else {
				c.Recv(0, 2)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		w.SetTracer(nil)
		return tr.Spans()
	}
	for i := 0; i < 2; i++ {
		for _, s := range run() {
			if s.Seq != 0 {
				t.Fatalf("attach cycle %d: span %+v has seq %d, want 0", i, s, s.Seq)
			}
		}
	}
}
