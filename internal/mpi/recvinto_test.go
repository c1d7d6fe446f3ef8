package mpi

import (
	"fmt"
	"testing"
)

func TestRecvIntoBasic(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		const tag = 7
		if c.Rank() == 0 {
			c.Send(1, tag, []float64{1, 2, 3})
			c.Send(1, tag, []float64{4, 5})
			return nil
		}
		buf := make([]float64, 3)
		n := c.RecvInto(0, tag, buf)
		if n != 3 || buf[0] != 1 || buf[2] != 3 {
			return fmt.Errorf("first RecvInto: n=%d buf=%v", n, buf)
		}
		// FIFO per (src, tag): the short message arrives second, into a
		// larger buffer; only n elements are meaningful.
		n = c.RecvInto(0, tag, buf)
		if n != 2 || buf[0] != 4 || buf[1] != 5 {
			return fmt.Errorf("second RecvInto: n=%d buf=%v", n, buf)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvIntoTooSmallPanics(t *testing.T) {
	w := NewWorld(1)
	err := w.Run(func(c *Comm) error {
		c.Send(0, 1, []float64{1, 2, 3, 4})
		defer func() {
			if recover() == nil {
				t.Error("RecvInto into a short buffer did not panic")
			}
		}()
		c.RecvInto(0, 1, make([]float64, 2))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecvIntoRecyclesWire pins the pooled-receive property: after a warm
// round, a Send→RecvInto ping-pong of a fixed size circulates one wire
// buffer instead of allocating per message.
func TestRecvIntoRecyclesWire(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		const tag, rounds, size = 2, 64, 1 << 10
		buf := make([]float64, size)
		if c.Rank() == 0 {
			for i := 0; i < rounds; i++ {
				c.Send(1, tag, buf)
				c.RecvInto(1, tag, buf)
			}
		} else {
			for i := 0; i < rounds; i++ {
				c.RecvInto(0, tag, buf)
				c.Send(0, tag, buf)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// With both receivers releasing payloads, the free list for this size
	// class holds the circulating buffers at quiesce: at least one, and far
	// fewer than one per message.
	cls := wireClass(1 << 10)
	w.wire.mu.Lock()
	pooled := len(w.wire.free[cls])
	w.wire.mu.Unlock()
	if pooled < 1 {
		t.Fatalf("wire pool empty after pooled-receive ping-pong")
	}
	if pooled > 8 {
		t.Fatalf("wire pool grew to %d buffers over %d messages; recycling broken", pooled, 2*64)
	}
}

// TestGroupRecvIntoIsolated checks that a group's tag block keeps its
// traffic apart from the parent communicator's: a receive on the group
// names the same world source and the same local tag as a message queued
// earlier on the parent, and must skip it.
func TestGroupRecvIntoIsolated(t *testing.T) {
	const p = 6
	w := NewWorld(p)
	err := w.Run(func(c *Comm) error {
		// Two sibling groups of three: {0,2,4} and {1,3,5}. Each non-root
		// sends its root a decoy on the world communicator, then a payload
		// on the group, both on one tag; each root receives from every
		// sibling by group rank and must see only the group payloads.
		sub := c.split(c.Rank()%2, c.Rank())
		const tag = 5
		if sub.Rank() != 0 {
			c.Send(sub.g.members[0], tag, []float64{-1})
			sub.Send(0, tag, []float64{float64(c.Rank())})
			return nil
		}
		buf := make([]float64, 1)
		for src := 1; src < sub.Size(); src++ {
			if n := sub.RecvInto(src, tag, buf); n != 1 {
				return fmt.Errorf("root %d: n=%d", c.Rank(), n)
			}
			if int(buf[0]) != sub.g.members[src] {
				return fmt.Errorf("root %d: got payload %v from group-local %d (world %d)",
					c.Rank(), buf[0], src, sub.g.members[src])
			}
		}
		for src := 1; src < sub.Size(); src++ {
			if c.RecvInto(sub.g.members[src], tag, buf); buf[0] != -1 {
				return fmt.Errorf("root %d: world receive got %v, want the decoy", c.Rank(), buf[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitSiblingConcurrentCollectives drives the 2D-grid communication
// shape under the race detector: a 4-stage × 2-replica split where all
// four data-parallel sibling groups and both pipeline-axis groups run
// collectives with no inter-group synchronization, sharing the world's
// mailboxes and wire pool. split_test.go checks group shapes; this checks
// concurrent traffic isolation and value correctness.
func TestSplitSiblingConcurrentCollectives(t *testing.T) {
	const stages, reps = 4, 2
	const p = stages * reps
	const iters = 50
	w := NewWorld(p)
	err := w.Run(func(c *Comm) error {
		stage := c.Rank() % stages
		rep := c.Rank() / stages
		dp := c.split(stage, c.Rank()) // sibling groups {0,4} {1,5} {2,6} {3,7}
		pipe := c.split(rep, c.Rank()) // sibling groups {0..3} {4..7}
		if dp.Size() != reps || pipe.Size() != stages {
			return fmt.Errorf("rank %d: grid %dx%d", c.Rank(), dp.Size(), pipe.Size())
		}
		data := make([]float64, 37)
		for iter := 0; iter < iters; iter++ {
			// Data-parallel axis: sum over replicas of (world rank + iter + i).
			for i := range data {
				data[i] = float64(c.Rank() + iter + i)
			}
			got := dp.Allreduce(data, OpSum, AlgoRing)
			for i := range got {
				want := 0.0
				for d := 0; d < reps; d++ {
					want += float64(d*stages + stage + iter + i)
				}
				if got[i] != want {
					return fmt.Errorf("rank %d iter %d: dp allreduce[%d]=%v want %v", c.Rank(), iter, i, got[i], want)
				}
			}
			// Pipeline axis: sum over stages.
			for i := range data {
				data[i] = float64(c.Rank()*10 + iter + i)
			}
			got = pipe.Allreduce(data, OpSum, AlgoRing)
			for i := range got {
				want := 0.0
				for s := 0; s < stages; s++ {
					want += float64((rep*stages+s)*10 + iter + i)
				}
				if got[i] != want {
					return fmt.Errorf("rank %d iter %d: pipe allreduce[%d]=%v want %v", c.Rank(), iter, i, got[i], want)
				}
			}
			// Broadcast along the pipeline axis from its root.
			b := []float64{float64(iter)}
			if pipe.Rank() != 0 {
				b[0] = -1
			}
			b = pipe.Bcast(0, b)
			if b[0] != float64(iter) {
				return fmt.Errorf("rank %d iter %d: bcast got %v", c.Rank(), iter, b[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
