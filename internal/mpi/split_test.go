package mpi

import (
	"fmt"
	"math"
	"testing"
)

func TestSplitBasicGroups(t *testing.T) {
	const p = 6
	w := NewWorld(p)
	err := w.Run(func(c *Comm) error {
		sub := c.split(c.Rank()%2, c.Rank())
		if sub.Size() != 3 {
			return fmt.Errorf("rank %d: group size %d", c.Rank(), sub.Size())
		}
		// Groups ordered by key=world rank: even group {0,2,4}, odd {1,3,5}.
		want := []int{c.Rank() % 2, c.Rank()%2 + 2, c.Rank()%2 + 4}
		for i, wr := range want {
			if sub.g.members[i] != wr {
				return fmt.Errorf("rank %d: member %d is %d want %d", c.Rank(), i, sub.g.members[i], wr)
			}
		}
		if sub.g.members[sub.Rank()] != c.Rank() {
			return fmt.Errorf("rank %d: wrong local index", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitKeyOrdering(t *testing.T) {
	const p = 4
	w := NewWorld(p)
	err := w.Run(func(c *Comm) error {
		// Reverse ordering: higher world rank gets lower key.
		sub := c.split(0, p-c.Rank())
		if sub.g.members[0] != p-1 || sub.g.members[p-1] != 0 {
			return fmt.Errorf("key ordering ignored: %v", sub.g.members)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitNegativeColorExcluded(t *testing.T) {
	const p = 3
	w := NewWorld(p)
	err := w.Run(func(c *Comm) error {
		color := 0
		if c.Rank() == 2 {
			color = -1
		}
		sub := c.split(color, c.Rank())
		if c.Rank() == 2 {
			if sub != nil {
				return fmt.Errorf("excluded rank got a communicator")
			}
			return nil
		}
		if sub.Size() != 2 {
			return fmt.Errorf("group size %d", sub.Size())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitSiblingGroupsSharingLowestRankIsolated is the regression test
// for tag blocks derived from the lowest member alone: groups A={0,1} and
// B={0,1,2} both start at world rank 0 — rank 0's pipeline and data-parallel
// groups in every 2D run — and must still not see each other's traffic.
// Group rank 1 is world rank 1 in both, so a receive from it names the same
// source on either group and only the tag block tells them apart. A message
// rank 1 sends on B is queued at rank 0 before anything arrives on A; the
// receive on A with the same tag has to skip it.
func TestSplitSiblingGroupsSharingLowestRankIsolated(t *testing.T) {
	const tag = 7
	w := NewWorld(3)
	err := w.Run(func(c *Comm) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("rank %d: %v", c.Rank(), r)
			}
		}()
		colorA := 0
		if c.Rank() == 2 {
			colorA = -1
		}
		a := c.split(colorA, c.Rank())
		b := c.split(0, c.Rank())
		if c.Rank() == 1 {
			b.Send(0, tag, []float64{2})
		}
		c.Barrier() // B's message is in rank 0's mailbox from here on
		switch c.Rank() {
		case 1:
			a.Send(0, tag, []float64{1})
		case 0:
			buf := make([]float64, 1)
			if a.RecvInto(1, tag, buf); buf[0] != 1 {
				return fmt.Errorf("A.RecvInto(1) got %v, want 1", buf[0])
			}
			if b.RecvInto(1, tag, buf); buf[0] != 2 {
				return fmt.Errorf("B.RecvInto(1) got %v, want 2", buf[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGroupAllreduce(t *testing.T) {
	const p = 6
	w := NewWorld(p)
	err := w.Run(func(c *Comm) error {
		sub := c.split(c.Rank()/3, c.Rank()) // groups {0,1,2}, {3,4,5}
		data := []float64{float64(c.Rank()), 1}
		out := sub.Allreduce(data, OpSum, AlgoRing)
		base := (c.Rank() / 3) * 3
		wantSum := float64(base + base + 1 + base + 2)
		if math.Abs(out[0]-wantSum) > 1e-9 || out[1] != 3 {
			return fmt.Errorf("rank %d: %v want [%f 3]", c.Rank(), out, wantSum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGroupBcast(t *testing.T) {
	const p = 4
	w := NewWorld(p)
	err := w.Run(func(c *Comm) error {
		sub := c.split(0, c.Rank())
		var data []float64
		if sub.Rank() == 2 {
			data = []float64{42}
		}
		out := sub.Bcast(2, data)
		if out[0] != 42 {
			return fmt.Errorf("bcast: %v", out)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHierarchicalCostModelShape(t *testing.T) {
	// NVLink-class intra (300 GB/s, 0.5 µs) vs IB inter (25 GB/s, 1 µs).
	const aF, bF = 0.5e-6, 8.0 / 300e9
	const aS, bS = 1e-6, 8.0 / 25e9
	// Latency regime (small gradients, e.g. layer-wise allreduce of a
	// bias): hierarchical crosses the slow fabric only once per node pair,
	// so it must beat a 512-rank flat ring decisively.
	small := 1024
	flatSmall := CollectiveCostModel(AlgoRing, 512, small, aS, bS, 1)
	hierSmall := HierarchicalCostModel(512, 4, small, aF, bF, aS, bS)
	if hierSmall >= flatSmall/2 {
		t.Fatalf("latency regime: hierarchical (%g) should be ≥2x faster than flat (%g)", hierSmall, flatSmall)
	}
	// Bandwidth regime (full ResNet-50 gradient): the flat ring is already
	// bandwidth-optimal, so hierarchical should be in the same ballpark
	// (within ~20%), not better — the reason Horovod exposes both.
	big := 25_600_000
	flatBig := CollectiveCostModel(AlgoRing, 512, big, aS, bS, 1)
	hierBig := HierarchicalCostModel(512, 4, big, aF, bF, aS, bS)
	if hierBig > flatBig*1.2 {
		t.Fatalf("bandwidth regime: hierarchical (%g) strayed too far from flat (%g)", hierBig, flatBig)
	}
	// Degenerate cases.
	if HierarchicalCostModel(1, 4, big, aF, bF, aS, bS) != 0 {
		t.Fatal("single rank costs 0")
	}
	// groupSize 1 reduces to a flat slow ring plus nothing intra.
	g1 := HierarchicalCostModel(8, 1, big, aF, bF, aS, bS)
	flat8 := CollectiveCostModel(AlgoRing, 8, big, aS, bS, 1)
	if math.Abs(g1-flat8) > 1e-12 {
		t.Fatalf("groupSize=1 should equal flat ring: %g vs %g", g1, flat8)
	}
}
