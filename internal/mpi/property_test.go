package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// One randomized checker for every collective on every kind of
// communicator. A fixed seed keeps it reproducible; CI runs it under -race
// at GOMAXPROCS 1, 2 and 4. For each world size it drives, in one SPMD
// run, the world communicator, a pair of sibling groups split with
// reversed keys, and a split of a split — so whatever holds on the world
// must hold unchanged on a group, which is the contract of having a
// single communicator type.

const propertySeed = 20260807

var propertyOps = []ReduceOp{OpSum, OpMax, OpMin, OpProd}

// propertySizes are the vector lengths tried at world size p: empty, fewer
// elements than ranks, the chunk-boundary neighbours of p, an odd length,
// and the neighbours of the auto/segment thresholds.
func propertySizes(p int) []int {
	seen := map[int]bool{}
	var out []int
	for _, n := range []int{0, 1, 2, p - 1, p, p + 1, 1023, 4096, 4097, 17161} {
		if n >= 0 && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// propertyInts returns world rank wr's small-integer input for a case.
// Sums and products of at most 8 values in [-3, 3] are exact in float64
// under any association, so every algorithm must hit the fold exactly.
func propertyInts(wr, n, salt int) []float64 {
	rng := rand.New(rand.NewSource(propertySeed + int64(wr)*7919 + int64(n)*104729 + int64(salt)))
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(rng.Intn(7) - 3)
	}
	return v
}

// propertyFloats returns rank-specific random floats salted with NaN,
// ±Inf and -0, the values on which a reordered or re-associated combine
// shows up in the bits.
func propertyFloats(wr, n, salt int) []float64 {
	rng := rand.New(rand.NewSource(propertySeed ^ (int64(wr)*15485863 + int64(n)*32452843 + int64(salt))))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	v := make([]float64, n)
	for i := range v {
		if rng.Intn(16) == 0 {
			v[i] = special[rng.Intn(len(special))]
		} else {
			v[i] = rng.NormFloat64() * 100
		}
	}
	return v
}

func sameBits(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("elem %d: %x vs %x", i, math.Float64bits(a[i]), math.Float64bits(b[i]))
		}
	}
	return nil
}

// propertyComms builds the three communicators every case runs on. The
// nested one is a reversed-key split of the group holding every world
// rank but 0, so it is large (p-1) where the sibling pair is small.
func propertyComms(c *Comm) []namedComm {
	most := c.split(min(c.Rank(), 1), c.Rank())
	return []namedComm{
		{"world", c},
		{"siblings", c.split(c.Rank()%2, -c.Rank())},
		{"nested", most.split(0, -most.Rank())},
	}
}

type namedComm struct {
	name string
	*Comm
}

// runFailFast is World.Run for checks that can fail on one rank only: the
// failing rank revokes the world so its peers unwind out of the
// collective they would otherwise wait in forever.
func runFailFast(w *World, fn func(c *Comm) error) error {
	return w.Run(func(c *Comm) (err error) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := AsRevoked(r); !ok {
					panic(r)
				}
			}
		}()
		if err = fn(c); err != nil {
			w.Revoke(err.Error())
		}
		return err
	})
}

// checkAllreduce runs every algorithm × op × size on one communicator.
func checkAllreduce(c *Comm, name string, p int) error {
	members := make([]int, c.Size())
	for i := range members {
		members[i] = c.g.members[i]
	}
	for ni, n := range propertySizes(p) {
		for oi, op := range propertyOps {
			salt := ni*16 + oi
			want := propertyInts(members[0], n, salt)
			for _, wr := range members[1:] {
				op.Combine(want, propertyInts(wr, n, salt))
			}
			x := propertyFloats(c.wrank, n, salt)
			for _, algo := range allAlgos {
				where := fmt.Sprintf("%s p=%d size=%d n=%d op=%s algo=%s", name, p, c.Size(), n, op.Name, algo)
				got := propertyInts(c.wrank, n, salt)
				c.AllreduceInPlace(got, op, algo)
				if err := sameBits(got, want); err != nil {
					return fmt.Errorf("%s: != sequential fold: %v", where, err)
				}
				if algo == AlgoGCE {
					continue // combines in arrival order: exact on integers only
				}
				inPlace := append([]float64(nil), x...)
				c.AllreduceInPlace(inPlace, op, algo)
				if err := sameBits(inPlace, c.Allreduce(x, op, algo)); err != nil {
					return fmt.Errorf("%s: in-place != allocating: %v", where, err)
				}
			}
		}
	}
	return nil
}

// otherCollectives runs the non-allreduce collectives on c with rank i
// contributing in(i) and returns everything this rank got back, in a
// fixed order. Run on a group and on a fresh world of the same size with
// the same inputs, the two transcripts must be identical.
func otherCollectives(c *Comm, n int, in func(rank int) []float64) [][]float64 {
	q, r := c.Size(), c.Rank()
	root := q / 2
	var out [][]float64
	var src []float64
	if r == root {
		src = in(r)
	}
	out = append(out, c.Bcast(root, src))
	into := in(r)
	c.BcastInto(q-1, into)
	out = append(out, into)
	scattered := in(r)
	lo, hi := c.ReduceScatterInPlace(scattered, OpProd, 0)
	out = append(out, scattered[lo:hi])
	gathered := in(r)
	c.AllgatherInPlace(gathered)
	out = append(out, gathered)
	return append(out, c.Gather(root, in(r)[:n-min(n, r)])...) // ragged parts
}

func TestPropertyCollectives(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 7, 8} {
		const otherN = 37
		// Per communicator (propertyComms order) and world rank: what
		// otherCollectives returned there, and, where the rank is its
		// group's rank 0, the group's member list.
		var transcripts [3][][][]float64
		var groups [3][][]int
		for k := range transcripts {
			transcripts[k] = make([][][]float64, p)
			groups[k] = make([][]int, p)
		}
		w := NewWorld(p)
		err := runFailFast(w, func(c *Comm) error {
			comms := propertyComms(c)
			for _, g := range comms {
				if err := checkAllreduce(g.Comm, g.name, p); err != nil {
					return err
				}
			}
			// Leak check: over a window of in-place collectives on all three
			// communicators at once, every wire buffer taken goes back. A
			// barrier on each side of a snapshot makes it quiescent (Barrier
			// moves no pooled payload).
			c.Barrier()
			g0, p0 := w.wire.stats()
			c.Barrier()
			for _, g := range comms {
				for _, algo := range allAlgos {
					x := propertyFloats(c.wrank, 1023, 1)
					g.AllreduceInPlace(x, OpSum, algo)
					g.AllreduceMeanInPlace(x, algo)
					g.BcastInto(0, x)
				}
			}
			c.Barrier()
			g1, p1 := w.wire.stats()
			c.Barrier()
			if g1-g0 != p1-p0 {
				return fmt.Errorf("p=%d: wire pool leak over in-place window: %d gets, %d puts", p, g1-g0, p1-p0)
			}
			for k, g := range comms {
				transcripts[k][c.wrank] = otherCollectives(g.Comm, otherN, func(i int) []float64 {
					return propertyFloats(g.g.members[i], otherN, 2)
				})
				if g.Rank() == 0 {
					groups[k][c.wrank] = g.g.members
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// Replay each group's collectives on a world communicator of the
		// same size: rank i of the replay takes group rank i's inputs and
		// must get group rank i's results, bit for bit. (Index 0 is the
		// world itself.)
		for k := 1; k < len(groups); k++ {
			for _, members := range groups[k] {
				if members == nil {
					continue
				}
				err := runFailFast(NewWorld(len(members)), func(c *Comm) error {
					want := otherCollectives(c, otherN, func(i int) []float64 {
						return propertyFloats(members[i], otherN, 2)
					})
					got := transcripts[k][members[c.Rank()]]
					if len(got) != len(want) {
						return fmt.Errorf("group %v rank %d: %d results vs %d on a world", members, c.Rank(), len(got), len(want))
					}
					for i := range want {
						if err := sameBits(got[i], want[i]); err != nil {
							return fmt.Errorf("group %v rank %d result %d differs from the world's: %v", members, c.Rank(), i, err)
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// waitGoroutines fails the test unless the process goroutine count falls
// back to base (exiting goroutines may lag their last visible effect).
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPropertyNoGoroutineLeak(t *testing.T) {
	// Start the kernel helper pool (persistent, shared with tensor) before
	// taking the baseline, so large combines below do not move it.
	OpSum.Combine(make([]float64, 1<<18), make([]float64, 1<<18))
	base := runtime.NumGoroutine()
	w := NewWorld(8)
	err := w.Run(func(c *Comm) error {
		local := c.Split(c.Rank()/4, c.Rank())
		local.AllreduceInPlace(propertyFloats(c.Rank(), 17161, 3), OpSum, AlgoRing)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base, "after a split-group ring allreduce")
}
