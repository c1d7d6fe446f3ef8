package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Tests for the zero-copy collective fast path: AllreduceInPlace must be
// bitwise identical to the allocating Allreduce for every algorithm, the
// wire pool must fully recirculate buffers over in-place collective
// windows (no leaks), and the steady-state blocking ring must not
// allocate.

// TestAllreduceInPlaceMatchesAllocating pins AllreduceInPlace bitwise
// against Allreduce for every algorithm, rank count, and vector length —
// both forms must run the exact same reduction schedule.
func TestAllreduceInPlaceMatchesAllocating(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 8} {
		for _, algo := range allAlgos {
			for _, n := range []int{1, 3, 17, 128, 1000} {
				w := NewWorld(p)
				err := w.Run(func(c *Comm) error {
					rng := rand.New(rand.NewSource(int64(c.Rank()*1000 + n)))
					data := make([]float64, n)
					for i := range data {
						data[i] = rng.NormFloat64()
					}
					want := c.Allreduce(data, OpSum, algo)
					inPlace := append([]float64(nil), data...)
					c.AllreduceInPlace(inPlace, OpSum, algo)
					for i := range want {
						if algo == AlgoGCE {
							// The GCE engine combines in rank-arrival
							// order, so two rounds are tolerance-equal,
							// not bitwise (same as the historical tests).
							if math.Abs(inPlace[i]-want[i]) > 1e-9*math.Max(1, math.Abs(want[i])) {
								return fmt.Errorf("algo=%s p=%d n=%d elem %d: in-place %g, allocating %g",
									algo, p, n, i, inPlace[i], want[i])
							}
							continue
						}
						if math.Float64bits(inPlace[i]) != math.Float64bits(want[i]) {
							return fmt.Errorf("algo=%s p=%d n=%d elem %d: in-place %x, allocating %x",
								algo, p, n, i, math.Float64bits(inPlace[i]), math.Float64bits(want[i]))
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

// TestAllreduceInPlaceOps covers the non-sum reductions through the
// in-place path (they share the SIMD Combine kernels).
func TestAllreduceInPlaceOps(t *testing.T) {
	w := NewWorld(4)
	err := w.Run(func(c *Comm) error {
		r := float64(c.Rank())
		v := []float64{r}
		c.AllreduceInPlace(v, OpMax, AlgoRing)
		if v[0] != 3 {
			return fmt.Errorf("max: %f", v[0])
		}
		v[0] = r
		c.AllreduceInPlace(v, OpMin, AlgoRecursiveDoubling)
		if v[0] != 0 {
			return fmt.Errorf("min: %f", v[0])
		}
		v[0] = r + 1
		c.AllreduceInPlace(v, OpProd, AlgoTree)
		if v[0] != 24 {
			return fmt.Errorf("prod: %f", v[0])
		}
		v[0] = r
		c.AllreduceMeanInPlace(v, AlgoRing)
		if v[0] != 1.5 {
			return fmt.Errorf("mean: %f", v[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWirePoolRecirculatesInPlace checks the ownership contract of the
// in-place collectives: every buffer they borrow from the wire pool goes
// back (pool gets == pool puts over the window, after a warm-up round
// that lets Send/Recv reach steady state on recirculated buffers).
func TestWirePoolRecirculatesInPlace(t *testing.T) {
	for _, algo := range []Algo{AlgoRing, AlgoRecursiveDoubling} {
		for _, p := range []int{2, 3, 4, 5} {
			w := NewWorld(p)
			err := w.Run(func(c *Comm) error {
				data := make([]float64, 600)
				for i := range data {
					data[i] = float64(c.Rank() + i)
				}
				// Warm-up: populates pool buckets and leaves Recv-owned
				// wire buffers in caller hands.
				c.AllreduceInPlace(data, OpSum, algo)
				// Double-barrier brackets make the snapshots quiescent:
				// the first barrier drains all in-flight traffic, the
				// second keeps every rank parked until all snapshots are
				// taken (Barrier itself moves no pooled payloads).
				c.Barrier()
				g0, p0 := w.wire.stats()
				c.Barrier()
				for iter := 0; iter < 5; iter++ {
					c.AllreduceInPlace(data, OpSum, algo)
				}
				c.Barrier()
				g1, p1 := w.wire.stats()
				if gets, puts := g1-g0, p1-p0; gets != puts {
					return fmt.Errorf("algo=%s p=%d: wire pool leak: %d gets vs %d puts over in-place window",
						algo, p, gets, puts)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestAllreduceRingInPlaceZeroAlloc pins the headline perf property: the
// blocking in-place ring allocates nothing in steady state. Run with a
// single rank pair so testing.AllocsPerRun measures one rank's step
// deterministically (the partner runs in a goroutine outside the probe).
func TestAllreduceRingInPlaceZeroAlloc(t *testing.T) {
	w := NewWorld(2)
	c0, c1 := w.Comm(0), w.Comm(1)
	data0 := make([]float64, 1024)
	data1 := make([]float64, 1024)
	// The ring lock-steps the two ranks, so the partner runs a fixed
	// matching count: 4 warm-ups + AllocsPerRun's warm-up call + 20 runs.
	const rounds = 4 + 1 + 20
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < rounds; i++ {
			c1.AllreduceInPlace(data1, OpSum, AlgoRing)
		}
	}()
	// Warm-up fills the pool buckets.
	for i := 0; i < 4; i++ {
		c0.AllreduceInPlace(data0, OpSum, AlgoRing)
	}
	allocs := testing.AllocsPerRun(20, func() {
		c0.AllreduceInPlace(data0, OpSum, AlgoRing)
	})
	<-done
	// Zero in steady state: the wire pool recirculates every transfer
	// buffer and the span attribute strings are constants. (The gradient
	// payload alone was 8KB/op before this change.)
	if allocs > 0 {
		t.Fatalf("in-place ring allocates %.1f objects/op in steady state, want 0", allocs)
	}
}

// TestGroupInPlaceMatches checks a split group's AllreduceInPlace and BcastInto
// against their allocating forms, across a 2-group split.
func TestGroupInPlaceMatches(t *testing.T) {
	w := NewWorld(6)
	err := w.Run(func(c *Comm) error {
		sub := c.split(c.Rank()%2, c.Rank())
		rng := rand.New(rand.NewSource(int64(c.Rank())))
		data := make([]float64, 333)
		for i := range data {
			data[i] = rng.NormFloat64()
		}
		want := sub.Allreduce(data, OpSum, AlgoRing)
		got := append([]float64(nil), data...)
		sub.AllreduceInPlace(got, OpSum, AlgoRing)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return fmt.Errorf("subcomm in-place differs at %d", i)
			}
		}
		// BcastInto delivers root's vector into the caller's buffer.
		buf := make([]float64, 64)
		for i := range buf {
			buf[i] = float64(sub.Rank()*100 + i)
		}
		root := append([]float64(nil), buf...)
		if sub.Rank() != 0 {
			root = nil // only root's contents matter
		}
		sub.BcastInto(0, buf)
		wantB := sub.Bcast(0, func() []float64 {
			if sub.Rank() == 0 {
				return root
			}
			return make([]float64, 64)
		}())
		for i := range buf {
			if sub.Rank() == 0 {
				continue // root keeps its own buffer; compare receivers
			}
			if math.Float64bits(buf[i]) != math.Float64bits(wantB[i]) {
				return fmt.Errorf("BcastInto differs at %d: got %f want %f", i, buf[i], wantB[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecDoublingNonPow2Ownership covers the pre-adjust path of
// recursive doubling at non-power-of-two sizes: ranks outside the power
// core receive the final vector with no defensive copy, so the returned
// buffer must be writable by the caller without corrupting peers.
func TestRecDoublingNonPow2Ownership(t *testing.T) {
	for _, p := range []int{3, 5, 6, 7} {
		w := NewWorld(p)
		err := w.Run(func(c *Comm) error {
			data := make([]float64, 97)
			for i := range data {
				data[i] = float64(c.Rank()*97 + i)
			}
			out := c.Allreduce(data, OpSum, AlgoRecursiveDoubling)
			// Scribble over the result, then re-reduce: if the returned
			// buffer aliased any rank's live state the second round
			// would see the scribbles.
			for i := range out {
				out[i] = -1e300
			}
			out2 := c.Allreduce(data, OpSum, AlgoRecursiveDoubling)
			for i := range out2 {
				want := 0.0
				for r := 0; r < p; r++ {
					want += float64(r*97 + i)
				}
				if math.Abs(out2[i]-want) > 1e-9 {
					return fmt.Errorf("p=%d elem %d: got %f want %f after scribble", p, i, out2[i], want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
