package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var allAlgos = []Algo{AlgoNaive, AlgoTree, AlgoRing, AlgoRecursiveDoubling, AlgoGCE}

func TestNewWorldPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWorld(0)
}

func TestSendRecvBasic(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3})
		} else {
			data := c.Recv(0, 7)
			if len(data) != 3 || data[2] != 3 {
				return fmt.Errorf("bad recv: %v", data)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesBuffer(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []float64{1}
			c.Send(1, 0, buf)
			buf[0] = 99 // must not affect the in-flight message
		} else {
			data := c.Recv(0, 0)
			if data[0] != 1 {
				return fmt.Errorf("send aliased caller buffer: %v", data)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNonOvertakingSamePairSameTag(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		const n = 50
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 3, []float64{float64(i)})
			}
		} else {
			for i := 0; i < n; i++ {
				data := c.Recv(0, 3)
				if data[0] != float64(i) {
					return fmt.Errorf("message overtaking: got %v want %d", data[0], i)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvByTagOutOfOrder(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1})
			c.Send(1, 2, []float64{2})
		} else {
			// Receive tag 2 first even though tag 1 was sent first.
			d2 := c.Recv(0, 2)
			d1 := c.Recv(0, 1)
			if d2[0] != 2 || d1[0] != 1 {
				return fmt.Errorf("tag matching broken: %v %v", d1, d2)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesError(t *testing.T) {
	w := NewWorld(3)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("expected boom, got %v", err)
	}
}

func TestBarrier(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 8} {
		w := NewWorld(p)
		var mu sync.Mutex
		phase := make([]int, p)
		err := w.Run(func(c *Comm) error {
			mu.Lock()
			phase[c.Rank()] = 1
			mu.Unlock()
			c.Barrier()
			// After the barrier every rank must have reached phase 1.
			mu.Lock()
			defer mu.Unlock()
			for r, ph := range phase {
				if ph != 1 {
					return fmt.Errorf("rank %d passed barrier before rank %d arrived", c.Rank(), r)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestBcastAllSizesAllRoots(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		for root := 0; root < p; root++ {
			w := NewWorld(p)
			err := w.Run(func(c *Comm) error {
				var data []float64
				if c.Rank() == root {
					data = []float64{3.14, 2.71, float64(root)}
				}
				out := c.Bcast(root, data)
				if len(out) != 3 || out[0] != 3.14 || out[2] != float64(root) {
					return fmt.Errorf("rank %d: bad bcast %v", c.Rank(), out)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestAllreduceAllAlgorithmsAllSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 7, 8, 12} {
		for _, algo := range allAlgos {
			for _, n := range []int{1, 3, 17, 128} {
				w := NewWorld(p)
				err := w.Run(func(c *Comm) error {
					data := make([]float64, n)
					for i := range data {
						data[i] = float64(c.Rank()*n + i)
					}
					out := c.Allreduce(data, OpSum, algo)
					for i := range out {
						want := 0.0
						for r := 0; r < p; r++ {
							want += float64(r*n + i)
						}
						if math.Abs(out[i]-want) > 1e-9 {
							return fmt.Errorf("algo=%s p=%d n=%d elem %d: got %f want %f", algo, p, n, i, out[i], want)
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

func TestAllreduceMaxMinProd(t *testing.T) {
	w := NewWorld(4)
	err := w.Run(func(c *Comm) error {
		r := float64(c.Rank())
		if got := c.Allreduce([]float64{r}, OpMax, AlgoRing)[0]; got != 3 {
			return fmt.Errorf("max: %f", got)
		}
		if got := c.Allreduce([]float64{r}, OpMin, AlgoTree)[0]; got != 0 {
			return fmt.Errorf("min: %f", got)
		}
		if got := c.Allreduce([]float64{r + 1}, OpProd, AlgoRecursiveDoubling)[0]; got != 24 {
			return fmt.Errorf("prod: %f", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBackToBackCollectives(t *testing.T) {
	// Stresses tag reuse: many successive collectives of mixed types must
	// not cross-talk thanks to FIFO mailbox matching.
	w := NewWorld(5)
	err := w.Run(func(c *Comm) error {
		for iter := 0; iter < 30; iter++ {
			v := []float64{float64(iter)}
			out := c.Allreduce(v, OpSum, AlgoRing)
			if out[0] != float64(iter*5) {
				return fmt.Errorf("iter %d ring: %v", iter, out)
			}
			out = c.Allreduce(v, OpSum, AlgoGCE)
			if out[0] != float64(iter*5) {
				return fmt.Errorf("iter %d gce: %v", iter, out)
			}
			c.Barrier()
			b := c.Bcast(iter%5, []float64{float64(iter)})
			if b[0] != float64(iter) {
				return fmt.Errorf("iter %d bcast: %v", iter, b)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherScatter(t *testing.T) {
	w := NewWorld(4)
	err := w.Run(func(c *Comm) error {
		got := c.Gather(2, []float64{float64(c.Rank())})
		if c.Rank() == 2 {
			for r := 0; r < 4; r++ {
				if got[r][0] != float64(r) {
					return fmt.Errorf("gather: %v", got)
				}
			}
		} else if got != nil {
			return fmt.Errorf("non-root gather result")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceScalarAndMean(t *testing.T) {
	w := NewWorld(4)
	err := w.Run(func(c *Comm) error {
		if got := c.AllreduceScalar(2, OpSum); got != 8 {
			return fmt.Errorf("scalar: %f", got)
		}
		m := []float64{float64(c.Rank())}
		c.AllreduceMeanInPlace(m, AlgoRing)
		if m[0] != 1.5 {
			return fmt.Errorf("mean: %v", m)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	w := NewWorld(2)
	_ = w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]float64, 10))
		} else {
			c.Recv(0, 0)
		}
		return nil
	})
	s := w.RankStats(0)
	if s.MessagesSent != 1 || s.ElemsSent != 10 {
		t.Fatalf("stats: %+v", s)
	}
	tot := w.TotalStats()
	if tot.MessagesSent != 1 {
		t.Fatalf("total stats: %+v", tot)
	}
}

func TestCollectiveCountIncrements(t *testing.T) {
	w := NewWorld(2)
	_ = w.Run(func(c *Comm) error {
		c.Barrier()
		c.Allreduce([]float64{1}, OpSum, AlgoRing)
		return nil
	})
	if s := w.RankStats(0); s.Collectives != 2 {
		t.Fatalf("collective count: %+v", s)
	}
}

// Property: every allreduce algorithm agrees with the sequential reduction
// on random vectors and world sizes.
func TestAllreduceEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(9)
		n := 1 + rng.Intn(200)
		inputs := make([][]float64, p)
		want := make([]float64, n)
		for r := range inputs {
			inputs[r] = make([]float64, n)
			for i := range inputs[r] {
				inputs[r][i] = rng.NormFloat64()
				want[i] += inputs[r][i]
			}
		}
		for _, algo := range allAlgos {
			w := NewWorld(p)
			results := make([][]float64, p)
			err := w.Run(func(c *Comm) error {
				results[c.Rank()] = c.Allreduce(inputs[c.Rank()], OpSum, algo)
				return nil
			})
			if err != nil {
				return false
			}
			for r := 0; r < p; r++ {
				for i := 0; i < n; i++ {
					if math.Abs(results[r][i]-want[i]) > 1e-8 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCostModelShapes(t *testing.T) {
	const alpha, beta, gce = 2e-6, 1e-9, 4.0
	// Bandwidth regime: ring must beat tree and naive for large n, many p.
	p, n := 128, 1<<22
	ring := CollectiveCostModel(AlgoRing, p, n, alpha, beta, gce)
	tree := CollectiveCostModel(AlgoTree, p, n, alpha, beta, gce)
	naive := CollectiveCostModel(AlgoNaive, p, n, alpha, beta, gce)
	if !(ring < tree && tree < naive) {
		t.Fatalf("bandwidth regime ordering violated: ring=%g tree=%g naive=%g", ring, tree, naive)
	}
	// Latency regime: recursive doubling must beat ring for tiny n.
	rd := CollectiveCostModel(AlgoRecursiveDoubling, p, 8, alpha, beta, gce)
	ringSmall := CollectiveCostModel(AlgoRing, p, 8, alpha, beta, gce)
	if rd >= ringSmall {
		t.Fatalf("latency regime: rd=%g ring=%g", rd, ringSmall)
	}
	// GCE must beat every software algorithm at moderate scale (the paper's
	// motivation for in-fabric reduction).
	gceCost := CollectiveCostModel(AlgoGCE, p, n, alpha, beta, gce)
	if gceCost >= ring {
		t.Fatalf("GCE should win: gce=%g ring=%g", gceCost, ring)
	}
	if CollectiveCostModel(AlgoRing, 1, n, alpha, beta, gce) != 0 {
		t.Fatal("single rank must cost 0")
	}
}

func TestGCEConcurrentGenerations(t *testing.T) {
	// Hammer the GCE with many back-to-back rounds to exercise the
	// generation-counted rendezvous.
	w := NewWorld(8)
	err := w.Run(func(c *Comm) error {
		for i := 0; i < 100; i++ {
			out := c.Allreduce([]float64{float64(i)}, OpSum, AlgoGCE)
			if out[0] != float64(i*8) {
				return fmt.Errorf("round %d: %v", i, out)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCollectiveStressRandomDelays injects random scheduling delays into
// ranks while running mixed collectives back-to-back: a failure-injection
// test for ordering assumptions (FIFO matching must keep everything
// correct regardless of interleaving).
func TestCollectiveStressRandomDelays(t *testing.T) {
	const p = 5
	w := NewWorld(p)
	err := w.Run(func(c *Comm) error {
		rng := rand.New(rand.NewSource(int64(c.Rank()) + 99))
		for iter := 0; iter < 20; iter++ {
			if rng.Intn(3) == 0 {
				time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
			}
			v := []float64{float64(iter + c.Rank())}
			sum := c.Allreduce(v, OpSum, allAlgos[iter%len(allAlgos)])
			want := float64(iter*p + p*(p-1)/2)
			if math.Abs(sum[0]-want) > 1e-9 {
				return fmt.Errorf("iter %d: %f want %f", iter, sum[0], want)
			}
			if rng.Intn(2) == 0 {
				time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
			}
			g := make([]float64, p)
			g[(c.Rank()+1)%p] = float64(c.Rank()) // this rank's OwnedChunk
			c.AllgatherInPlace(g)
			for r := 0; r < p; r++ {
				if g[(r+1)%p] != float64(r) {
					return fmt.Errorf("allgather: %v", g)
				}
			}
			root := iter % p
			got := c.Gather(root, []float64{float64(iter + c.Rank())})
			for r := range got {
				if got[r][0] != float64(iter+r) {
					return fmt.Errorf("gather: %v", got)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
