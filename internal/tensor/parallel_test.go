package tensor

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func resetConfigAfter(t *testing.T) {
	t.Helper()
	c := *loadCfg()
	t.Cleanup(func() {
		Configure(WithWorkers(c.workers), WithGrain(c.grain), WithBlockSizes(c.mc, c.kc, c.nc))
	})
}

func TestParallelForCoversEveryIndexOnce(t *testing.T) {
	resetConfigAfter(t)
	Configure(WithWorkers(8), WithGrain(1024))
	for _, n := range []int{0, 1, 7, 100, 1000, 65536} {
		hits := make([]int32, n)
		ParallelFor(n, 64, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d index %d executed %d times", n, i, h)
			}
		}
	}
}

func TestParallelForSmallRunsInline(t *testing.T) {
	resetConfigAfter(t)
	Configure(WithWorkers(8), WithGrain(16384))
	calls := 0
	ParallelFor(10, 1, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Fatalf("small loop must run as one inline range, got [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("small loop split into %d calls", calls)
	}
}

func TestParallelForNested(t *testing.T) {
	resetConfigAfter(t)
	Configure(WithWorkers(4), WithGrain(1024))
	var total atomic.Int64
	ParallelFor(64, 1024, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ParallelFor(128, 64, func(l2, h2 int) {
				total.Add(int64(h2 - l2))
			})
		}
	})
	if total.Load() != 64*128 {
		t.Fatalf("nested ParallelFor executed %d of %d indices", total.Load(), 64*128)
	}
}

// TestParallelForNestedWhenEveryHelperIsBusy is the regression test for a
// deadlock: every participant of an outer job issues a parallel-eligible
// matmul at once, so each inner job's tokens queue behind helpers that are
// all blocked in inner jobs of their own. Each caller must then finish its
// inner job alone — which it could not while a thief was unable to take a
// victim's last index.
func TestParallelForNestedWhenEveryHelperIsBusy(t *testing.T) {
	resetConfigAfter(t)
	rng := rand.New(rand.NewSource(7))
	a := randn2(rng, 64, 64)
	b := randn2(rng, 64, 64)
	want := New(64, 64)
	RefMatMulInto(want, a, b)

	for _, p := range []int{2, 3, 4} {
		Configure(WithWorkers(p), WithGrain(16384))
		// Earlier tests may have grown the pool past p-1 helpers; park
		// the surplus so that none is free to rescue an inner job.
		ensureHelpers(p - 1)
		surplus := int(poolHelpers.Load()) - (p - 1)
		parked := make(chan struct{}, surplus)
		release := make(chan struct{})
		var releaseOnce sync.Once
		unpark := func() { releaseOnce.Do(func() { close(release) }) }
		t.Cleanup(unpark) // also on the Fatalf path
		for i := 0; i < surplus; i++ {
			j := &pfJob{n: 1, grain: 1, slots: 1, done: make(chan struct{}, 1)}
			j.fn = func(lo, hi int) { parked <- struct{}{}; <-release }
			j.ranges[0].bits.Store(packRange(0, 1))
			jobCh <- j
		}
		for i := 0; i < surplus; i++ {
			<-parked
		}

		outs := make([]*Tensor, p)
		for i := range outs {
			outs[i] = New(64, 64)
		}
		finished := make(chan struct{})
		go func() {
			defer close(finished)
			ParallelFor(p, 1<<20, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					MatMulInto(outs[i], a, b) // 2·64³ flops: packed and parallel-eligible
				}
			})
		}()
		select {
		case <-finished:
		case <-time.After(30 * time.Second):
			t.Fatalf("%d-participant outer job with nested parallel matmuls deadlocked", p)
		}
		unpark()
		for i, out := range outs {
			if !bitEqual64(out, want) {
				t.Fatalf("%d participants: nested matmul %d produced wrong bits", p, i)
			}
		}
	}
}

// TestParallelForConcurrentRanks hammers the shared pool from many
// goroutines at once, the way concurrent mpi ranks issue kernels. Run
// under -race this is the data-race gate for the runtime; the sums catch
// lost or doubled ranges.
func TestParallelForConcurrentRanks(t *testing.T) {
	resetConfigAfter(t)
	Configure(WithWorkers(4), WithGrain(1024))
	const ranks, iters, n = 8, 25, 4096
	var wg sync.WaitGroup
	errs := make(chan error, ranks)
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]int64, n)
			for it := 0; it < iters; it++ {
				mark := rng.Int63n(1 << 30)
				ParallelFor(n, 32, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						buf[i] = mark + int64(i)
					}
				})
				for i := int64(0); i < n; i++ {
					if buf[i] != mark+i {
						errs <- &indexError{int(i)}
						return
					}
				}
			}
		}(int64(r))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

type indexError struct{ i int }

func (e *indexError) Error() string { return "ParallelFor lost or corrupted an index" }

// TestParallelForMatMulUnderContention issues real kernels from
// concurrent goroutines and cross-checks each against the reference —
// the end-to-end version of the race gate.
func TestParallelForMatMulUnderContention(t *testing.T) {
	resetConfigAfter(t)
	Configure(WithWorkers(4), WithGrain(1024))
	rng := rand.New(rand.NewSource(99))
	a := randn2(rng, 48, 64)
	b := randn2(rng, 64, 56)
	want := New(48, 56)
	RefMatMulInto(want, a, b)
	var wg sync.WaitGroup
	fail := make(chan struct{}, 8)
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := New(48, 56)
			for it := 0; it < 10; it++ {
				MatMulInto(out, a, b)
				if !bitEqual64(out, want) {
					fail <- struct{}{}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(fail)
	if _, bad := <-fail; bad {
		t.Fatal("concurrent MatMul produced wrong bits")
	}
}

func TestConfigureClamps(t *testing.T) {
	resetConfigAfter(t)
	Configure(WithWorkers(-3), WithGrain(10))
	if Workers() != 1 {
		t.Fatalf("WithWorkers must clamp to 1, got %d", Workers())
	}
	if g := loadCfg().grain; g != 1024 {
		t.Fatalf("WithGrain must clamp to 1024, got %d", g)
	}
	Configure(WithBlockSizes(0, -1, 0)) // non-positive keeps current
	mc, kc, nc := BlockSizes()
	if mc <= 0 || kc <= 0 || nc <= 0 {
		t.Fatalf("BlockSizes corrupted: %d %d %d", mc, kc, nc)
	}
	Configure(WithBlockSizes(64, 256, 1024))
	mc, kc, nc = BlockSizes()
	if mc != 64 || kc != 256 || nc != 1024 {
		t.Fatalf("WithBlockSizes not applied: %d %d %d", mc, kc, nc)
	}
}
