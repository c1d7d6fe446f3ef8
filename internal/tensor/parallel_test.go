package tensor

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMain checks that the suite leaves no goroutine behind except the
// persistent helper pool.
func TestMain(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() != base+int(poolHelpers.Load()) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got, want := runtime.NumGoroutine(), base+int(poolHelpers.Load()); got != want {
			fmt.Fprintf(os.Stderr, "goroutine leak: %d after the suite, want %d (baseline %d + %d helpers)\n",
				got, want, base, poolHelpers.Load())
			code = 1
		}
	}
	os.Exit(code)
}

func resetConfigAfter(t *testing.T) {
	t.Helper()
	c := *loadCfg()
	t.Cleanup(func() { Configure(WithWorkers(c.workers), WithGrain(c.grain)) })
}

// funcArgs lets a test hand the runtime a closure; program code passes
// its operands by value instead.
type funcArgs struct{ f func(lo, hi int) }

var funcJobs Jobs[funcArgs]

func callRange(a funcArgs, lo, hi int) { a.f(lo, hi) }

func parFor(n, cost int, f func(lo, hi int)) { funcJobs.For(n, cost, funcArgs{f}, callRange) }

// parkTask occupies the helper that takes it until unpark is closed.
type parkTask struct{ parked, unpark chan struct{} }

func (p *parkTask) run()     { p.parked <- struct{}{}; <-p.unpark }
func (p *parkTask) release() {}

// parkSurplus grows the pool to at least keep helpers and blocks every
// helper beyond keep, so that exactly keep helpers stay free. The
// returned function (also registered as a cleanup) frees them.
func parkSurplus(t *testing.T, keep int) func() {
	t.Helper()
	ensureHelpers(keep)
	p := &parkTask{parked: make(chan struct{}), unpark: make(chan struct{})}
	surplus := int(poolHelpers.Load()) - keep
	for i := 0; i < surplus; {
		// Claim an idle helper as For does; one may still be finishing an
		// earlier token.
		if n := idle.Load(); n > 0 && idle.CompareAndSwap(n, n-1) {
			tasks <- p
			i++
		} else {
			runtime.Gosched()
		}
	}
	for range surplus {
		<-p.parked
	}
	var once sync.Once
	unpark := func() { once.Do(func() { close(p.unpark) }) }
	t.Cleanup(unpark)
	return unpark
}

func TestParallelForCoversEveryIndexOnce(t *testing.T) {
	resetConfigAfter(t)
	Configure(WithWorkers(8), WithGrain(1024))
	for _, n := range []int{0, 1, 7, 100, 1000, 65536} {
		hits := make([]int32, n)
		parFor(n, 64, func(lo, hi int) {
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
	parFor(10, 1, func(lo, hi int) {
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
	parFor(64, 1024, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			parFor(128, 64, func(l2, h2 int) {
				total.Add(int64(h2 - l2))
			})
		}
	})
	if total.Load() != 64*128 {
		t.Fatalf("nested parallel-for executed %d of %d indices", total.Load(), 64*128)
	}
}

// TestParallelForNestedWhenEveryHelperIsBusy is the regression test for a
// deadlock: every participant of an outer job issues a parallel-eligible
// matmul at once, while every helper is busy in the outer job or parked,
// so no helper is free to take an inner job's chunks. Each caller must
// then finish its inner job alone, claiming every chunk itself.
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
		unpark := parkSurplus(t, p-1)

		outs := make([]*Tensor, p)
		for i := range outs {
			outs[i] = New(64, 64)
		}
		finished := make(chan struct{})
		go func() {
			defer close(finished)
			parFor(p, 1<<20, func(lo, hi int) {
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
				parFor(n, 32, func(lo, hi int) {
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

func (e *indexError) Error() string { return "parallel-for lost or corrupted an index" }

// countArgs counts executions per index.
type countArgs struct{ hits []int32 }

var countJobs Jobs[countArgs]

func countRange(a countArgs, lo, hi int) {
	for i := lo; i < hi; i++ {
		atomic.AddInt32(&a.hits[i], 1)
	}
}

// TestParallelForDescriptorReuseStress recycles descriptors under late
// tokens: all but one helper are parked, and eight callers make
// back-to-back calls of mixed sizes (inline and parallel) through one
// free list, so the one free helper's token often reaches it after its
// job has finished and its caller has moved on. Every index must run
// exactly once per call, and none outside [0, n). Under -race this also
// checks that a late token never touches a reused descriptor.
func TestParallelForDescriptorReuseStress(t *testing.T) {
	resetConfigAfter(t)
	Configure(WithWorkers(4), WithGrain(1024))
	parkSurplus(t, 1)
	const callers, size = 8, 2048
	iters := 1500
	if testing.Short() {
		iters = 200
	}
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for r := range callers {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			hits := make([]int32, size)
			for it := 0; it < iters; it++ {
				n, cost := rng.Intn(size+1), 1+rng.Intn(64)
				countJobs.For(n, cost, countArgs{hits}, countRange)
				for i, h := range hits {
					if want := int32(min(1, max(0, n-i))); h != want {
						errs <- fmt.Errorf("call %d (n=%d cost=%d): index %d ran %d times", it, n, cost, i, h)
						return
					}
					hits[i] = 0
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

// TestParallelForPoolNeverExceedsWorkers drives concurrent calls at
// several worker counts: the pool may only grow to Workers()-1 helpers.
func TestParallelForPoolNeverExceedsWorkers(t *testing.T) {
	resetConfigAfter(t)
	for _, w := range []int{2, 3, 5} {
		Configure(WithWorkers(w), WithGrain(1024))
		before := int(poolHelpers.Load())
		var wg sync.WaitGroup
		for range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				hits := make([]int32, 4096)
				for range 20 {
					countJobs.For(len(hits), 64, countArgs{hits}, countRange)
				}
			}()
		}
		wg.Wait()
		if got := int(poolHelpers.Load()); got > max(before, w-1) {
			t.Fatalf("workers=%d: pool grew from %d to %d helpers", w, before, got)
		}
	}
}

// TestParallelForAllocsSteadyState pins the zero-allocation contract of
// parallel dispatch: each kernel below is large enough at grain 1024 to
// split across four workers, and still allocates nothing per call once
// the descriptor free lists and packing scratch are warm.
func TestParallelForAllocsSteadyState(t *testing.T) {
	resetConfigAfter(t)
	Configure(WithWorkers(4), WithGrain(1024))
	rng := rand.New(rand.NewSource(5))
	pa, pb, pout := randn2(rng, 64, 64), randn2(rng, 64, 64), New(64, 64)
	sa, sb, sbt, sat, sout := randn2(rng, 16, 24), randn2(rng, 24, 20), randn2(rng, 20, 24), randn2(rng, 24, 16), New(16, 20)
	img, w, bias := Randn(rng, 1, 2, 3, 8, 8), randn2(rng, 27, 8), Randn(rng, 1, 8)
	planes, dout, dx := New(2, 8, 8, 8), Randn(rng, 1, 2, 8, 8, 8), New(2, 3, 8, 8)
	dw, db := New(27, 8), New(8)
	x, y := make([]float64, 8192), make([]float64, 8192)
	act, logits := Randn(rng, 1, 8192), randn2(rng, 64, 32)
	ws := NewWorkspace()
	cases := []struct {
		name string
		f    func()
	}{
		{"packed MatMulInto", func() { MatMulInto(pout, pa, pb) }},
		{"small NN", func() { MatMulInto(sout, sa, sb) }},
		{"small NT", func() { MatMulTInto(sout, sa, sbt) }},
		{"small TN", func() { TMatMulAccInto(sout, sat, sb) }},
		{"Conv2DBiasInto", func() { Conv2DBiasInto(ws, planes, img, w, bias, 3, 3, 1, 1, 1) }},
		{"Conv2DGradWeightsInto", func() { Conv2DGradWeightsInto(dw, db, img, dout, 3, 3, 1, 1, 1) }},
		{"Conv2DGradInputInto", func() { Conv2DGradInputInto(dx, dout, w, 3, 3, 1, 1, 1) }},
		{"VecAddInto", func() { VecAddInto(y, x, y) }},
		{"AxpyInto", func() { AxpyInto(y, 0.5, x) }},
		{"ReLUInto", func() { ReLUInto(act, act) }},
		{"SoftmaxRowsInto", func() { SoftmaxRowsInto(logits, logits) }},
	}
	for _, c := range cases {
		for range 20 {
			c.f()
		}
		if allocs := testing.AllocsPerRun(50, c.f); allocs != 0 {
			t.Errorf("%s allocates %.1f/call in steady state, want 0", c.name, allocs)
		}
	}
}

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
}
