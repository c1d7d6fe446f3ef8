package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The shared kernel runtime: one persistent work-stealing worker pool that
// matmul, convolution, and elementwise kernels all dispatch through, with a
// single knob surface (Configure) replacing the per-call
// runtime.GOMAXPROCS reads and scattered thresholds the kernels used to
// carry individually.
//
// Design:
//
//   - A ParallelFor call splits [0,n) into one contiguous range per
//     participant. Each participant claims grain-sized chunks off the
//     front of its own range with a CAS, and when its range is empty it
//     steals the back half (rounded up, so a single remaining index is
//     stealable) of another participant's range. The caller is always
//     participant 0 and can reach every index — its own range by
//     draining, everyone else's by stealing — so a ParallelFor never
//     waits on a helper that has not started: with zero free helpers
//     (including nested ParallelFor calls from inside a worker) the
//     caller simply executes everything itself. It only ever waits for
//     chunks another participant has already claimed and is executing.
//   - Helper goroutines are lazily spawned, persistent, and shared by
//     every concurrent ParallelFor in the process (multiple goroutine
//     "ranks" of an mpi.World issue kernels concurrently; jobs queue and
//     helpers drain them in arrival order).
//   - Completion is an atomic count of executed indices; the participant
//     that retires the last index signals the caller. Tokens in the job
//     queue that arrive after completion find empty ranges and return
//     immediately.
//   - Grain is expressed in approximate scalar operations, not indices:
//     callers pass a per-index cost and the runtime converts, so a matmul
//     row (2·k·n flops) and an elementwise index (1 op) share one knob.
//
// Small operations never reach the pool: ParallelFor runs inline (and
// kernel call sites check shouldPar before even constructing the closure)
// below a work threshold, which keeps the PR-5 zero-allocation hot-path
// guarantees for small layers.

// config holds the kernel-runtime settings published by Configure. It is
// read via an atomic pointer so kernels pay one load, never a lock.
type config struct {
	workers int // max participants per parallel region
	grain   int // approx scalar ops per claimed chunk (and half the serial threshold)
	mc      int // row-block hint per parallel chunk (rows)
	kc      int // K blocking: packed panel depth
	nc      int // N blocking: packed column-strip width
}

var cfgPtr atomic.Pointer[config]

func init() {
	cfgPtr.Store(&config{
		workers: runtime.GOMAXPROCS(0),
		grain:   16384,
		mc:      128,
		kc:      512,
		nc:      2048,
	})
}

func loadCfg() *config { return cfgPtr.Load() }

// Option configures the kernel runtime (see Configure).
type Option func(*config)

// WithWorkers sets the maximum number of goroutines (including the
// caller) a single kernel may spread across. n < 1 is clamped to 1;
// 1 disables kernel parallelism entirely. Module-sized worlds (many
// concurrent goroutine ranks on one host) should set this low so ranks
// do not oversubscribe the machine.
func WithWorkers(n int) Option {
	return func(c *config) {
		if n < 1 {
			n = 1
		}
		c.workers = n
	}
}

// WithGrain sets the scheduling grain in approximate scalar operations
// per claimed chunk. Work smaller than ~2 grains runs inline on the
// caller. Values below 1024 are clamped.
func WithGrain(n int) Option {
	return func(c *config) {
		if n < 1024 {
			n = 1024
		}
		c.grain = n
	}
}

// WithBlockSizes sets the packed-matmul cache blocking: mc is the
// row-block hint per parallel chunk, kc the packed panel depth (sized so
// a kc×8 B panel and 4×kc A panel stay L1/L2 resident), nc the column
// strip width packed per pass. Non-positive values keep the current
// setting.
func WithBlockSizes(mc, kc, nc int) Option {
	return func(c *config) {
		if mc > 0 {
			c.mc = mc
		}
		if kc > 0 {
			c.kc = kc
		}
		if nc > 0 {
			c.nc = nc
		}
	}
}

var configMu sync.Mutex

// Configure atomically updates the kernel-runtime settings. Safe to call
// concurrently with running kernels: in-flight operations keep the
// snapshot they started with. Typical use is a one-time call at process
// start (the -kernel-workers flag of msa-train/msa-serve/msa-bench).
func Configure(opts ...Option) {
	configMu.Lock()
	defer configMu.Unlock()
	c := *cfgPtr.Load()
	for _, o := range opts {
		o(&c)
	}
	cfgPtr.Store(&c)
}

// Workers reports the configured maximum participants per kernel.
func Workers() int { return loadCfg().workers }

// BlockSizes reports the configured packed-matmul blocking (mc, kc, nc).
func BlockSizes() (mc, kc, nc int) {
	c := loadCfg()
	return c.mc, c.kc, c.nc
}

// shouldPar reports whether a loop of n indices at the given scalar-op
// cost per index is worth dispatching to the pool. Kernel call sites
// check this before constructing the parallel closure so that small
// operations stay allocation-free.
func shouldPar(n, cost int) bool {
	c := loadCfg()
	return c.workers > 1 && n*cost >= 2*c.grain
}

// maxParticipants bounds the participants of one job so ranges fit a
// fixed array inside the job (no per-call slice allocation).
const maxParticipants = 16

// pfRange is one participant's remaining range, packed (lo<<32 | hi)
// into a single atomic word and padded to its own cache line.
type pfRange struct {
	bits atomic.Uint64
	_    [7]uint64
}

func packRange(lo, hi int) uint64     { return uint64(lo)<<32 | uint64(hi) }
func unpackRange(b uint64) (int, int) { return int(b >> 32), int(b & 0xffffffff) }

type pfJob struct {
	fn       func(lo, hi int)
	n        int
	grain    int
	slots    int32
	nextSlot atomic.Int32
	executed atomic.Int64
	done     chan struct{}
	ranges   [maxParticipants]pfRange
}

// drain claims grain-sized chunks off the front of r until it is empty,
// returning the number of indices executed.
func (j *pfJob) drain(r *pfRange) int {
	count := 0
	for {
		b := r.bits.Load()
		lo, hi := unpackRange(b)
		if lo >= hi {
			return count
		}
		nlo := lo + j.grain
		if nlo > hi {
			nlo = hi
		}
		if r.bits.CompareAndSwap(b, packRange(nlo, hi)) {
			j.fn(lo, nlo)
			count += nlo - lo
		}
	}
}

// steal takes the back half of r, rounded up (leaving the front for its
// owner), and executes it, returning the number of indices executed (0 if
// r was empty). Rounding up matters: a range holding one index must be
// stealable, or an owner that never starts — its token still queued
// behind helpers that are themselves blocked in nested calls — strands
// that index and the caller waits on done forever.
func (j *pfJob) steal(r *pfRange) int {
	for {
		b := r.bits.Load()
		lo, hi := unpackRange(b)
		if hi-lo <= 0 {
			return 0
		}
		mid := lo + (hi-lo)/2
		if r.bits.CompareAndSwap(b, packRange(lo, mid)) {
			count := 0
			for x := mid; x < hi; x += j.grain {
				e := x + j.grain
				if e > hi {
					e = hi
				}
				j.fn(x, e)
				count += e - x
			}
			return count
		}
	}
}

// participate drains the next free slot's range, then loops stealing
// from the others until no range holds work. The participant that
// retires the last index signals completion.
func (j *pfJob) participate() {
	s := j.nextSlot.Add(1) - 1
	total := 0
	if s < j.slots {
		total += j.drain(&j.ranges[s])
	}
	for {
		stole := 0
		for v := int32(0); v < j.slots; v++ {
			stole += j.steal(&j.ranges[(s+1+v)%j.slots])
		}
		total += stole
		if stole == 0 {
			break
		}
	}
	if total > 0 && j.executed.Add(int64(total)) == int64(j.n) {
		j.done <- struct{}{}
	}
}

// The persistent helper pool. Helpers block on jobCh; tokens are sent
// non-blocking (a full queue just means the caller and current thieves
// finish the job themselves).
var (
	poolMu      sync.Mutex
	poolHelpers atomic.Int32 // written under poolMu, read lock-free
	jobCh       = make(chan *pfJob, 64)
)

func ensureHelpers(n int) {
	if int32(n) <= poolHelpers.Load() {
		return
	}
	poolMu.Lock()
	for poolHelpers.Load() < int32(n) {
		poolHelpers.Add(1)
		go func() {
			for job := range jobCh {
				job.participate()
			}
		}()
	}
	poolMu.Unlock()
}

// ParallelFor runs fn over disjoint subranges covering [0, n). cost is
// the approximate number of scalar operations per index; the runtime
// uses it to size chunks (WithGrain) and to run small loops inline on
// the caller. fn must be safe to call concurrently on disjoint ranges
// and must not retain its arguments. ParallelFor returns when every
// index has been executed. Nested calls are safe: an inner call whose
// helpers are all busy (or blocked in inner calls of their own) is
// executed entirely by the goroutine that issued it.
//
// Results are independent of the worker count for any fn that writes
// only inside [lo, hi): the split changes which goroutine computes a
// range, never the per-index work.
func ParallelFor(n, cost int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	c := loadCfg()
	if cost < 1 {
		cost = 1
	}
	if c.workers <= 1 || n*cost < 2*c.grain {
		fn(0, n)
		return
	}
	grain := c.grain / cost
	if grain < 1 {
		grain = 1
	}
	slots := c.workers
	if slots > maxParticipants {
		slots = maxParticipants
	}
	if maxUseful := (n + grain - 1) / grain; slots > maxUseful {
		slots = maxUseful
	}
	if slots <= 1 {
		fn(0, n)
		return
	}
	job := &pfJob{fn: fn, n: n, grain: grain, slots: int32(slots), done: make(chan struct{}, 1)}
	per := n / slots
	rem := n % slots
	lo := 0
	for s := 0; s < slots; s++ {
		hi := lo + per
		if s < rem {
			hi++
		}
		job.ranges[s].bits.Store(packRange(lo, hi))
		lo = hi
	}
	ensureHelpers(slots - 1)
	for s := 1; s < slots; s++ {
		select {
		case jobCh <- job:
		default: // queue full: remaining slots get drained by thieves
		}
	}
	job.participate()
	<-job.done
}
