package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The shared kernel runtime: one persistent helper pool that every
// parallel kernel dispatches through, configured in one place (Configure).
//
//   - Self-scheduling: Jobs.For cuts [0,n) into grain-sized chunks that
//     participants claim with an atomic add on one counter. The caller
//     participates and can claim every chunk itself, so it never waits on
//     a helper that has not started (nested calls and a busy pool degrade
//     to inline execution); it waits only for chunks being executed.
//   - Tokens go only to idle helpers, so none pile up behind busy ones.
//   - Pooled descriptors: a job comes from a free list typed by its
//     argument type, with a wake channel made once per descriptor and sent
//     on once per use by whoever retires the last index. A refcount (the
//     caller plus each queued token) recycles it when the last holder
//     drops it: a late token never sees a reused descriptor, and the
//     caller never waits on queued tokens.
//   - Arguments by value: operands travel as a struct copied into the
//     descriptor and the body is a top-level function, so no closure is
//     built and a parallel call allocates nothing.
//   - Grain counts approximate scalar operations (callers pass a per-index
//     cost); work under two grains runs inline.

// config holds the kernel-runtime settings published by Configure. It is
// read via an atomic pointer so kernels pay one load, never a lock.
type config struct {
	workers int // max participants per parallel region
	grain   int // approx scalar ops per claimed chunk (and half the serial threshold)
}

var cfgPtr atomic.Pointer[config]

func init() {
	cfgPtr.Store(&config{workers: runtime.GOMAXPROCS(0), grain: 16384})
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
	return func(c *config) { c.workers = max(n, 1) }
}

// WithGrain sets the scheduling grain in approximate scalar operations
// per claimed chunk. Work smaller than ~2 grains runs inline on the
// caller. Values below 1024 are clamped.
func WithGrain(n int) Option {
	return func(c *config) { c.grain = max(n, 1024) }
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

// Jobs is the parallel-for of the runtime for one argument type A: a free
// list of job descriptors. The zero value is ready to use; a package
// declares one Jobs variable per argument type and shares it between
// call sites and goroutines.
type Jobs[A any] struct {
	mu   sync.Mutex
	free *job[A]
}

type job[A any] struct {
	owner    *Jobs[A]
	link     *job[A] // next free descriptor
	args     A
	fn       func(A, int, int)
	n, grain int
	next     atomic.Int64  // start of the next unclaimed chunk
	pending  atomic.Int64  // indices not yet executed
	refs     atomic.Int32  // the caller plus queued tokens
	wake     chan struct{} // capacity 1: the last index is done
}

// For runs fn(args, lo, hi) over disjoint subranges covering [0, n) and
// returns when every index has been executed. cost is the approximate
// number of scalar operations per index; the runtime uses it to size
// chunks (WithGrain) and to run small loops inline as one fn(args, 0, n).
// fn must be safe to call concurrently on disjoint ranges and must not
// retain args. Nested calls are safe.
//
// Results are independent of the worker count for any fn that writes
// only inside [lo, hi): the split changes which goroutine computes an
// index, never the per-index work.
func (p *Jobs[A]) For(n, cost int, args A, fn func(args A, lo, hi int)) {
	if n <= 0 {
		return
	}
	c := loadCfg()
	cost = max(cost, 1)
	grain := max(c.grain/cost, 1)
	helpers := min(c.workers-1, (n+grain-1)/grain-1, cap(tasks))
	if helpers < 1 || n*cost < 2*c.grain {
		fn(args, 0, n)
		return
	}
	j := p.get()
	j.args, j.fn, j.n, j.grain = args, fn, n, grain
	j.next.Store(0)
	j.pending.Store(int64(n))
	j.refs.Store(1)
	ensureHelpers(helpers)
	// A token per idle helper claimed; sends never block (one per helper).
	for n := idle.Load(); helpers > 0 && n > 0; n = idle.Load() {
		if idle.CompareAndSwap(n, n-1) {
			helpers--
			j.refs.Add(1)
			tasks <- j
		}
	}
	j.run()
	<-j.wake
	j.release()
}

func (p *Jobs[A]) get() *job[A] {
	p.mu.Lock()
	defer p.mu.Unlock()
	if j := p.free; j != nil {
		p.free = j.link
		return j
	}
	return &job[A]{owner: p, wake: make(chan struct{}, 1)}
}

// run claims and executes chunks until none is left; the participant
// that retires the last index wakes the caller.
func (j *job[A]) run() {
	done := 0
	for {
		lo := int(j.next.Add(int64(j.grain))) - j.grain
		if lo >= j.n {
			break
		}
		hi := min(lo+j.grain, j.n)
		j.fn(j.args, lo, hi)
		done += hi - lo
	}
	if done > 0 && j.pending.Add(int64(-done)) == 0 {
		j.wake <- struct{}{}
	}
}

// release drops one reference; the last one clears the descriptor (so it
// pins none of the caller's memory) and returns it to the free list.
func (j *job[A]) release() {
	if j.refs.Add(-1) != 0 {
		return
	}
	j.args, j.fn = *new(A), nil
	p := j.owner
	p.mu.Lock()
	j.link, p.free = p.free, j
	p.mu.Unlock()
}

// task is a queued token: a job of any argument type.
type task interface {
	run()
	release()
}

// The helper pool: spawned lazily, shared by every caller (the goroutine
// ranks of an mpi.World), at most cap(tasks) goroutines.
var (
	poolMu      sync.Mutex
	poolHelpers atomic.Int32 // written under poolMu, read lock-free
	idle        atomic.Int32 // helpers not holding a token
	tasks       = make(chan task, 64)
)

func ensureHelpers(n int) {
	if int32(n) <= poolHelpers.Load() {
		return
	}
	poolMu.Lock()
	for ; poolHelpers.Load() < int32(n); poolHelpers.Add(1) {
		idle.Add(1)
		go helper()
	}
	poolMu.Unlock()
}

// helper is one pool goroutine, taking its share of each job it is handed.
func helper() {
	for t := range tasks {
		t.run()
		idle.Add(1)
		t.release()
	}
}
