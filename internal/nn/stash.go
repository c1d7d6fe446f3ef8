package nn

import "repro/internal/tensor"

// Stasher is implemented by layers whose between-pass activation caches
// can be parked per micro-batch, so one layer instance can have several
// forward passes outstanding before their backward passes run — the
// execution shape of pipeline-parallel schedules (internal/pipeline).
//
// The contract is swap-based: Stash(slot) exchanges the working cache
// with slot's contents, so the swap is its own inverse. After a Forward,
// Stash(slot) parks the cache that Forward wrote; before the matching
// Backward, Stash(slot) again brings it back into the working fields.
// Swapping rather than copying means slice-backed caches (dropout masks,
// input shapes, argmax scratch) rotate through at most slots+1 buffers
// and stop allocating once every slot has been warmed —
// the same steady-state-alloc-free property the workspace pool gives
// tensors. Tensor-valued caches are plain pointer swaps: the tensors
// live in the stage's tensor.Workspace and stay valid until its next
// ReleaseAll, which pipeline steps only perform once all stashed
// micro-batches of the step are consumed.
//
// Stash with an out-of-range slot panics via the slice index; callers
// size the stash first with EnsureStash.
type Stasher interface {
	// EnsureStash grows the stash to hold at least slots micro-batches.
	// Existing slots are preserved; growing is cheap and idempotent.
	EnsureStash(slots int)
	// Stash swaps the working activation cache with slot's contents.
	Stash(slot int)
	// Unstash is Stash.
	//
	// Deprecated: the swap is its own inverse; call Stash. Unstash stays
	// only for layer wrappers outside this package that still forward it.
	Unstash(slot int)
}

// StashUnsupported walks the model (recursing through Sequential and
// Residual) and returns the first layer that cannot stash per-micro-batch
// state, or nil when the whole model is pipeline-safe. Partition-time
// validation in internal/pipeline calls this so unsupported layers (the
// recurrent stack: GRU, GRUD, TimeDistributed) fail fast with a clear
// error instead of corrupting caches mid-schedule.
func StashUnsupported(l Layer) Layer {
	switch v := l.(type) {
	case *Sequential:
		for _, sub := range v.Layers {
			if bad := StashUnsupported(sub); bad != nil {
				return bad
			}
		}
		return nil
	case *Residual:
		if bad := StashUnsupported(v.Main); bad != nil {
			return bad
		}
		if v.Shortcut != nil {
			if bad := StashUnsupported(v.Shortcut); bad != nil {
				return bad
			}
		}
		return nil
	case Stasher:
		return nil
	default:
		return l
	}
}

// ensureLen grows s to n elements, preserving existing contents.
func ensureLen[T any](s []T, n int) []T {
	for len(s) < n {
		var zero T
		s = append(s, zero)
	}
	return s
}

// --- Dense: caches the forward input x ---

// EnsureStash implements Stasher.
func (d *Dense) EnsureStash(slots int) { d.stash = ensureLen(d.stash, slots) }

// Stash implements Stasher.
func (d *Dense) Stash(slot int) { d.stash[slot], d.x = d.x, d.stash[slot] }

// Unstash implements Stasher.
func (d *Dense) Unstash(slot int) { d.Stash(slot) }

// --- ReLU: caches the forward output, whose sign gates Backward ---

// EnsureStash implements Stasher.
func (r *ReLU) EnsureStash(slots int) { r.stash = ensureLen(r.stash, slots) }

// Stash implements Stasher.
func (r *ReLU) Stash(slot int) { r.stash[slot], r.out = r.out, r.stash[slot] }

// Unstash implements Stasher.
func (r *ReLU) Unstash(slot int) { r.Stash(slot) }

// --- Sigmoid / Tanh: cache the forward output ---

// EnsureStash implements Stasher.
func (s *Sigmoid) EnsureStash(slots int) { s.stash = ensureLen(s.stash, slots) }

// Stash implements Stasher.
func (s *Sigmoid) Stash(slot int) { s.stash[slot], s.out = s.out, s.stash[slot] }

// Unstash implements Stasher.
func (s *Sigmoid) Unstash(slot int) { s.Stash(slot) }

// EnsureStash implements Stasher.
func (t *Tanh) EnsureStash(slots int) { t.stash = ensureLen(t.stash, slots) }

// Stash implements Stasher.
func (t *Tanh) Stash(slot int) { t.stash[slot], t.out = t.out, t.stash[slot] }

// Unstash implements Stasher.
func (t *Tanh) Unstash(slot int) { t.Stash(slot) }

// --- Dropout: caches the sampled mask (nil in eval mode) ---

type dropoutStash struct{ mask []float64 }

// EnsureStash implements Stasher.
func (d *Dropout) EnsureStash(slots int) { d.stash = ensureLen(d.stash, slots) }

// Stash implements Stasher.
func (d *Dropout) Stash(slot int) { d.stash[slot].mask, d.mask = d.mask, d.stash[slot].mask }

// Unstash implements Stasher.
func (d *Dropout) Unstash(slot int) { d.Stash(slot) }

// --- Flatten: caches the input shape ---

// EnsureStash implements Stasher.
func (f *Flatten) EnsureStash(slots int) { f.stash = ensureLen(f.stash, slots) }

// Stash implements Stasher.
func (f *Flatten) Stash(slot int) { f.stash[slot], f.inShape = f.inShape, f.stash[slot] }

// Unstash implements Stasher.
func (f *Flatten) Unstash(slot int) { f.Stash(slot) }

// --- Conv2D: caches the forward input x ---

// EnsureStash implements Stasher.
func (c *Conv2D) EnsureStash(slots int) { c.stash = ensureLen(c.stash, slots) }

// Stash implements Stasher.
func (c *Conv2D) Stash(slot int) { c.stash[slot], c.x = c.x, c.stash[slot] }

// Unstash implements Stasher.
func (c *Conv2D) Unstash(slot int) { c.Stash(slot) }

// --- MaxPool: caches argmax positions and the input shape ---

type maxPoolStash struct {
	arg     []int
	inShape []int
}

// EnsureStash implements Stasher.
func (m *MaxPool) EnsureStash(slots int) { m.stash = ensureLen(m.stash, slots) }

// Stash implements Stasher.
func (m *MaxPool) Stash(slot int) {
	s := &m.stash[slot]
	s.arg, m.arg = m.arg, s.arg
	s.inShape, m.inShape = m.inShape, s.inShape
}

// Unstash implements Stasher.
func (m *MaxPool) Unstash(slot int) { m.Stash(slot) }

// --- GlobalAvgPool2D: caches the spatial dimensions ---

// EnsureStash implements Stasher.
func (g *GlobalAvgPool2D) EnsureStash(slots int) { g.stash = ensureLen(g.stash, slots) }

// Stash implements Stasher.
func (g *GlobalAvgPool2D) Stash(slot int) {
	s := &g.stash[slot]
	s[0], g.h = g.h, s[0]
	s[1], g.w = g.w, s[1]
}

// Unstash implements Stasher.
func (g *GlobalAvgPool2D) Unstash(slot int) { g.Stash(slot) }

// --- BatchNorm2D: caches xhat, invStd and the input shape. meanBuf and
// varBuf are scratch within one call and need no stashing; running
// statistics are parameters of the step, not per-micro-batch state. ---

type bnStash struct {
	xhat    *tensor.Tensor
	invStd  []float64
	inShape []int
}

// EnsureStash implements Stasher.
func (b *BatchNorm2D) EnsureStash(slots int) { b.stash = ensureLen(b.stash, slots) }

// Stash implements Stasher.
func (b *BatchNorm2D) Stash(slot int) {
	s := &b.stash[slot]
	s.xhat, b.xhat = b.xhat, s.xhat
	s.invStd, b.invStd = b.invStd, s.invStd
	s.inShape, b.inShape = b.inShape, s.inShape
}

// Unstash implements Stasher.
func (b *BatchNorm2D) Unstash(slot int) { b.Stash(slot) }

// --- Residual: keeps no cache of its own (the join's gate is its ReLU's
// output pointer), so stashing recurses into the ReLU and both
// sub-sequentials. ---

// EnsureStash implements Stasher.
func (r *Residual) EnsureStash(slots int) {
	r.relu.EnsureStash(slots)
	r.Main.EnsureStash(slots)
	if r.Shortcut != nil {
		r.Shortcut.EnsureStash(slots)
	}
}

// Stash implements Stasher.
func (r *Residual) Stash(slot int) {
	r.relu.Stash(slot)
	r.Main.Stash(slot)
	if r.Shortcut != nil {
		r.Shortcut.Stash(slot)
	}
}

// Unstash implements Stasher.
func (r *Residual) Unstash(slot int) { r.Stash(slot) }

// --- Sequential: recurses into every stashable layer. Callers validate
// the model with StashUnsupported first; layers without stash support are
// skipped here so partially-supported models fail loudly at validation,
// not silently at swap time. ---

// EnsureStash implements Stasher.
func (s *Sequential) EnsureStash(slots int) {
	for _, l := range s.Layers {
		if st, ok := l.(Stasher); ok {
			st.EnsureStash(slots)
		}
	}
}

// Stash implements Stasher.
func (s *Sequential) Stash(slot int) {
	for _, l := range s.Layers {
		if st, ok := l.(Stasher); ok {
			st.Stash(slot)
		}
	}
}

// Unstash implements Stasher.
func (s *Sequential) Unstash(slot int) { s.Stash(slot) }
