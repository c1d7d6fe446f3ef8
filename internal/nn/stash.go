package nn

import "repro/internal/tensor"

// Stasher lets one layer instance have several forward passes
// outstanding before their backward passes run — the execution shape of
// pipeline-parallel schedules (internal/pipeline). Every Layer is one:
// leaves through base, containers by recursing into their children.
//
// The contract is swap-based: Stash(slot) exchanges the between-pass
// state with slot's contents, so the swap is its own inverse. After a
// Forward, Stash(slot) parks the state that Forward wrote; before the
// matching Backward, Stash(slot) again brings it back. Swapping rather
// than copying means slice-backed state (dropout masks, input shapes,
// argmax scratch) rotates through at most slots+1 buffers and stops
// allocating once every slot has been warmed — the same
// steady-state-alloc-free property the workspace pool gives tensors.
// Tensor-valued state is a plain pointer swap: the tensors live in the
// stage's tensor.Workspace and stay valid until its next ReleaseAll,
// which pipeline steps only perform once all stashed micro-batches of the
// step are consumed.
//
// Stash with an out-of-range slot panics via the slice index; callers
// size the stash first with EnsureStash.
type Stasher interface {
	// EnsureStash grows the stash to hold at least slots micro-batches.
	// Existing slots are preserved; growing is cheap and idempotent.
	EnsureStash(slots int)
	// Stash swaps the between-pass state with slot's contents.
	Stash(slot int)
	// Unstash is Stash.
	//
	// Deprecated: the swap is its own inverse; call Stash. Unstash stays
	// only for layer wrappers outside this package that still forward it.
	Unstash(slot int)
}

// base is what every leaf layer embeds: ws, the workspace its
// temporaries are borrowed from, and saved, what the last training
// Forward leaves for Backward, in the layer's own state type T. Per-call
// scratch and links to neighbouring layers are not between-pass state and
// stay outside saved.
type base[T any] struct {
	ws    *tensor.Workspace
	saved T
	slots []T // parked saved values, one per outstanding micro-batch
}

// SetWorkspace routes the layer's temporaries through ws.
func (b *base[T]) SetWorkspace(ws *tensor.Workspace) { b.ws = ws }

// EnsureStash implements Stasher.
func (b *base[T]) EnsureStash(slots int) {
	if n := slots - len(b.slots); n > 0 {
		b.slots = append(b.slots, make([]T, n)...)
	}
}

// Stash implements Stasher.
func (b *base[T]) Stash(slot int) { b.saved, b.slots[slot] = b.slots[slot], b.saved }

// Unstash implements Stasher.
func (b *base[T]) Unstash(slot int) { b.Stash(slot) }

// Residual keeps no state of its own (the join's gate is its ReLU's
// saved output), so stashing recurses into the ReLU and both
// sub-sequentials.

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

// EnsureStash implements Stasher.
func (s *Sequential) EnsureStash(slots int) {
	for _, l := range s.Layers {
		l.EnsureStash(slots)
	}
}

// Stash implements Stasher.
func (s *Sequential) Stash(slot int) {
	for _, l := range s.Layers {
		l.Stash(slot)
	}
}

// Unstash implements Stasher.
func (s *Sequential) Unstash(slot int) { s.Stash(slot) }

// TimeDistributed keeps no state of its own: Backward reads (N, T) off
// the gradient.

// EnsureStash implements Stasher.
func (td *TimeDistributed) EnsureStash(slots int) { td.Inner.EnsureStash(slots) }

// Stash implements Stasher.
func (td *TimeDistributed) Stash(slot int) { td.Inner.Stash(slot) }

// Unstash implements Stasher.
func (td *TimeDistributed) Unstash(slot int) { td.Stash(slot) }

// Conv1D keeps no state of its own: its layout conversions read their
// shapes off their inputs.

// EnsureStash implements Stasher.
func (c *Conv1D) EnsureStash(slots int) { c.conv.EnsureStash(slots) }

// Stash implements Stasher.
func (c *Conv1D) Stash(slot int) { c.conv.Stash(slot) }

// Unstash implements Stasher.
func (c *Conv1D) Unstash(slot int) { c.Stash(slot) }

// EnsureStash implements Stasher.
func (a *Autoencoder) EnsureStash(slots int) {
	a.Encoder.EnsureStash(slots)
	a.Decoder.EnsureStash(slots)
}

// Stash implements Stasher.
func (a *Autoencoder) Stash(slot int) {
	a.Encoder.Stash(slot)
	a.Decoder.Stash(slot)
}

// Unstash implements Stasher.
func (a *Autoencoder) Unstash(slot int) { a.Stash(slot) }
