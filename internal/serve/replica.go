package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Backend executes one inference batch: input (B, dims...), output
// (B, classes) scores or probabilities. A backend is never used by more
// than one batch at a time by the server; implementations shared outside
// a server must synchronize themselves.
type Backend interface {
	Infer(batch *tensor.Tensor) (*tensor.Tensor, error)
}

// replica is one pool slot: a backend plus its health and utilization
// accounting.
type replica struct {
	id       int
	backend  Backend
	busyNs   atomic.Int64
	batches  atomic.Int64
	samples  atomic.Int64
	failures atomic.Int64
}

// pool hands exclusive replica ownership to dispatch workers. Failed
// replicas are quarantined for failureCooldown, then rejoin — graceful
// degradation rather than permanent capacity loss (a restarted serving
// process on an MSA node comes back).
type pool struct {
	free chan *replica
	all  []*replica
}

func newPool(backends []Backend) *pool {
	p := &pool{
		free: make(chan *replica, len(backends)),
		all:  make([]*replica, len(backends)),
	}
	for i, b := range backends {
		r := &replica{id: i, backend: b}
		p.all[i] = r
		p.free <- r
	}
	return p
}

// acquire blocks until a healthy replica is available. Quarantined
// replicas always rejoin after failureCooldown, so acquire cannot starve
// forever.
func (p *pool) acquire() *replica { return <-p.free }

func (p *pool) release(r *replica) { p.free <- r }

// quarantine keeps a failed replica out of the pool for failureCooldown.
func (p *pool) quarantine(r *replica) {
	time.AfterFunc(failureCooldown, func() { p.free <- r })
}

// ModelBackend serves a real nn.Sequential. Layers cache activations
// during Forward, so the model belongs to one inference at a time; the
// mutex makes direct (non-server) concurrent use safe too.
//
// The backend owns a tensor workspace threaded through the model, so
// steady-state inference reuses the same activation buffers batch after
// batch. Consequently the returned tensor is only valid until the next
// Infer call on this backend — callers must copy what they keep (the
// server copies per-request probabilities out before releasing the
// replica).
type ModelBackend struct {
	mu    sync.Mutex
	model *nn.Sequential
	act   nn.Activation
	ws    *tensor.Workspace
}

// NewModelBackend wraps a model whose logits are mapped to probabilities
// with act (sigmoid for multi-label heads, softmax for single-label).
func NewModelBackend(m *nn.Sequential, act nn.Activation) *ModelBackend {
	ws := tensor.NewWorkspace()
	m.SetWorkspace(ws)
	return &ModelBackend{model: m, act: act, ws: ws}
}

// Infer runs the forward pass in inference mode and applies the
// activation. The result aliases pooled workspace memory recycled by the
// next Infer.
func (b *ModelBackend) Infer(batch *tensor.Tensor) (*tensor.Tensor, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ws.ReleaseAll()
	return nn.Activate(b.ws, b.model.Forward(batch, false), b.act), nil
}

// ModeledBackend wraps a backend with the modeled MSA service time of the
// hosting module (placement.go): a fixed per-batch dispatch overhead plus
// a per-sample cost. It is how the placement experiment makes a laptop
// behave like a CM, ESB, or DAM replica — the real (small) forward pass
// still runs, the sleep adds the modeled hardware differential.
type ModeledBackend struct {
	Inner     Backend
	Overhead  time.Duration // per-batch dispatch cost
	PerSample time.Duration // per-sample service cost on this hardware
}

// Infer sleeps the modeled service time, then delegates.
func (b *ModeledBackend) Infer(batch *tensor.Tensor) (*tensor.Tensor, error) {
	time.Sleep(b.Overhead + time.Duration(batch.Dim(0))*b.PerSample)
	return b.Inner.Infer(batch)
}
