package main

import (
	"sync"
	"time"

	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// Wrappers that time the calls into each module's public surface from the
// benchmark's side. They are installed only in the traced run; the untraced
// run executes the bare program. fidelity_test.go pins that a run with the
// wrappers installed computes bitwise the same losses and touches the
// workspace pool exactly as often as a run without them.

// ---- nn.Layer ----

// tracedLayer brackets one layer's Forward and Backward with spans and
// forwards the optional layer interfaces (workspace, stash, state) the
// program discovers by type assertion.
type tracedLayer struct {
	inner nn.Layer
	tr    *track
	fwd   string // span names: nn.fwd.<kind>, nn.bwd.<kind>
	bwd   string
	// calls, flops and shape describe the forward calls seen, for the
	// per-step FLOP count and the kernel probes that replay the shape.
	calls int64
	flops int64
	shape []int
}

var (
	_ nn.Layer           = (*tracedLayer)(nil)
	_ nn.WorkspaceSetter = (*tracedLayer)(nil)
	_ nn.Stasher         = (*tracedLayer)(nil)
	_ nn.Stateful        = (*tracedLayer)(nil)
)

// layerKind names the per-layer metric a layer's self time is charged to.
func layerKind(l nn.Layer) string {
	switch l.(type) {
	case *nn.Conv2D, *nn.Conv1D:
		return "conv"
	case *nn.BatchNorm2D:
		return "bn"
	case *nn.Dense, *nn.TimeDistributed:
		return "dense"
	case *nn.GRU:
		return "gru"
	default:
		// ReLU, pooling, dropout, flatten, and a Residual's own add+ReLU
		// (its convolutions and norms are wrapped one level down).
		return "act_pool"
	}
}

// wrapModel replaces every layer of m, and of the Residual blocks inside
// it, with a traced wrapper, and returns the wrappers. It must run before
// the model is handed to a trainer or backend, so that SetWorkspace and the
// pipeline partition see the wrapped layers.
func wrapModel(m *nn.Sequential, tr *track) []*tracedLayer {
	var all []*tracedLayer
	for i, l := range m.Layers {
		if r, ok := l.(*nn.Residual); ok {
			all = append(all, wrapModel(r.Main, tr)...)
			if r.Shortcut != nil {
				all = append(all, wrapModel(r.Shortcut, tr)...)
			}
		}
		k := layerKind(l)
		w := &tracedLayer{inner: l, tr: tr, fwd: "nn.fwd." + k, bwd: "nn.bwd." + k}
		m.Layers[i] = w
		all = append(all, w)
	}
	return all
}

func (l *tracedLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.note(x)
	id := l.tr.begin(l.fwd, 0)
	out := l.inner.Forward(x, train)
	l.tr.end(id)
	return out
}

func (l *tracedLayer) Backward(dout *tensor.Tensor) *tensor.Tensor {
	id := l.tr.begin(l.bwd, 0)
	out := l.inner.Backward(dout)
	l.tr.end(id)
	return out
}

func (l *tracedLayer) Params() []*nn.Param { return l.inner.Params() }

func (l *tracedLayer) SetWorkspace(ws *tensor.Workspace) {
	if s, ok := l.inner.(nn.WorkspaceSetter); ok {
		s.SetWorkspace(ws)
	}
}

func (l *tracedLayer) EnsureStash(slots int) {
	if s, ok := l.inner.(nn.Stasher); ok {
		s.EnsureStash(slots)
	}
}

func (l *tracedLayer) Stash(slot int) {
	if s, ok := l.inner.(nn.Stasher); ok {
		s.Stash(slot)
	}
}

func (l *tracedLayer) Unstash(slot int) {
	if s, ok := l.inner.(nn.Stasher); ok {
		s.Unstash(slot)
	}
}

func (l *tracedLayer) States() []*tensor.Tensor {
	if s, ok := l.inner.(nn.Stateful); ok {
		return s.States()
	}
	return nil
}

// note records the forward input shape and the multiply-add work the
// layer's kernels do for it (2 flops per multiply-add, forward only).
func (l *tracedLayer) note(x *tensor.Tensor) {
	l.calls++
	sh := x.Shape()
	if len(l.shape) != len(sh) {
		l.shape = make([]int, len(sh))
	}
	copy(l.shape, sh)
	switch v := l.inner.(type) {
	case *nn.Conv2D:
		if len(sh) == 4 {
			oh := tensor.ConvDims(sh[2], v.KH, v.Stride, v.PadH)
			ow := tensor.ConvDims(sh[3], v.KW, v.Stride, v.PadW)
			l.flops += 2 * int64(sh[0]*oh*ow) * int64(v.InC*v.KH*v.KW) * int64(v.OutC)
		}
	case *nn.Dense:
		in, out := v.W.Value.Dim(0), v.W.Value.Dim(1)
		l.flops += 2 * int64(x.Size()/in) * int64(in) * int64(out)
	case *nn.TimeDistributed:
		if d, ok := v.Inner.(*nn.Dense); ok {
			in, out := d.W.Value.Dim(0), d.W.Value.Dim(1)
			l.flops += 2 * int64(x.Size()/in) * int64(in) * int64(out)
		}
	case *nn.GRU:
		if len(sh) == 3 {
			l.flops += 2 * 3 * int64(sh[0]*sh[1]) * int64(v.D+v.H) * int64(v.H)
		}
	}
}

// ---- nn.Optimizer ----

// tracedOpt times Optimizer.Step. It stays a StatefulOptimizer because
// Trainer.Checkpoint type-asserts for it.
type tracedOpt struct {
	nn.StatefulOptimizer
	tr *track
}

func (o *tracedOpt) Step(params []*nn.Param, lr float64) {
	id := o.tr.begin("nn.optimizer", 0)
	o.StatefulOptimizer.Step(params, lr)
	o.tr.end(id)
}

// ---- mpi.Communicator ----

// tracedComm times the collectives distdl.Trainer.Step makes on one rank.
// The other Communicator methods are not on the step path (parameter
// broadcast at construction, ParamsInSync at the end) and pass through
// untimed.
type tracedComm struct {
	mpi.Communicator
	tr *track
}

func bytesOf(data []float64) int64 { return int64(len(data)) * 8 }

func (c *tracedComm) AllreduceMeanInPlace(data []float64, algo mpi.Algo) {
	id := c.tr.begin("mpi.allreduce", bytesOf(data))
	c.Communicator.AllreduceMeanInPlace(data, algo)
	c.tr.end(id)
}

func (c *tracedComm) AllreduceInPlace(data []float64, op mpi.ReduceOp, algo mpi.Algo) {
	id := c.tr.begin("mpi.allreduce", bytesOf(data))
	c.Communicator.AllreduceInPlace(data, op, algo)
	c.tr.end(id)
}

func (c *tracedComm) AllreduceScalar(v float64, op mpi.ReduceOp) float64 {
	id := c.tr.begin("mpi.allreduce_scalar", 8)
	out := c.Communicator.AllreduceScalar(v, op)
	c.tr.end(id)
	return out
}

// ---- serve.Backend ----

// backendStats is what the traced backends of one workload recorded.
type backendStats struct {
	mu      sync.Mutex
	batches int64
	rows    int64
	busy    time.Duration
	// perBatch and perRows keep each call's duration and batch size for
	// the per-batch median and the sample-weighted mean.
	perBatch []float64 // ms
	perRows  []int
}

// tracedBackend times Infer on one replica and records the batch size the
// server coalesced. One backend serves one batch at a time (the server's
// contract), so the track sees properly nested spans.
type tracedBackend struct {
	inner serve.Backend
	tr    *track
	st    *backendStats
}

func (b *tracedBackend) Infer(batch *tensor.Tensor) (*tensor.Tensor, error) {
	rows := batch.Dim(0)
	t0 := time.Now()
	id := b.tr.begin("serve.infer", int64(rows))
	out, err := b.inner.Infer(batch)
	b.tr.end(id)
	d := time.Since(t0)
	b.st.mu.Lock()
	b.st.batches++
	b.st.rows += int64(rows)
	b.st.busy += d
	b.st.perBatch = append(b.st.perBatch, ms(d))
	b.st.perRows = append(b.st.perRows, rows)
	b.st.mu.Unlock()
	return out, err
}
