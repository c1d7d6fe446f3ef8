package pipeline

import (
	"fmt"
	"time"

	"repro/internal/nn"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Peer is the point-to-point transport a pipeline runs over: any
// mpi.Communicator — the world communicator or, in 2D data×pipeline
// grids, the pipeline-axis group split off it. Send must be buffered
// (never block), and RecvInto must match messages by (source, tag) with
// FIFO order per pair — the mpi package's contract. Every receive names
// its source: the stage's plan says which rank produces each input.
type Peer interface {
	Rank() int
	Size() int
	Send(dst, tag int, data []float64)
	RecvInto(src, tag int, buf []float64) int
}

// Wire protocol: every logical transfer to chunk c is a fixed-size shape
// header followed by the payload, each on its own tag of the (kind, c)
// stream (see tag), and both from the rank that owns the producing chunk.
// A stage knows from its plan which stream and producer feed its next
// task, so it posts exactly those two receives. Each stream carries its
// micros in strict order, so mailbox FIFO per (source, tag) makes a
// stream's n-th message micro n.
const (
	kindF = 0 // payload is an activation entering chunk c's forward
	kindB = 1 // payload is an activation-gradient entering chunk c's backward
	// kindHdr + kind is the stream of shape headers ahead of kind's payloads.
	kindHdr  = 2
	kindSync = 4 // chunk c's parameter values (SyncFullModel)
)

// DefaultBaseTag anchors the pipeline tag block high in the user tag
// space, clear of the small constants tests use. The block holds the step
// loss at DefaultBaseTag itself and one C-wide run of tags per stream
// kind above it.
const DefaultBaseTag = 1 << 19

// tag is the wire tag of stream kind for chunk c in a pipeline of C
// chunks. Payload tags are what traced receives carry, so EmitPlannedTrace
// stamps its planned messages with the same function.
func tag(C, kind, c int) int { return DefaultBaseTag + 1 + kind*C + c }

const hdrLen = 7 // micro, payloadLen, ndims, up to 4 dims

// Config parameterizes a Stage.
type Config struct {
	// MicroBatches is M, the number of micro-batches a Step splits its
	// minibatch into. Must be ≥ 1; bubble fraction falls as M grows.
	MicroBatches int
	// Schedule picks GPipe or interleaved 1F1B.
	Schedule Schedule
	// VirtualChunks is v, the model chunks per rank (interleaving depth).
	// 0 picks the schedule's default: 1 for GPipe, 2 for OneFOneB.
	VirtualChunks int
	// Tracer, when set, records per-task compute spans and recv-wait spans.
	Tracer *telemetry.Tracer
}

// chunkState is one model chunk's runtime state. All C chunks exist on
// every rank (partitioning is deterministic and the full model is built
// everywhere, which makes SyncFullModel and rank-0 evaluation possible);
// only local chunks ever run compute.
type chunkState struct {
	seq   *nn.Sequential
	local bool
	// values is the chunk's span of the model's parameter arena.
	values []float64
	// Per-step progress. Forwards and backwards of a chunk each run in
	// strict micro order: the only candidate micro is fwdDone (resp.
	// bwdDone), so gradient accumulation order is deterministic.
	fwdDone, bwdDone int
	// Inputs per micro that did not cross the wire: the micro-batches
	// (chunk 0's forwards), the loss gradients (the last chunk's
	// backwards) and, on a single-rank pipeline, every handoff.
	inF, inB []*tensor.Tensor
}

// Stage is one rank's pipeline executor. It is owned by that rank's
// goroutine, like the Comm it wraps.
type Stage struct {
	peer  Peer
	model *nn.Sequential
	loss  nn.Loss
	cfg   Config

	rank, S, C, M int
	chunks        []*chunkState
	locals        []int // indices of local chunks, ascending
	ws            *tensor.Workspace

	hdr          []float64
	lossBuf      []float64
	shapeScratch [hdrLen - 3]int
	microRows    []int
	xs, ys       []*tensor.Tensor

	// order is this rank's planned task sequence (see PlanSchedule).
	// Executing a fixed plan keeps the realized schedule — and therefore
	// the bubble structure — identical on any host, instead of drifting
	// with goroutine timing.
	order []Task

	steps              int
	busyNS             int64
	firstTask, lastEnd int64
	bubble             float64
}

// New builds this rank's stage over peer. Every rank passes the full
// (identically initialized) model; the stage binds its parameter arena,
// partitions it into Size()×VirtualChunks chunks and claims chunks c with
// c mod Size() == Rank(). The model must already produce identical
// parameters on every rank (same seed, or a prior broadcast — distdl.New
// does the latter).
func New(peer Peer, model *nn.Sequential, loss nn.Loss, cfg Config) (*Stage, error) {
	S := peer.Size()
	if cfg.MicroBatches < 1 {
		return nil, fmt.Errorf("pipeline: MicroBatches must be ≥ 1, got %d", cfg.MicroBatches)
	}
	v := virtualChunks(cfg.Schedule, cfg.VirtualChunks)
	if v < 1 {
		return nil, fmt.Errorf("pipeline: VirtualChunks must be ≥ 1, got %d", cfg.VirtualChunks)
	}
	cfg.VirtualChunks = v
	C := S * v
	parts, err := Partition(model, C)
	if err != nil {
		return nil, err
	}
	st := &Stage{
		peer: peer, model: model, loss: loss, cfg: cfg,
		rank: peer.Rank(), S: S, C: C, M: cfg.MicroBatches,
		ws:  tensor.NewWorkspace(),
		hdr: make([]float64, hdrLen), lossBuf: make([]float64, 1),
	}
	model.SetWorkspace(st.ws)
	model.BindArena()
	for c, seq := range parts {
		cs := &chunkState{
			seq:   seq,
			local: c%S == st.rank,
			inF:   make([]*tensor.Tensor, st.M),
			inB:   make([]*tensor.Tensor, st.M),
		}
		cs.values, _ = model.Span(seq.Params())
		if cs.local {
			seq.EnsureStash(st.M)
			st.locals = append(st.locals, c)
		}
		st.chunks = append(st.chunks, cs)
	}
	st.order = PlanSchedule(S, v, cfg.MicroBatches, cfg.Schedule, 1, 2)[st.rank]
	return st, nil
}

// Workspace returns the stage's tensor pool; alloc gates watch its
// pool-miss counter across steady-state steps.
func (st *Stage) Workspace() *tensor.Workspace { return st.ws }

// Model returns the full model this stage was built from.
func (st *Stage) Model() *nn.Sequential { return st.model }

// LocalChunks returns the chunk indices owned by this rank, ascending.
func (st *Stage) LocalChunks() []int { return st.locals }

// ChunkParams returns chunk c's parameter list.
func (st *Stage) ChunkParams(c int) []*nn.Param { return st.chunks[c].seq.Params() }

// Step runs one pipeline-parallel optimizer step's forward/backward over
// the minibatch, leaving accumulated gradients on the local chunks'
// parameters (the caller owns zeroing, averaging, and the optimizer
// update). x is consumed on the first stage, y on the last; every rank
// receives both (in 2D grids each pipeline group shares one replica
// batch) and returns the same minibatch mean loss.
func (st *Stage) Step(x, y *tensor.Tensor) float64 {
	trStep := st.cfg.Tracer.Start()
	st.ws.ReleaseAll()
	st.resetStep()
	st.splitMicros(x, y)

	// Seed the pipeline: chunk 0's forward inputs are the micro-batches.
	if st.chunks[0].local {
		copy(st.chunks[0].inF, st.xs)
	}

	lossTotal := 0.0
	st.firstTask, st.lastEnd, st.busyNS = 0, 0, 0
	for _, tk := range st.order {
		lossTotal += st.run(tk)
	}

	// The last stage owns the scalar loss; share it so every rank's Step
	// returns the same value.
	last := (st.C - 1) % st.S
	if st.rank == last {
		st.lossBuf[0] = lossTotal
		for r := 0; r < st.S; r++ {
			if r != st.rank {
				st.peer.Send(r, DefaultBaseTag, st.lossBuf)
			}
		}
	} else {
		st.peer.RecvInto(last, DefaultBaseTag, st.lossBuf)
		lossTotal = st.lossBuf[0]
	}

	if st.lastEnd > st.firstTask {
		st.bubble = 1 - float64(st.busyNS)/float64(st.lastEnd-st.firstTask)
	}
	st.cfg.Tracer.End(st.rank, telemetry.CatStep, "pipe.step", trStep, 0, st.cfg.Schedule.String())
	st.steps++
	return lossTotal
}

func (st *Stage) resetStep() {
	for _, cs := range st.chunks {
		cs.fwdDone, cs.bwdDone = 0, 0
		for m := 0; m < st.M; m++ {
			cs.inF[m], cs.inB[m] = nil, nil
		}
	}
}

// splitMicros cuts x (and y) into M micro-batches along axis 0, larger
// micros first so the first message of every stream is also the largest
// (receive buffers never regrow mid-step).
func (st *Stage) splitMicros(x, y *tensor.Tensor) {
	n := x.Dim(0)
	if n < st.M {
		panic(fmt.Sprintf("pipeline: batch of %d rows cannot split into %d micro-batches", n, st.M))
	}
	if cap(st.microRows) < st.M {
		st.microRows = make([]int, st.M)
		st.xs = make([]*tensor.Tensor, st.M)
		st.ys = make([]*tensor.Tensor, st.M)
	}
	st.microRows = st.microRows[:st.M]
	base, rem := n/st.M, n%st.M
	for m := 0; m < st.M; m++ {
		st.microRows[m] = base
		if m < rem {
			st.microRows[m]++
		}
	}
	st.sliceRows(st.xs, x)
	if y != nil {
		st.sliceRows(st.ys, y)
	}
}

// sliceRows copies consecutive row blocks of t into pooled micro tensors.
func (st *Stage) sliceRows(dst []*tensor.Tensor, t *tensor.Tensor) {
	shape := t.Shape()
	rowElems := t.Size() / shape[0]
	microShape := append([]int(nil), shape...)
	off := 0
	for m := 0; m < st.M; m++ {
		rows := st.microRows[m]
		microShape[0] = rows
		mt := st.ws.Get(microShape...)
		copy(mt.Data(), t.Data()[off:off+rows*rowElems])
		off += rows * rowElems
		dst[m] = mt
	}
}

// run executes one planned forward or backward task — receiving its input
// first when another rank produces it — and returns the task's
// contribution to the step loss (non-zero only for last-chunk forwards).
func (st *Stage) run(tk Task) float64 {
	kind, c, m := tk.Kind, tk.Chunk, tk.Micro
	in := st.input(tk)
	cs := st.chunks[c]
	t0 := time.Now().UnixNano()
	tr := st.cfg.Tracer.Start()
	lossShare := 0.0
	if kind == kindF {
		out := cs.seq.Forward(in, true)
		cs.seq.Stash(m)
		cs.fwdDone++
		if c == st.C-1 {
			// Pipeline exit: compute the micro loss here, scaled so the
			// accumulated gradient matches full-batch averaging — the
			// micro's dL/dlogits carries 1/n_m, so weight by n_m/N.
			rows := st.microRows[m]
			total := 0
			for _, r := range st.microRows {
				total += r
			}
			w := float64(rows) / float64(total)
			microLoss, grad := nn.LossForward(st.ws, st.loss, out, st.ys[m])
			grad.Scale(w)
			lossShare = microLoss * w
			cs.inB[m] = grad
		} else {
			st.deliver(kindF, c+1, m, out)
		}
	} else {
		cs.seq.Stash(m)
		din := cs.seq.Backward(in)
		cs.bwdDone++
		if c > 0 {
			st.deliver(kindB, c-1, m, din)
		}
	}
	t1 := time.Now().UnixNano()
	if st.cfg.Tracer != nil {
		name := "pipe.fwd"
		if kind == kindB {
			name = "pipe.bwd"
		}
		st.cfg.Tracer.End(st.rank, telemetry.CatCompute,
			fmt.Sprintf("%s c%d m%d", name, c, m), tr, 0, st.cfg.Schedule.String())
	}
	if st.firstTask == 0 {
		st.firstTask = t0
	}
	st.lastEnd = t1
	st.busyNS += t1 - t0
	return lossShare
}

// input returns task tk's input tensor: received from the rank owning the
// producing chunk (c−1 for a forward, c+1 for a backward) when that rank is
// another, otherwise the one already handed over locally. The plan visits
// each chunk's forwards (and separately backwards) in strict micro order —
// that invariant, asserted here, is what makes gradient accumulation
// deterministic and lets a stream's FIFO order stand in for micro indices.
func (st *Stage) input(tk Task) *tensor.Tensor {
	cs := st.chunks[tk.Chunk]
	done, local, from := cs.fwdDone, cs.inF, tk.Chunk-1
	if tk.Kind == kindB {
		done, local, from = cs.bwdDone, cs.inB, tk.Chunk+1
	}
	if done != tk.Micro {
		panic(fmt.Sprintf("pipeline: plan visits chunk %d kind %d micro %d before %d", tk.Chunk, tk.Kind, tk.Micro, done))
	}
	if from < 0 || from >= st.C || from%st.S == st.rank {
		return local[tk.Micro]
	}
	return st.recv(tk.Kind, tk.Chunk, tk.Micro, from%st.S)
}

// recv receives micro m's input to chunk c's kind-stream from rank src:
// the shape header, then the payload into a pooled tensor of that shape.
func (st *Stage) recv(kind, c, m, src int) *tensor.Tensor {
	tr := st.cfg.Tracer.Start()
	st.peer.RecvInto(src, tag(st.C, kindHdr+kind, c), st.hdr)
	if int(st.hdr[0]) != m {
		panic(fmt.Sprintf("pipeline: chunk %d kind %d expected micro %d, header carries %d", c, kind, m, int(st.hdr[0])))
	}
	elems, nd := int(st.hdr[1]), int(st.hdr[2])
	shape := st.shapeScratch[:0]
	for i := 0; i < nd; i++ {
		shape = append(shape, int(st.hdr[3+i]))
	}
	t := st.ws.Get(shape...)
	if t.Size() != elems {
		panic(fmt.Sprintf("pipeline: header shape %v disagrees with payload length %d", shape, elems))
	}
	n := st.peer.RecvInto(src, tag(st.C, kind, c), t.Data())
	// Bytes from the wire length actually received, not elems*8: a
	// compressed/FP16 payload path must report what crossed the wire.
	st.cfg.Tracer.End(st.rank, telemetry.CatComm, "pipe.recv", tr, int64(n)*8, "")
	return t
}

// deliver hands tensor t to chunk c's kind-stream for micro m: directly
// when c is local (only possible on a single-rank pipeline), otherwise as
// a header+payload message pair to the owning rank.
func (st *Stage) deliver(kind, c, m int, t *tensor.Tensor) {
	owner := c % st.S
	if owner == st.rank {
		if kind == kindF {
			st.chunks[c].inF[m] = t
		} else {
			st.chunks[c].inB[m] = t
		}
		return
	}
	shape := t.Shape()
	if len(shape) > len(st.shapeScratch) {
		panic(fmt.Sprintf("pipeline: rank-%d tensor exceeds header capacity", len(shape)))
	}
	h := st.hdr
	h[0], h[1], h[2] = float64(m), float64(t.Size()), float64(len(shape))
	for i := range h[3:] {
		h[3+i] = 0
	}
	for i, d := range shape {
		h[3+i] = float64(d)
	}
	st.peer.Send(owner, tag(st.C, kindHdr+kind, c), h)
	st.peer.Send(owner, tag(st.C, kind, c), t.Data())
}

// SyncFullModel broadcasts every chunk's parameter values from its owner
// so all ranks hold the complete trained model — what rank-0 evaluation
// and checkpointing need between training phases. Values go out of and
// land in each chunk's span of the value arena directly. Collective over
// the pipeline group.
func (st *Stage) SyncFullModel() {
	for c, cs := range st.chunks {
		if len(cs.values) == 0 {
			continue
		}
		owner := c % st.S
		if owner == st.rank {
			for r := 0; r < st.S; r++ {
				if r != st.rank {
					st.peer.Send(r, tag(st.C, kindSync, c), cs.values)
				}
			}
		} else {
			st.peer.RecvInto(owner, tag(st.C, kindSync, c), cs.values)
		}
	}
}

// Steps returns how many pipeline steps have run.
func (st *Stage) Steps() int { return st.steps }

// BubbleFraction returns the last step's measured bubble: 1 − busy/wall
// over this rank's active window (first task start to last task end).
func (st *Stage) BubbleFraction() float64 { return st.bubble }

// BusyNS exposes the last step's busy time behind BubbleFraction, in
// nanoseconds; cross-rank aggregation happens in callers that can see
// every rank.
func (st *Stage) BusyNS() int64 { return st.busyNS }
