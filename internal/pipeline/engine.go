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
// (never block), RecvInto must support AnySource, and both must match
// messages by (source, tag) with FIFO order per pair — the mpi package's
// contract.
type Peer interface {
	Rank() int
	Size() int
	Send(dst, tag int, data []float64)
	RecvInto(src, tag int, buf []float64) (int, int)
	Probe(src, tag int) bool
}

// anySource mirrors mpi.AnySource without importing the package here.
const anySource = -1

// Wire protocol: every logical transfer is a fixed-size header on
// headerTag (so a rank can block on "anything addressed to me" with one
// AnySource receive) followed by the payload on a (kind, chunk)-specific
// tag. Payload tags are unique per sender stream, and mailbox FIFO per
// (source, tag) keeps header and payload order consistent.
const (
	kindF = 0 // payload is an activation entering chunk c's forward
	kindB = 1 // payload is an activation-gradient entering chunk c's backward
)

// DefaultBaseTag anchors the pipeline tag block high in the user tag
// space, clear of the small constants examples and tests use.
const DefaultBaseTag = 1 << 19

const hdrLen = 9 // kind, micro, chunk, payloadLen, ndims, up to 4 dims

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
	inF, inB         []*tensor.Tensor // ready inputs per micro (nil = not arrived)
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
	shapeScratch [hdrLen - 5]int
	microRows    []int
	xs, ys       []*tensor.Tensor

	// order is this rank's planned task sequence (see PlanSchedule);
	// orderIdx is the step cursor. Executing a fixed plan keeps the
	// realized schedule — and therefore the bubble structure — identical
	// on any host, instead of drifting with goroutine timing.
	order    []Task
	orderIdx int

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

func (st *Stage) headerTag() int             { return DefaultBaseTag }
func (st *Stage) payloadTag(kind, c int) int { return DefaultBaseTag + 1 + kind*st.C + c }
func (st *Stage) lossTag() int               { return DefaultBaseTag + 1 + 2*st.C }
func (st *Stage) syncTag(c int) int          { return DefaultBaseTag + 2 + 2*st.C + c }

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

	remaining := len(st.locals) * st.M * 2
	lossTotal := 0.0
	st.firstTask, st.lastEnd, st.busyNS = 0, 0, 0
	for remaining > 0 {
		st.drain(false)
		kind, c, ok := st.pick()
		if !ok {
			st.drain(true)
			continue
		}
		lossTotal += st.run(kind, c)
		remaining--
	}

	// The last stage owns the scalar loss; share it so every rank's Step
	// returns the same value.
	last := (st.C - 1) % st.S
	if st.rank == last {
		st.lossBuf[0] = lossTotal
		for r := 0; r < st.S; r++ {
			if r != st.rank {
				st.peer.Send(r, st.lossTag(), st.lossBuf)
			}
		}
	} else {
		st.peer.RecvInto(last, st.lossTag(), st.lossBuf)
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
	st.orderIdx = 0
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

// pick returns the next task of this rank's planned order once its input
// has arrived, or false while it is still in flight. The plan visits each
// chunk's forwards (and separately backwards) in strict micro order —
// that invariant, asserted here, is what makes gradient accumulation
// deterministic.
func (st *Stage) pick() (int, int, bool) {
	if st.orderIdx >= len(st.order) {
		return 0, 0, false
	}
	tk := st.order[st.orderIdx]
	cs := st.chunks[tk.Chunk]
	if tk.Kind == kindF {
		if cs.fwdDone != tk.Micro {
			panic(fmt.Sprintf("pipeline: plan visits chunk %d forward micro %d before %d", tk.Chunk, tk.Micro, cs.fwdDone))
		}
		if cs.inF[tk.Micro] == nil {
			return 0, 0, false
		}
	} else {
		if cs.bwdDone != tk.Micro {
			panic(fmt.Sprintf("pipeline: plan visits chunk %d backward micro %d before %d", tk.Chunk, tk.Micro, cs.bwdDone))
		}
		if cs.inB[tk.Micro] == nil {
			return 0, 0, false
		}
	}
	st.orderIdx++
	return tk.Kind, tk.Chunk, true
}

// run executes one forward or backward task and returns this task's
// contribution to the step loss (non-zero only for last-chunk forwards).
func (st *Stage) run(kind, c int) float64 {
	cs := st.chunks[c]
	t0 := time.Now().UnixNano()
	tr := st.cfg.Tracer.Start()
	lossShare := 0.0
	var micro int
	if kind == kindF {
		m := cs.fwdDone
		micro = m
		out := cs.seq.Forward(cs.inF[m], true)
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
		m := cs.bwdDone
		micro = m
		cs.seq.Stash(m)
		din := cs.seq.Backward(cs.inB[m])
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
			fmt.Sprintf("%s c%d m%d", name, c, micro), tr, 0, st.cfg.Schedule.String())
	}
	if st.firstTask == 0 {
		st.firstTask = t0
	}
	st.lastEnd = t1
	st.busyNS += t1 - t0
	return lossShare
}

// deliver hands tensor t to chunk c's kind-queue for micro m: directly
// when c is local (only possible on a single-rank pipeline), otherwise as
// a header+payload message pair to the owning rank.
func (st *Stage) deliver(kind, c, m int, t *tensor.Tensor) {
	owner := c % st.S
	if owner == st.rank {
		st.enqueue(kind, c, m, t)
		return
	}
	shape := t.Shape()
	if len(shape) > hdrLen-5 {
		panic(fmt.Sprintf("pipeline: rank-%d tensor exceeds header capacity", len(shape)))
	}
	h := st.hdr
	h[0], h[1], h[2] = float64(kind), float64(m), float64(c)
	h[3] = float64(t.Size())
	h[4] = float64(len(shape))
	for i := range h[5:] {
		h[5+i] = 0
	}
	for i, d := range shape {
		h[5+i] = float64(d)
	}
	st.peer.Send(owner, st.headerTag(), h)
	st.peer.Send(owner, st.payloadTag(kind, c), t.Data())
}

func (st *Stage) enqueue(kind, c, m int, t *tensor.Tensor) {
	if kind == kindF {
		st.chunks[c].inF[m] = t
	} else {
		st.chunks[c].inB[m] = t
	}
}

// drain consumes queued pipeline messages. With block set it waits for at
// least one (the executor has no runnable task until a message arrives);
// either way it then empties the queue without blocking.
func (st *Stage) drain(block bool) {
	for {
		if !block && !st.peer.Probe(anySource, st.headerTag()) {
			return
		}
		tr := st.cfg.Tracer.Start()
		_, src := st.peer.RecvInto(anySource, st.headerTag(), st.hdr)
		kind := int(st.hdr[0])
		m := int(st.hdr[1])
		c := int(st.hdr[2])
		elems := int(st.hdr[3])
		nd := int(st.hdr[4])
		shape := st.shapeScratch[:0]
		for i := 0; i < nd; i++ {
			shape = append(shape, int(st.hdr[5+i]))
		}
		t := st.ws.Get(shape...)
		if t.Size() != elems {
			panic(fmt.Sprintf("pipeline: header shape %v disagrees with payload length %d", shape, elems))
		}
		n, _ := st.peer.RecvInto(src, st.payloadTag(kind, c), t.Data())
		// Bytes from the wire length actually received, not elems*8: a
		// compressed/FP16 payload path must report what crossed the wire.
		st.cfg.Tracer.End(st.rank, telemetry.CatComm, "pipe.recv", tr, int64(n)*8, "")
		st.enqueue(kind, c, m, t)
		block = false
	}
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
					st.peer.Send(r, st.syncTag(c), cs.values)
				}
			}
		} else {
			st.peer.RecvInto(owner, st.syncTag(c), cs.values)
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
