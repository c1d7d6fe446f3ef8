package pipeline

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

func TestPartitionContiguousAndBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	model := nn.MLP(rng, 8, 16, 16, 16, 8) // 7 layers
	for _, n := range []int{1, 2, 3, 6, 7} {
		parts, err := Partition(model, n)
		if err != nil {
			t.Fatalf("Partition(%d): %v", n, err)
		}
		if len(parts) != n {
			t.Fatalf("Partition(%d): got %d chunks", n, len(parts))
		}
		total := 0
		for _, p := range parts {
			if len(p.Layers) == 0 {
				t.Fatalf("Partition(%d): empty chunk", n)
			}
			total += len(p.Layers)
		}
		if total != len(model.Layers) {
			t.Fatalf("Partition(%d): covers %d of %d layers", n, total, len(model.Layers))
		}
		// Contiguity: chunks alias the model's layers in order.
		i := 0
		for _, p := range parts {
			for _, l := range p.Layers {
				if l != model.Layers[i] {
					t.Fatalf("Partition(%d): chunk layers out of order at %d", n, i)
				}
				i++
			}
		}
	}
	if _, err := Partition(model, len(model.Layers)+1); err == nil {
		t.Fatal("Partition with more chunks than layers should fail")
	}
}

// TestPartitionCutUnlinksConvBN: Partition cuts CovidNetMini between every
// pair of layers, so each conv ends a chunk and its batch norm starts the
// next. The chunks run unlinked in eval: the first returns the plain
// convolution, and the chunks in turn give the whole model's eval output
// bit for bit.
func TestPartitionCutUnlinksConvBN(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	model := nn.CovidNetMini(rng, 12, 3)
	for i, s := range model.States() {
		for j := range s.Data() {
			s.Data()[j] = float64(0.5*float64(i%2)) + float64(rng.Float64()) // running variances stay positive
		}
	}
	x := tensor.RandUniform(rng, -1, 1, 2, 1, 12, 12)
	want := model.Forward(x, false).Clone()
	parts, err := Partition(model, len(model.Layers))
	if err != nil {
		t.Fatal(err)
	}
	conv := model.Layers[0].(*nn.Conv2D)
	y := parts[0].Forward(x, false)
	plain := tensor.Conv2DBiasInto(nil, tensor.New(y.Shape()...), x, conv.W.Value, conv.B.Value, 3, 3, 1, 1, 1)
	if !bitEqual(y.Data(), plain.Data()) {
		t.Fatal("the conv's chunk did not return the plain convolution")
	}
	for _, p := range parts[1:] {
		y = p.Forward(y, false)
	}
	if !bitEqual(y.Data(), want.Data()) {
		t.Fatal("the chunks in turn differ from the whole model's eval output")
	}
}

func bitEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func TestPartitionBalancesParams(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// One huge layer among small ones: it must sit alone in its chunk.
	model := nn.NewSequential(
		nn.NewDense(rng, "small1", 4, 4),
		nn.NewDense(rng, "huge", 4, 512),
		nn.NewDense(rng, "small2", 512, 2),
	)
	parts, err := Partition(model, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Best split: {small1, huge} vs {small2}? No: huge ≈ 4·512, small2 ≈
	// 512·2+2. Balanced max cost wants {small1} | {huge, small2}? Compare:
	// split after layer 1: max(20, 2048+512+1026) vs after layer 2:
	// max(20+2560, 1026). The DP picks the smaller max.
	c0, c1 := 0.0, 0.0
	for _, l := range parts[0].Layers {
		c0 += 1 + float64(nn.NumParams(l.Params()))
	}
	for _, l := range parts[1].Layers {
		c1 += 1 + float64(nn.NumParams(l.Params()))
	}
	gotMax := c0
	if c1 > gotMax {
		gotMax = c1
	}
	// Brute force the optimum.
	costs := make([]float64, len(model.Layers))
	for i, l := range model.Layers {
		costs[i] = 1 + float64(nn.NumParams(l.Params()))
	}
	best := 1e308
	for cutAt := 1; cutAt < len(costs); cutAt++ {
		a, b := 0.0, 0.0
		for i, c := range costs {
			if i < cutAt {
				a += c
			} else {
				b += c
			}
		}
		m := a
		if b > m {
			m = b
		}
		if m < best {
			best = m
		}
	}
	if gotMax != best {
		t.Fatalf("partition max cost %v, optimum %v", gotMax, best)
	}
}

// microRef runs the single-rank micro-batched gradient-accumulation
// reference: the exact operation sequence a pipeline distributes, so the
// distributed gradients must match it bitwise.
func microRef(model *nn.Sequential, loss nn.Loss, x, y *tensor.Tensor, M int) float64 {
	n := x.Dim(0)
	base, rem := n/M, n%M
	rowsX := x.Size() / n
	rowsY := y.Size() / n
	total := 0.0
	offX, offY := 0, 0
	for m := 0; m < M; m++ {
		rows := base
		if m < rem {
			rows++
		}
		shapeX := append([]int(nil), x.Shape()...)
		shapeX[0] = rows
		xm := tensor.New(shapeX...)
		copy(xm.Data(), x.Data()[offX:offX+rows*rowsX])
		offX += rows * rowsX
		shapeY := append([]int(nil), y.Shape()...)
		shapeY[0] = rows
		ym := tensor.New(shapeY...)
		copy(ym.Data(), y.Data()[offY:offY+rows*rowsY])
		offY += rows * rowsY

		out := model.Forward(xm, true)
		w := float64(rows) / float64(n)
		l, g := loss.Forward(out, ym)
		g.Scale(w)
		model.Backward(g)
		total += float64(l * w)
	}
	return total
}

// pipeModel is what an equivalence run trains: the model (built the same
// on the reference and on every rank), the batch of each step, and the
// loss.
type pipeModel struct {
	build func() *nn.Sequential
	batch func(step int) (x, y *tensor.Tensor)
	loss  nn.Loss
}

// mlpPipe is the MLP classifier on batches of 13 rows: deliberately not
// divisible by M, so micro-batches are uneven.
var mlpPipe = pipeModel{
	build: func() *nn.Sequential { return buildPipeModel(42) },
	batch: func(step int) (*tensor.Tensor, *tensor.Tensor) { return pipeBatch(int64(100+step), 13) },
	loss:  nn.SoftmaxCrossEntropy{},
}

// gruPipe is the §IV-B imputer, dropout included, regressing (13, 5, 3)
// sequences onto one value per step under MSE. Its two Dropouts draw from
// streams of their own: built by GRUImputer they share the model's, and a
// rank that runs only one of them cannot draw in one rank's interleaved
// order.
var gruPipe = pipeModel{
	build: func() *nn.Sequential {
		m := nn.GRUImputer(rand.New(rand.NewSource(42)), 3)
		m.Layers[1] = nn.NewDropout(rand.New(rand.NewSource(43)), 0.2)
		m.Layers[3] = nn.NewDropout(rand.New(rand.NewSource(44)), 0.2)
		return m
	},
	batch: func(step int) (*tensor.Tensor, *tensor.Tensor) {
		rng := rand.New(rand.NewSource(int64(100 + step)))
		return tensor.Randn(rng, 1, 13, 5, 3), tensor.Randn(rng, 1, 13, 5, 1)
	},
	loss: nn.MSE{},
}

func buildPipeModel(seed int64) *nn.Sequential {
	return nn.MLP(rand.New(rand.NewSource(seed)), 12, 24, 20, 16, 5)
}

func pipeBatch(seed int64, rows int) (*tensor.Tensor, *tensor.Tensor) {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.Randn(rng, 1, rows, 12)
	y := tensor.New(rows, 5)
	for r := 0; r < rows; r++ {
		y.Data()[r*5+rng.Intn(5)] = 1
	}
	return x, y
}

// runEquivalence trains pm for steps steps on S pipeline ranks under sched
// and checks gradients, parameter values, and losses against the
// single-rank micro-accumulation reference, bitwise.
func runEquivalence(t *testing.T, pm pipeModel, S, M, steps int, sched Schedule, virtual int) {
	t.Helper()
	loss := pm.loss

	// Reference: same model seed, same micro split, full model on one rank.
	ref := pm.build()
	refOpt := nn.NewSGD(0.9, 0)
	refLosses := make([]float64, steps)
	for s := 0; s < steps; s++ {
		x, y := pm.batch(s)
		ref.ZeroGrads()
		refLosses[s] = microRef(ref, loss, x, y, M)
		refOpt.Step(ref.Params(), 0.05)
	}

	w := mpi.NewWorld(S)
	err := w.Run(func(c *mpi.Comm) error {
		model := pm.build()
		st, err := New(c, model, loss, Config{
			MicroBatches: M, Schedule: sched, VirtualChunks: virtual,
		})
		if err != nil {
			return err
		}
		opts := map[int]*nn.SGD{} // per chunk: an optimizer steps one run of parameters
		for _, ci := range st.LocalChunks() {
			opts[ci] = nn.NewSGD(0.9, 0)
		}
		for s := 0; s < steps; s++ {
			x, y := pm.batch(s)
			model.ZeroGrads()
			got := st.Step(x, y)
			if got != refLosses[s] {
				return fmt.Errorf("rank %d step %d: loss %v, reference %v", c.Rank(), s, got, refLosses[s])
			}
			for _, ci := range st.LocalChunks() {
				opts[ci].Step(st.ChunkParams(ci), 0.05)
			}
		}
		// Local chunks must match the reference bitwise: gradients of the
		// last step and parameter values after all updates.
		refParams := ref.Params()
		gotParams := model.Params()
		if len(refParams) != len(gotParams) {
			return fmt.Errorf("param count %d vs %d", len(gotParams), len(refParams))
		}
		owned := map[*nn.Param]bool{}
		for _, ci := range st.LocalChunks() {
			for _, p := range st.ChunkParams(ci) {
				owned[p] = true
			}
		}
		for i, p := range gotParams {
			if !owned[p] {
				continue
			}
			rp := refParams[i]
			for j := range p.Grad.Data() {
				if p.Grad.Data()[j] != rp.Grad.Data()[j] {
					return fmt.Errorf("rank %d: %s grad[%d] %v vs ref %v", c.Rank(), p.Name, j, p.Grad.Data()[j], rp.Grad.Data()[j])
				}
			}
			for j := range p.Value.Data() {
				if p.Value.Data()[j] != rp.Value.Data()[j] {
					return fmt.Errorf("rank %d: %s value[%d] %v vs ref %v", c.Rank(), p.Name, j, p.Value.Data()[j], rp.Value.Data()[j])
				}
			}
		}
		// After SyncFullModel every rank holds the full reference model.
		st.SyncFullModel()
		for i, p := range gotParams {
			rp := refParams[i]
			for j := range p.Value.Data() {
				if p.Value.Data()[j] != rp.Value.Data()[j] {
					return fmt.Errorf("rank %d after sync: %s value[%d] mismatch", c.Rank(), p.Name, j)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGPipeMatchesSingleRank(t *testing.T)    { runEquivalence(t, mlpPipe, 3, 4, 3, GPipe, 0) }
func TestGPipeFourStages(t *testing.T)           { runEquivalence(t, mlpPipe, 4, 6, 2, GPipe, 0) }
func TestOneFOneBMatchesSingleRank(t *testing.T) { runEquivalence(t, mlpPipe, 3, 4, 3, OneFOneB, 0) }
func TestOneFOneBVirtual1MatchesGPipeRef(t *testing.T) {
	runEquivalence(t, mlpPipe, 3, 5, 2, OneFOneB, 1)
}
func TestTwoStagePipeline(t *testing.T) { runEquivalence(t, mlpPipe, 2, 4, 2, GPipe, 0) }
func TestSingleRankPipelineLocalHandoff(t *testing.T) {
	// S=1 exercises the local chunk-to-chunk handoff path (no messages).
	runEquivalence(t, mlpPipe, 1, 4, 2, OneFOneB, 3)
}

// TestRecurrentPipelineEquivalence trains the §IV-B GRU imputer on two
// stages with four uneven micro-batches: the GRUs and the per-timestep
// head stash like any layer, so both schedules match the reference.
func TestRecurrentPipelineEquivalence(t *testing.T) {
	for _, sched := range []Schedule{OneFOneB, GPipe} {
		t.Run(sched.String(), func(t *testing.T) { runEquivalence(t, gruPipe, 2, 4, 2, sched, 0) })
	}
}

// TestPipelineRunsPlanVerbatim runs one traced step and checks that every
// rank executed its PlanSchedule order exactly: the compute spans on each
// track, in order, name the planned tasks.
func TestPipelineRunsPlanVerbatim(t *testing.T) {
	const S, M = 3, 4
	for _, sched := range []Schedule{GPipe, OneFOneB} {
		tr := telemetry.NewTracer(1 << 10)
		w := mpi.NewWorld(S)
		err := w.Run(func(c *mpi.Comm) error {
			model := buildPipeModel(42)
			st, err := New(c, model, nn.SoftmaxCrossEntropy{}, Config{MicroBatches: M, Schedule: sched, Tracer: tr})
			if err != nil {
				return err
			}
			x, y := pipeBatch(100, 8)
			model.ZeroGrads()
			st.Step(x, y)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		got := make([][]string, S)
		for _, sp := range tr.Spans() {
			if sp.Cat == telemetry.CatCompute {
				got[sp.Track] = append(got[sp.Track], sp.Name)
			}
		}
		for r, tasks := range PlanSchedule(S, 0, M, sched, 1, 2) {
			want := make([]string, len(tasks))
			for i, tk := range tasks {
				kind := "pipe.fwd"
				if tk.Kind == kindB {
					kind = "pipe.bwd"
				}
				want[i] = fmt.Sprintf("%s c%d m%d", kind, tk.Chunk, tk.Micro)
			}
			if fmt.Sprint(got[r]) != fmt.Sprint(want) {
				t.Errorf("%v rank %d ran\n  %v\nplanned\n  %v", sched, r, got[r], want)
			}
		}
	}
}

// TestConvPipelineEquivalence runs the conv/bn/residual stack through a
// 3-stage pipeline: running statistics and im2col caches must stash and
// restore per micro-batch exactly.
func TestConvPipelineEquivalence(t *testing.T) {
	const S, M, rows = 3, 4, 8
	loss := nn.SoftmaxCrossEntropy{}
	build := func() *nn.Sequential { return nn.ResNetMini(rand.New(rand.NewSource(9)), 2, 4, 4, 2) }
	batch := func() (*tensor.Tensor, *tensor.Tensor) {
		rng := rand.New(rand.NewSource(77))
		x := tensor.Randn(rng, 1, rows, 2, 8, 8)
		y := tensor.New(rows, 4)
		for r := 0; r < rows; r++ {
			y.Data()[r*4+rng.Intn(4)] = 1
		}
		return x, y
	}

	ref := build()
	x, y := batch()
	refLoss := microRef(ref, loss, x, y, M)
	refParams := ref.Params()

	w := mpi.NewWorld(S)
	err := w.Run(func(c *mpi.Comm) error {
		model := build()
		st, err := New(c, model, loss, Config{MicroBatches: M, Schedule: OneFOneB})
		if err != nil {
			return err
		}
		x, y := batch()
		model.ZeroGrads()
		if got := st.Step(x, y); got != refLoss {
			return fmt.Errorf("rank %d: loss %v vs ref %v", c.Rank(), got, refLoss)
		}
		gotParams := model.Params()
		for _, ci := range st.LocalChunks() {
			for _, p := range st.ChunkParams(ci) {
				for i, rp := range refParams {
					if gotParams[i] != p {
						continue
					}
					for j := range p.Grad.Data() {
						if p.Grad.Data()[j] != rp.Grad.Data()[j] {
							return fmt.Errorf("rank %d: %s grad[%d] differs", c.Rank(), p.Name, j)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPipelineStepPoolSteadyState extends the PR 5 alloc gates to
// pipeline steps: after warmup, further steps cause no workspace pool
// misses on any stage — micro splitting, activation receive, stash
// rotation, and loss scratch all run from recycled storage.
func TestPipelineStepPoolSteadyState(t *testing.T) {
	x, y := pipeBatch(3, 12)
	runPoolSteadyState(t, func() *nn.Sequential { return buildPipeModel(5) }, x, y, nn.SoftmaxCrossEntropy{}, 3)
}

// TestRecurrentPipelinePoolSteadyState is the same gate on the GRU
// imputer over two stages: each GRU puts its buffers back in Backward
// while later micro-batches are still stashed, and the pool still settles.
func TestRecurrentPipelinePoolSteadyState(t *testing.T) {
	x, y := gruPipe.batch(0)
	runPoolSteadyState(t, gruPipe.build, x, y, gruPipe.loss, 2)
}

// runPoolSteadyState steps the model on S 1F1B stages with M = 4 and fails
// if any stage's workspace misses its pool after three warm-up steps.
func runPoolSteadyState(t *testing.T, build func() *nn.Sequential, x, y *tensor.Tensor, loss nn.Loss, S int) {
	t.Helper()
	const M, warm, measured = 4, 3, 4
	w := mpi.NewWorld(S)
	err := w.Run(func(c *mpi.Comm) error {
		model := build()
		st, err := New(c, model, loss, Config{MicroBatches: M, Schedule: OneFOneB})
		if err != nil {
			return err
		}
		for s := 0; s < warm; s++ {
			model.ZeroGrads()
			st.Step(x, y)
		}
		baseline := st.Workspace().Allocs()
		for s := 0; s < measured; s++ {
			model.ZeroGrads()
			st.Step(x, y)
		}
		if got := st.Workspace().Allocs(); got != baseline {
			return fmt.Errorf("rank %d: pool misses grew %d -> %d across steady-state pipeline steps", c.Rank(), baseline, got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// pipelineStepAllocBudget is the pinned heap-allocation budget for one
// steady-state 3-stage 1F1B step (M=4, MLP 32-48-48-48-10), summed over
// the three ranks. The measured count is 6 at GOMAXPROCS 1, 2 and 4: the
// micro-batch shape slice sliceRows copies when each rank splits x and y.
// The tensors themselves come from the workspace pool
// (TestPipelineStepPoolSteadyState).
const pipelineStepAllocBudget = 6

// TestPipelineStepAllocsSteadyState is the allocation regression gate for
// pipeline training. runtime.MemStats.Mallocs is process-wide, so rank 0
// reads it around a barrier-fenced window in which every rank steps. As in
// testing.AllocsPerRun the per-step count is truncated to an integer, so a
// runtime thread start landing in the window is not charged to the step.
func TestPipelineStepAllocsSteadyState(t *testing.T) {
	const S, M, warm, measured = 3, 4, 3, 10
	var perStep uint64
	w := mpi.NewWorld(S)
	err := w.Run(func(c *mpi.Comm) error {
		rng := rand.New(rand.NewSource(5))
		model := nn.MLP(rng, 32, 48, 48, 48, 10)
		st, err := New(c, model, nn.MSE{}, Config{MicroBatches: M, Schedule: OneFOneB})
		if err != nil {
			return err
		}
		x := tensor.Randn(rng, 1, 8, 32)
		y := tensor.Randn(rng, 1, 8, 10)
		step := func() {
			model.ZeroGrads()
			st.Step(x, y)
		}
		for i := 0; i < warm; i++ {
			step()
		}
		var m0, m1 runtime.MemStats
		if c.Rank() == 0 {
			runtime.GC()
			runtime.ReadMemStats(&m0)
		}
		c.Barrier()
		for i := 0; i < measured; i++ {
			step()
		}
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m1)
			perStep = (m1.Mallocs - m0.Mallocs) / measured
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d-stage 1F1B M=%d step: %d allocs/step over all ranks (budget %d)", S, M, perStep, pipelineStepAllocBudget)
	if perStep > pipelineStepAllocBudget {
		t.Errorf("%d-stage 1F1B M=%d step (MLP 32-48-48-48-10) allocates %d/step summed over ranks in steady state, budget %d",
			S, M, perStep, pipelineStepAllocBudget)
	}
}

// recvRecorder is a Peer that logs every RecvInto's (source, tag) before
// passing it on. Each rank owns its recorder, so the log needs no lock.
type recvRecorder struct {
	Peer
	recvs [][2]int
}

func (p *recvRecorder) RecvInto(src, tag int, buf []float64) int {
	p.recvs = append(p.recvs, [2]int{src, tag})
	return p.Peer.RecvInto(src, tag, buf)
}

// TestPipelineReceivesFromPlannedProducer pins the receive discipline: a
// step receives each remote input as exactly two messages (shape header,
// then payload) from the rank owning the producing chunk, in plan order,
// and then the loss from the last stage. No receive names a wildcard
// source.
func TestPipelineReceivesFromPlannedProducer(t *testing.T) {
	const M, steps = 4, 2
	for _, S := range []int{2, 3} {
		for _, sched := range []Schedule{GPipe, OneFOneB} {
			C := S * virtualChunks(sched, 0)
			last := (C - 1) % S
			w := mpi.NewWorld(S)
			err := w.Run(func(c *mpi.Comm) error {
				peer := &recvRecorder{Peer: c}
				model := buildPipeModel(42)
				st, err := New(peer, model, nn.SoftmaxCrossEntropy{}, Config{MicroBatches: M, Schedule: sched})
				if err != nil {
					return err
				}
				var want [][2]int
				for _, tk := range PlanSchedule(S, 0, M, sched, 1, 2)[c.Rank()] {
					from := tk.Chunk - 1
					if tk.Kind == kindB {
						from = tk.Chunk + 1
					}
					if from < 0 || from >= C {
						continue // the micro-batch or the loss gradient: local
					}
					src := from % S
					want = append(want, [2]int{src, tag(C, kindHdr+tk.Kind, tk.Chunk)}, [2]int{src, tag(C, tk.Kind, tk.Chunk)})
				}
				if c.Rank() != last {
					want = append(want, [2]int{last, DefaultBaseTag})
				}
				x, y := pipeBatch(100, 13)
				for s := 0; s < steps; s++ {
					peer.recvs = peer.recvs[:0]
					model.ZeroGrads()
					st.Step(x, y)
					for _, r := range peer.recvs {
						if r[0] < 0 || r[0] >= S || r[0] == c.Rank() {
							return fmt.Errorf("S=%d %v rank %d step %d: receive from rank %d", S, sched, c.Rank(), s, r[0])
						}
					}
					if fmt.Sprint(peer.recvs) != fmt.Sprint(want) {
						return fmt.Errorf("S=%d %v rank %d step %d received (src, tag)\n  %v\nwant\n  %v", S, sched, c.Rank(), s, peer.recvs, want)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}
