package ft

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/distdl"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

func TestPlanValidate(t *testing.T) {
	ok := &Plan{Events: []Event{
		{Kind: Crash, Rank: 2, Step: 50},
		{Kind: Straggle, Rank: 1, Step: 0, Until: 10, PerOp: time.Millisecond},
	}}
	if err := ok.Validate(4); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if err := (*Plan)(nil).Validate(4); err != nil {
		t.Fatalf("nil plan should validate: %v", err)
	}
	bad := map[string]*Plan{
		"rank out of range": {Events: []Event{{Kind: Crash, Rank: 4, Step: 1}}},
		"negative rank":     {Events: []Event{{Kind: Crash, Rank: -1, Step: 1}}},
		"negative step":     {Events: []Event{{Kind: Crash, Rank: 0, Step: -1}}},
		"until before step": {Events: []Event{{Kind: Straggle, Rank: 0, Step: 5, Until: 3, PerOp: time.Millisecond}}},
		"negative perop":    {Events: []Event{{Kind: DelayMsg, Rank: 0, Step: 0, PerOp: -time.Millisecond}}},
		"zero perop":        {Events: []Event{{Kind: Straggle, Rank: 0, Step: 0, PerOp: 0}}},
		"double crash":      {Events: []Event{{Kind: Crash, Rank: 1, Step: 1}, {Kind: Crash, Rank: 1, Step: 2}}},
		"all ranks crash": {Events: []Event{
			{Kind: Crash, Rank: 0, Step: 1}, {Kind: Crash, Rank: 1, Step: 1},
			{Kind: Crash, Rank: 2, Step: 1}, {Kind: Crash, Rank: 3, Step: 1}}},
	}
	for name, p := range bad {
		if err := p.Validate(4); err == nil {
			t.Errorf("%s: expected a validation error", name)
		}
	}
}

func TestPlanCrashStepAndString(t *testing.T) {
	p := &Plan{Events: []Event{{Kind: Crash, Rank: 2, Step: 50}}}
	if got := p.String(); !strings.Contains(got, "crash rank 2 at step 50") {
		t.Fatalf("String() = %q", got)
	}
	if got := (*Plan)(nil).String(); got != "no faults" {
		t.Fatalf("nil plan String() = %q", got)
	}
}

func TestRandomPlanDeterministic(t *testing.T) {
	a, err := RandomPlan(7, 8, 10, 100, 2, 1, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := RandomPlan(7, 8, 10, 100, 2, 1, time.Millisecond)
	if a.String() != b.String() {
		t.Fatalf("same seed, different plans:\n%s\n%s", a, b)
	}
	c, _ := RandomPlan(8, 8, 10, 100, 2, 1, time.Millisecond)
	if a.String() == c.String() {
		t.Fatal("different seeds should give different plans")
	}
	if err := a.Validate(8); err != nil {
		t.Fatalf("generated plan invalid: %v", err)
	}
	// Crash targets and straggle targets must not overlap.
	crashed := map[int]bool{}
	for _, e := range a.Events {
		if e.Kind == Crash {
			crashed[e.Rank] = true
		}
	}
	for _, e := range a.Events {
		if e.Kind == Straggle && crashed[e.Rank] {
			t.Fatalf("rank %d both crashes and straggles", e.Rank)
		}
	}
	if _, err := RandomPlan(1, 4, 10, 100, 4, 0, 0); err == nil {
		t.Fatal("crashing all ranks must be rejected")
	}
	if _, err := RandomPlan(1, 4, 100, 100, 1, 0, 0); err == nil {
		t.Fatal("empty step range must be rejected")
	}
}

func TestInjectorCrashFires(t *testing.T) {
	p := &Plan{Events: []Event{{Kind: Crash, Rank: 3, Step: 5}}}
	w := mpi.NewWorld(1)
	inj := p.Wrap(w.Comm(0), 3)
	for s := 0; s < 5; s++ {
		inj.AtStep(s) // must not fire early
	}
	defer func() {
		f, ok := AsRankFailure(recover())
		if !ok {
			t.Fatal("expected a RankFailure panic")
		}
		if f.Rank != 3 || f.Step != 5 {
			t.Fatalf("failure = %+v", f)
		}
		if !strings.Contains(f.Error(), "rank 3") {
			t.Fatalf("error = %q", f.Error())
		}
	}()
	inj.AtStep(5)
}

func TestInjectorIgnoresOtherRanks(t *testing.T) {
	p := &Plan{Events: []Event{{Kind: Crash, Rank: 3, Step: 5}}}
	w := mpi.NewWorld(1)
	inj := p.Wrap(w.Comm(0), 0) // same plan, different rank
	for s := 0; s < 100; s++ {
		inj.AtStep(s)
	}
	if inj.globalRank != 0 {
		t.Fatalf("globalRank = %d", inj.globalRank)
	}
}

func TestInjectorStraggleDelaysCollectives(t *testing.T) {
	delay := 30 * time.Millisecond
	p := &Plan{Events: []Event{{Kind: Straggle, Rank: 0, Step: 2, Until: 2, PerOp: delay}}}
	w := mpi.NewWorld(1)
	inj := p.Wrap(w.Comm(0), 0)

	inj.AtStep(1) // outside the window: fast
	t0 := time.Now()
	inj.Barrier()
	if d := time.Since(t0); d > delay/2 {
		t.Fatalf("barrier outside straggle window took %v", d)
	}
	inj.AtStep(2) // inside: throttled
	t0 = time.Now()
	inj.Barrier()
	if d := time.Since(t0); d < delay {
		t.Fatalf("straggled barrier took only %v, want >= %v", d, delay)
	}
	inj.AtStep(3) // past Until: fast again
	t0 = time.Now()
	inj.Barrier()
	if d := time.Since(t0); d > delay/2 {
		t.Fatalf("barrier after straggle window took %v", d)
	}
}

func TestInjectorIsTransparent(t *testing.T) {
	// A wrapped communicator must behave exactly like the raw one for a
	// fault-free rank: run a small allreduce through injectors.
	p := &Plan{} // no events
	w := mpi.NewWorld(3)
	err := w.Run(func(c *mpi.Comm) error {
		inj := p.Wrap(c, c.Rank())
		got := inj.AllreduceScalar(float64(c.Rank()), mpi.OpSum)
		if got != 3 { // 0+1+2
			t.Errorf("allreduce through injector = %v", got)
		}
		if inj.Rank() != c.Rank() || inj.Size() != 3 {
			t.Errorf("rank/size not delegated")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInjectorIsTransparentUnderPipeline runs a 2-stage × 2-replica
// distdl.WithPipeline trainer over a pass-through injector and over the
// bare *mpi.Comm: the injector's Split wraps both axis groups, its
// Send/RecvInto carry the pipeline traffic, and every loss and
// final parameter must come out bitwise equal.
func TestInjectorIsTransparentUnderPipeline(t *testing.T) {
	const S, R, M, steps = 2, 2, 4, 3
	run := func(wrap func(*mpi.Comm) mpi.Communicator) [][]float64 {
		out := make([][]float64, S*R)
		w := mpi.NewWorld(S * R)
		err := w.Run(func(c *mpi.Comm) error {
			model := nn.MLP(rand.New(rand.NewSource(3)), 10, 18, 16, 14, 6)
			tr := distdl.New(wrap(c), model, nn.SoftmaxCrossEntropy{}, nn.NewSGD(0.9, 0),
				distdl.WithPipeline(S, M, pipeline.OneFOneB)).(*distdl.PipelineTrainer)
			rng := rand.New(rand.NewSource(int64(100 + tr.Replica())))
			x := tensor.Randn(rng, 1, 8, 10)
			y := tensor.New(8, 6)
			for r := 0; r < 8; r++ {
				y.Data()[r*6+rng.Intn(6)] = 1
			}
			for s := 0; s < steps; s++ {
				out[c.Rank()] = append(out[c.Rank()], tr.Step(x, y))
			}
			tr.SyncFullModel()
			out[c.Rank()] = append(out[c.Rank()], nn.FlattenValues(model.Params())...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	bare := run(func(c *mpi.Comm) mpi.Communicator { return c })
	injected := run(func(c *mpi.Comm) mpi.Communicator { return (&Plan{}).Wrap(c, c.Rank()) })
	for r := range bare {
		for i := range bare[r] {
			if math.Float64bits(injected[r][i]) != math.Float64bits(bare[r][i]) {
				t.Fatalf("rank %d value %d: injected %v, bare %v", r, i, injected[r][i], bare[r][i])
			}
		}
	}
}

func TestMonitorSuspectDead(t *testing.T) {
	m := NewMonitor([]int{0, 1, 2, 3})
	// Startup: everyone at step -1, however stale — nobody is behind the
	// frontier, so nobody is suspected.
	time.Sleep(20 * time.Millisecond)
	if got := m.SuspectDead(time.Millisecond); len(got) != 0 {
		t.Fatalf("startup false positive: %v", got)
	}
	// Ranks 0,1,3 advance; rank 2 stays silent.
	for _, r := range []int{0, 1, 3} {
		m.Beat(r, 50)
	}
	time.Sleep(20 * time.Millisecond)
	// All are stale now, but only rank 2 is behind the frontier.
	got := m.SuspectDead(time.Millisecond)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("SuspectDead = %v, want [2]", got)
	}
	// Fresh beats clear suspicion.
	if got := m.SuspectDead(time.Hour); len(got) != 0 {
		t.Fatalf("nothing should be stale within an hour: %v", got)
	}
	// A finished rank is never suspected even when behind and stale.
	m.Done(2)
	time.Sleep(20 * time.Millisecond)
	if got := m.SuspectDead(time.Millisecond); len(got) != 0 {
		t.Fatalf("done rank suspected: %v", got)
	}
	if m.LastStep(0) != 50 || m.LastStep(2) != -1 {
		t.Fatalf("LastStep: %d, %d", m.LastStep(0), m.LastStep(2))
	}
}

func TestStepBatchPartition(t *testing.T) {
	const n, globalBatch = 256, 32
	for _, alive := range []int{1, 2, 3, 4} {
		seen := map[int]bool{}
		total := 0
		for pos := 0; pos < alive; pos++ {
			for _, i := range StepBatch(n, 42, 7, globalBatch, pos, alive) {
				if seen[i] {
					t.Fatalf("alive=%d: index %d assigned twice", alive, i)
				}
				seen[i] = true
				total++
			}
		}
		if total != globalBatch {
			t.Fatalf("alive=%d: covered %d of %d", alive, total, globalBatch)
		}
	}
}

// TestWeightedStepBatchApportion: the step batch is apportioned among
// survivors with equal weight, so each takes globalBatch/alive samples,
// the first globalBatch%alive one more, no survivor is starved and the
// shares still partition the global batch.
func TestWeightedStepBatchApportion(t *testing.T) {
	const n = 256
	for _, globalBatch := range []int{10, 32} {
		for _, alive := range []int{1, 2, 3, 4} {
			seen := map[int]bool{}
			total := 0
			q, r := globalBatch/alive, globalBatch%alive
			for pos := 0; pos < alive; pos++ {
				idx := StepBatch(n, 42, 3, globalBatch, pos, alive)
				want := q
				if pos < r {
					want++
				}
				if len(idx) != want {
					t.Fatalf("batch=%d alive=%d pos=%d: share %d, want %d", globalBatch, alive, pos, len(idx), want)
				}
				if len(idx) == 0 {
					t.Fatalf("batch=%d alive=%d pos=%d: survivor starved", globalBatch, alive, pos)
				}
				for _, i := range idx {
					if seen[i] {
						t.Fatalf("batch=%d alive=%d: index %d assigned twice", globalBatch, alive, i)
					}
					seen[i] = true
					total++
				}
			}
			if total != globalBatch {
				t.Fatalf("batch=%d alive=%d: covered %d of %d", globalBatch, alive, total, globalBatch)
			}
		}
	}
}

// TestStepBatchSplitPinned pins every survivor's slice over a grid of
// dataset sizes, global batches, survivor counts and two epochs of steps
// to one SHA-256: recovery runs are bit-comparable to failure-free ones
// only while the split stays exactly this one.
func TestStepBatchSplitPinned(t *testing.T) {
	const want = "ebe2552ece3603a2daeb4c76ee4aaca59e09a8e56ade9530881066d33b7d4f40"
	h := sha256.New()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, n := range []int{37, 64} {
		for _, globalBatch := range []int{1, 7, 12, 32} {
			stepsPerEpoch := n / globalBatch
			for alive := 1; alive <= 8; alive++ {
				for pos := 0; pos < alive; pos++ {
					for step := 0; step <= 2*stepsPerEpoch; step++ {
						idx := StepBatch(n, 42, step, globalBatch, pos, alive)
						put(len(idx))
						for _, i := range idx {
							put(i)
						}
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("StepBatch split digest %s, want %s", got, want)
	}
}

func TestStepBatchGlobalBatchInvariant(t *testing.T) {
	// The union of all survivors' slices at a step must be the same sample
	// set regardless of how many survivors share it — the elastic-shrink
	// invariant that keeps recovery comparable to failure-free training.
	const n, globalBatch = 256, 32
	gather := func(alive int) map[int]bool {
		s := map[int]bool{}
		for pos := 0; pos < alive; pos++ {
			for _, i := range StepBatch(n, 42, 13, globalBatch, pos, alive) {
				s[i] = true
			}
		}
		return s
	}
	four, three := gather(4), gather(3)
	if len(four) != len(three) {
		t.Fatalf("global batch changed size: %d vs %d", len(four), len(three))
	}
	for i := range four {
		if !three[i] {
			t.Fatalf("sample %d in 4-rank batch but not 3-rank batch", i)
		}
	}
	// Different steps draw different batches.
	other := gather(4)
	next := map[int]bool{}
	for pos := 0; pos < 4; pos++ {
		for _, i := range StepBatch(n, 42, 14, globalBatch, pos, 4) {
			next[i] = true
		}
	}
	same := true
	for i := range other {
		if !next[i] {
			same = false
		}
	}
	if same {
		t.Fatal("consecutive steps drew identical batches")
	}
}

func TestStepBatchEpochWraps(t *testing.T) {
	const n, globalBatch = 64, 32 // 2 steps per epoch
	// Steps 0..1 cover epoch 0; steps 2..3 reshuffle. Union of each
	// epoch's steps must cover the dataset slice used.
	epoch0 := map[int]bool{}
	for s := 0; s < 2; s++ {
		for _, i := range StepBatch(n, 9, s, globalBatch, 0, 1) {
			epoch0[i] = true
		}
	}
	if len(epoch0) != 64 {
		t.Fatalf("epoch 0 covered %d of 64 samples", len(epoch0))
	}
}

func TestStepBatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"bad pos":       func() { StepBatch(100, 1, 0, 10, 5, 2) },
		"zero batch":    func() { StepBatch(100, 1, 0, 0, 0, 1) },
		"batch too big": func() { StepBatch(100, 1, 0, 101, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCheckpointNaming(t *testing.T) {
	name := checkpointName("ft", 42)
	if name != "ft-0000000042" {
		t.Fatalf("name = %q", name)
	}
	if s, ok := checkpointStep("ft", name); !ok || s != 42 {
		t.Fatalf("parse = %d, %v", s, ok)
	}
	for _, bad := range []string{"ft-42", "other-0000000042", "ft-00000000xx", "ft"} {
		if _, ok := checkpointStep("ft", bad); ok {
			t.Errorf("%q should not parse", bad)
		}
	}
}

func TestLatestCheckpointAndPrune(t *testing.T) {
	st := NewMemStore()
	if _, _, ok, err := LatestCheckpoint(st, "ft"); err != nil || ok {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	for _, step := range []int{20, 40, 60} {
		if err := st.SaveBlob(checkpointName("ft", step), []byte{byte(step)}); err != nil {
			t.Fatal(err)
		}
	}
	// A foreign blob in the store must not confuse the series.
	if err := st.SaveBlob("unrelated", []byte("x")); err != nil {
		t.Fatal(err)
	}
	blob, step, ok, err := LatestCheckpoint(st, "ft")
	if err != nil || !ok || step != 60 || blob[0] != 60 {
		t.Fatalf("latest = step %d ok=%v err=%v", step, ok, err)
	}
	if err := pruneCheckpoints(st, "ft", 2); err != nil {
		t.Fatal(err)
	}
	names, _ := st.List()
	want := map[string]bool{"ft-0000000040": true, "ft-0000000060": true, "unrelated": true}
	if len(names) != 3 {
		t.Fatalf("after prune: %v", names)
	}
	for _, n := range names {
		if !want[n] {
			t.Fatalf("unexpected survivor %q in %v", n, names)
		}
	}
	// Retain 0 keeps everything.
	if err := pruneCheckpoints(st, "ft", 0); err != nil {
		t.Fatal(err)
	}
	if names, _ = st.List(); len(names) != 3 {
		t.Fatalf("retain 0 pruned: %v", names)
	}
}

func TestMemStoreIsolation(t *testing.T) {
	st := NewMemStore()
	payload := []byte{1, 2, 3}
	if err := st.SaveBlob("a", payload); err != nil {
		t.Fatal(err)
	}
	payload[0] = 99 // caller mutation must not reach the store
	got, err := st.Blob("a")
	if err != nil || got[0] != 1 {
		t.Fatalf("store aliased caller slice: %v %v", got, err)
	}
	got[1] = 99 // reader mutation must not reach the store
	again, _ := st.Blob("a")
	if again[1] != 2 {
		t.Fatal("store aliased reader slice")
	}
	if _, err := st.Blob("missing"); err == nil {
		t.Fatal("missing blob should error")
	}
	if err := st.Delete("missing"); err == nil {
		t.Fatal("missing delete should error")
	}
}
