package ft

import (
	"math"
	"strings"
	"testing"

	"repro/internal/nn"
)

// testJob is the deterministic 2-class MLP training job the demos ship:
// everything is seeded (dataset, model factory, epoch shuffles), so two
// runs of the same job are bit-comparable.
func testJob(ranks, batchSize, steps int) Job {
	return DemoJob(ranks, batchSize, steps)
}

func testOptions(plan *Plan, every int) Options {
	return Options{
		Plan:       plan,
		Checkpoint: CheckpointConfig{Every: every, Retain: 3},
	}
}

func mustRun(t *testing.T, job Job, opt Options) *Report {
	t.Helper()
	sup, err := NewSupervisor(job, opt)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sup.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestNewSupervisorValidation(t *testing.T) {
	good := testJob(4, 8, 10)
	cases := map[string]func(*Job, *Options){
		"nil model factory": func(j *Job, _ *Options) { j.NewModel = nil },
		"nil opt factory":   func(j *Job, _ *Options) { j.NewOpt = nil },
		"nil loss":          func(j *Job, _ *Options) { j.Loss = nil },
		"nil dataset":       func(j *Job, _ *Options) { j.Xs = nil },
		"size mismatch":     func(j *Job, _ *Options) { j.Ys = nn.OneHot(make([]int, 7), 2) },
		"zero ranks":        func(j *Job, _ *Options) { j.Ranks = 0 },
		"zero steps":        func(j *Job, _ *Options) { j.Steps = 0 },
		"giant batch":       func(j *Job, _ *Options) { j.BatchSize = 1000 },
		"stateless optimizer": func(j *Job, _ *Options) {
			j.NewOpt = func() nn.Optimizer { return statelessOpt{} }
		},
		"invalid plan": func(_ *Job, o *Options) {
			o.Plan = &Plan{Events: []Event{{Rank: 99, Step: 1}}}
		},
	}
	for name, mutate := range cases {
		j, o := good, testOptions(nil, 0)
		mutate(&j, &o)
		if _, err := NewSupervisor(j, o); err == nil {
			t.Errorf("%s: expected a validation error", name)
		}
	}
}

type statelessOpt struct{}

func (statelessOpt) Name() string                                        { return "stateless" }
func (statelessOpt) Step(params []*nn.Param, lr float64)                 {}
func (statelessOpt) StepSpan(params []*nn.Param, lo, hi int, lr float64) {}

func TestFailureFreeRun(t *testing.T) {
	rep := mustRun(t, testJob(4, 8, 60), testOptions(nil, 20))
	if rep.Incarnations != 1 || len(rep.Failures) != 0 || rep.LostSteps != 0 {
		t.Fatalf("failure-free run recovered: %+v", rep)
	}
	if rep.FinalStep != 60 {
		t.Fatalf("FinalStep = %d", rep.FinalStep)
	}
	if !rep.ParamsInSync {
		t.Fatal("replicas out of sync after a failure-free run")
	}
	if rep.Checkpoints != 3 { // steps 20, 40, 60
		t.Fatalf("Checkpoints = %d, want 3", rep.Checkpoints)
	}
	if len(rep.Survivors) != 4 {
		t.Fatalf("Survivors = %v", rep.Survivors)
	}
	if len(rep.FinalParams) == 0 {
		t.Fatal("FinalParams missing")
	}
}

func TestCrashRecovery(t *testing.T) {
	// The canonical scenario: 4 ranks, rank 2 dies at step 50, checkpoints
	// every 20 steps, 100 steps total. The survivors must detect the
	// death, restore from step 40, re-execute the 10 lost steps with 3
	// ranks, and finish in sync.
	plan := &Plan{Events: []Event{{Rank: 2, Step: 50}}}
	rep := mustRun(t, testJob(4, 8, 100), testOptions(plan, 20))

	if rep.Incarnations != 2 {
		t.Fatalf("Incarnations = %d, want 2", rep.Incarnations)
	}
	if len(rep.Failures) != 1 {
		t.Fatalf("Failures = %+v", rep.Failures)
	}
	f := rep.Failures[0]
	if f.Rank != 2 || f.DetectedStep != 50 || f.RestoredStep != 40 || f.LostSteps != 10 {
		t.Fatalf("failure accounting = %+v", f)
	}
	if f.Recovery <= 0 {
		t.Fatal("recovery wall time not measured")
	}
	if rep.LostSteps != 10 {
		t.Fatalf("LostSteps = %d", rep.LostSteps)
	}
	wantSurv := []int{0, 1, 3}
	if len(rep.Survivors) != 3 {
		t.Fatalf("Survivors = %v", rep.Survivors)
	}
	for i, s := range wantSurv {
		if rep.Survivors[i] != s {
			t.Fatalf("Survivors = %v, want %v", rep.Survivors, wantSurv)
		}
	}
	if rep.FinalStep != 100 {
		t.Fatalf("FinalStep = %d", rep.FinalStep)
	}
	if !rep.ParamsInSync {
		t.Fatal("survivors out of sync after recovery")
	}
	if rep.TotalRecovery <= 0 {
		t.Fatal("TotalRecovery not measured")
	}

	// The deterministic log tells the story without wall times.
	joined := strings.Join(rep.Log, "\n")
	for _, want := range []string{
		"crash rank 2 at step 50",
		"incarnation 0: ranks [0 1 2 3] from step 0",
		"suspects ranks [2] dead (survivor frontier step 50)",
		"survivors [0 1 3] resume from checkpoint step 40 (lost 10 steps)",
		"incarnation 1: ranks [0 1 3] from step 40",
	} {
		if !strings.Contains(joined, want) {
			t.Fatalf("log missing %q:\n%s", want, joined)
		}
	}
}

// TestDeterministicRecovery is the acceptance criterion: two runs of the
// same seeded crash plan produce identical recovery logs, identical final
// parameters (bitwise), and identical lost-step counts.
func TestDeterministicRecovery(t *testing.T) {
	run := func() *Report {
		plan := &Plan{Events: []Event{{Rank: 2, Step: 50}}}
		return mustRun(t, testJob(4, 8, 100), testOptions(plan, 20))
	}
	a, b := run(), run()
	if strings.Join(a.Log, "\n") != strings.Join(b.Log, "\n") {
		t.Fatalf("recovery logs differ:\n--- a ---\n%s\n--- b ---\n%s",
			strings.Join(a.Log, "\n"), strings.Join(b.Log, "\n"))
	}
	if a.LostSteps != b.LostSteps {
		t.Fatalf("lost steps differ: %d vs %d", a.LostSteps, b.LostSteps)
	}
	if len(a.FinalParams) == 0 || len(a.FinalParams) != len(b.FinalParams) {
		t.Fatalf("param vectors: %d vs %d", len(a.FinalParams), len(b.FinalParams))
	}
	for i := range a.FinalParams {
		if a.FinalParams[i] != b.FinalParams[i] {
			t.Fatalf("final params diverge at %d: %g vs %g", i, a.FinalParams[i], b.FinalParams[i])
		}
	}
}

// TestConvergenceUnderCrashes checks that a run surviving a crash reaches
// a final loss comparable to the failure-free run: recovery re-executes
// the lost steps over the same global batches, so training is not derailed
// (only the per-rank split of each batch differs after the shrink).
func TestConvergenceUnderCrashes(t *testing.T) {
	clean := mustRun(t, testJob(4, 8, 100), testOptions(nil, 20))
	plan := &Plan{Events: []Event{{Rank: 2, Step: 50}}}
	crashed := mustRun(t, testJob(4, 8, 100), testOptions(plan, 20))
	if !clean.ParamsInSync || !crashed.ParamsInSync {
		t.Fatal("sync invariant broken")
	}
	if crashed.FinalStep != clean.FinalStep {
		t.Fatalf("step counts: %d vs %d", crashed.FinalStep, clean.FinalStep)
	}
	if math.Abs(crashed.FinalLoss-clean.FinalLoss) > 0.1 {
		t.Fatalf("crashed run diverged: loss %.4f vs failure-free %.4f", crashed.FinalLoss, clean.FinalLoss)
	}
	if clean.FinalLoss > 0.35 {
		t.Fatalf("baseline failed to converge: %.4f", clean.FinalLoss)
	}
}

func TestCrashOfRankZero(t *testing.T) {
	// Rank 0 is the checkpoint writer and broadcast root; its death must
	// not take the run down — the lowest surviving rank takes over.
	plan := &Plan{Events: []Event{{Rank: 0, Step: 30}}}
	rep := mustRun(t, testJob(4, 8, 60), testOptions(plan, 10))
	if rep.Incarnations != 2 || len(rep.Failures) != 1 || rep.Failures[0].Rank != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if !rep.ParamsInSync || rep.FinalStep != 60 {
		t.Fatalf("run did not complete cleanly: %+v", rep)
	}
	if rep.Survivors[0] != 1 {
		t.Fatalf("Survivors = %v", rep.Survivors)
	}
	// Checkpoints kept flowing after the writer died (steps 40,50,60 in
	// incarnation 1 written by rank 1).
	if rep.Checkpoints < 5 {
		t.Fatalf("Checkpoints = %d", rep.Checkpoints)
	}
}

func TestTwoSequentialCrashes(t *testing.T) {
	plan := &Plan{Events: []Event{
		{Rank: 1, Step: 25},
		{Rank: 3, Step: 55},
	}}
	rep := mustRun(t, testJob(4, 8, 80), testOptions(plan, 10))
	if rep.Incarnations != 3 || len(rep.Failures) != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Failures[0].Rank != 1 || rep.Failures[1].Rank != 3 {
		t.Fatalf("failures = %+v", rep.Failures)
	}
	// Lost work: 25-20=5 after the first crash, 55-50=5 after the second.
	if rep.LostSteps != 10 {
		t.Fatalf("LostSteps = %d, want 10", rep.LostSteps)
	}
	if len(rep.Survivors) != 2 || rep.Survivors[0] != 0 || rep.Survivors[1] != 2 {
		t.Fatalf("Survivors = %v", rep.Survivors)
	}
	if !rep.ParamsInSync || rep.FinalStep != 80 {
		t.Fatalf("run did not complete: %+v", rep)
	}
}

func TestRecoveryWithoutCheckpoints(t *testing.T) {
	// No periodic checkpoints: recovery restarts training from scratch.
	plan := &Plan{Events: []Event{{Rank: 1, Step: 15}}}
	rep := mustRun(t, testJob(2, 8, 30), testOptions(plan, 0))
	if rep.Incarnations != 2 || rep.Checkpoints != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Failures[0].RestoredStep != 0 || rep.Failures[0].LostSteps != 15 {
		t.Fatalf("failure = %+v", rep.Failures[0])
	}
	if rep.FinalStep != 30 || !rep.ParamsInSync {
		t.Fatalf("run did not complete: %+v", rep)
	}
}

func TestCheckpointRetention(t *testing.T) {
	opt := testOptions(nil, 5)
	opt.Checkpoint.Retain = 2
	st := NewMemStore()
	opt.Store = st
	rep := mustRun(t, testJob(2, 8, 40), opt)
	if rep.Checkpoints != 8 {
		t.Fatalf("Checkpoints = %d", rep.Checkpoints)
	}
	names, _ := st.List()
	if len(names) != 2 {
		t.Fatalf("retention kept %v", names)
	}
	_, step, ok, err := LatestCheckpoint(st, "ft")
	if err != nil || !ok || step != 40 {
		t.Fatalf("latest after retention: step %d ok=%v err=%v", step, ok, err)
	}
}
