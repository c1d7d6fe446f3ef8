package sched

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/msa"
)

// testSystem builds a small 3-module MSA for scheduling tests.
func testSystem(cmNodes, esbNodes, damNodes int) *msa.System {
	node := func(cpu msa.CPUSpec, gpus int) msa.NodeSpec {
		n := msa.NodeSpec{CPU: cpu, Sockets: 2, MemGB: 96, MemBWGBs: 200}
		if gpus > 0 {
			n.Accels = []msa.AccelAttach{{Spec: msa.V100, Count: gpus}}
		}
		return n
	}
	return &msa.System{
		Name:       "test",
		Federation: msa.Extoll,
		Modules: []*msa.Module{
			{Kind: msa.ClusterModule, Name: "cm", Interconnect: msa.InfinibandEDR,
				Groups: []msa.NodeGroup{{Count: cmNodes, Node: node(msa.Skylake8168, 0)}}},
			{Kind: msa.BoosterModule, Name: "esb", Interconnect: msa.Extoll, HasGCE: true,
				Groups: []msa.NodeGroup{{Count: esbNodes, Node: node(msa.XeonPhiLike, 1)}}},
			{Kind: msa.DataAnalytics, Name: "dam", Interconnect: msa.Extoll,
				Groups: []msa.NodeGroup{{Count: damNodes, Node: node(msa.CascadeLake, 1)}}},
		},
	}
}

func simpleJob(id int, submit float64, nodes int, kind msa.ModuleKind, dur float64) Job {
	return Job{ID: id, Submit: submit, Phases: []Phase{{
		Name: "p", Nodes: nodes, Runtime: map[msa.ModuleKind]float64{kind: dur},
	}}}
}

func TestSingleJobRuns(t *testing.T) {
	sys := testSystem(4, 4, 4)
	rep, res := simulate(sys, []Job{simpleJob(0, 0, 2, msa.ClusterModule, 100)}, Options{})
	if rep.Makespan != 100 {
		t.Fatalf("makespan %f", rep.Makespan)
	}
	if len(res) != 1 || res[0].Wait() != 0 {
		t.Fatalf("job results: %+v", res)
	}
	if res[0].Phases[0].Module != "cm" {
		t.Fatalf("placed on %s", res[0].Phases[0].Module)
	}
}

func TestJobsQueueWhenFull(t *testing.T) {
	sys := testSystem(2, 2, 2)
	jobs := []Job{
		simpleJob(0, 0, 2, msa.ClusterModule, 100),
		simpleJob(1, 0, 2, msa.ClusterModule, 100),
	}
	rep, res := simulate(sys, jobs, Options{})
	if rep.Makespan != 200 {
		t.Fatalf("makespan %f, want 200 (serialized)", rep.Makespan)
	}
	if res[1].Wait() != 100 {
		t.Fatalf("second job wait %f", res[1].Wait())
	}
}

func TestJobsRunConcurrentlyAcrossModules(t *testing.T) {
	sys := testSystem(2, 2, 2)
	jobs := []Job{
		simpleJob(0, 0, 2, msa.ClusterModule, 100),
		simpleJob(1, 0, 2, msa.BoosterModule, 100),
	}
	rep := Simulate(sys, jobs, Options{})
	if rep.Makespan != 100 {
		t.Fatalf("modules should run in parallel: makespan %f", rep.Makespan)
	}
}

func TestPhaseChainRunsSequentially(t *testing.T) {
	sys := testSystem(4, 4, 4)
	job := Job{ID: 0, Phases: []Phase{
		{Name: "a", Nodes: 1, Runtime: map[msa.ModuleKind]float64{msa.ClusterModule: 50}},
		{Name: "b", Nodes: 2, Runtime: map[msa.ModuleKind]float64{msa.BoosterModule: 70}},
	}}
	rep, res := simulate(sys, []Job{job}, Options{})
	if rep.Makespan != 120 {
		t.Fatalf("phase chain makespan %f", rep.Makespan)
	}
	ph := res[0].Phases
	if len(ph) != 2 || ph[0].Module != "cm" || ph[1].Module != "esb" {
		t.Fatalf("phases: %+v", ph)
	}
	if ph[1].Start != ph[0].End {
		t.Fatal("phase 2 must start when phase 1 ends")
	}

	// An ETL phase on the DAM feeding a training phase on the booster,
	// beside an independent cluster job: the chain sets the makespan.
	jobs := []Job{
		{ID: 0, Submit: 0, Phases: []Phase{
			{Name: "etl", Nodes: 2, Runtime: map[msa.ModuleKind]float64{msa.DataAnalytics: 50}},
			{Name: "dl", Nodes: 2, Runtime: map[msa.ModuleKind]float64{msa.BoosterModule: 100}},
		}},
		simpleJob(1, 10, 1, msa.ClusterModule, 30),
	}
	if rep := Simulate(sys, jobs, Options{}); rep.Makespan != 150 {
		t.Fatalf("ETL→train chain makespan %f, want 150", rep.Makespan)
	}
}

func TestBestModuleSelection(t *testing.T) {
	sys := testSystem(4, 4, 4)
	job := Job{ID: 0, Phases: []Phase{{
		Name: "train", Nodes: 2,
		Runtime: map[msa.ModuleKind]float64{
			msa.ClusterModule: 400,
			msa.DataAnalytics: 100, // fastest
			msa.BoosterModule: 150,
		},
	}}}
	rep, res := simulate(sys, []Job{job}, Options{})
	if res[0].Phases[0].Module != "dam" {
		t.Fatalf("placed on %s, want dam", res[0].Phases[0].Module)
	}
	if rep.Makespan != 100 {
		t.Fatalf("makespan %f", rep.Makespan)
	}
}

func TestSubmitTimeRespected(t *testing.T) {
	sys := testSystem(4, 4, 4)
	rep, res := simulate(sys, []Job{simpleJob(0, 500, 1, msa.ClusterModule, 10)}, Options{})
	if res[0].Start != 500 || rep.Makespan != 510 {
		t.Fatalf("start %f makespan %f", res[0].Start, rep.Makespan)
	}
}

func TestBackfillImprovesUtilization(t *testing.T) {
	sys := testSystem(4, 1, 1)
	// Head-of-line blocking scenario on the CM: a wide job blocks, a
	// narrow short job could backfill.
	jobs := []Job{
		simpleJob(0, 0, 4, msa.ClusterModule, 100), // occupies everything
		simpleJob(1, 1, 4, msa.ClusterModule, 100), // must wait (head)
		simpleJob(2, 2, 1, msa.ClusterModule, 50),  // could backfill? no free nodes until t=100
	}
	// With all 4 nodes busy nothing backfills; extend with a scenario
	// where 2 nodes stay free:
	jobs = []Job{
		simpleJob(0, 0, 2, msa.ClusterModule, 100), // leaves 2 free
		simpleJob(1, 1, 4, msa.ClusterModule, 100), // head: needs all 4, waits until 100
		simpleJob(2, 2, 2, msa.ClusterModule, 50),  // fits now, ends at 52 < 100: backfillable
	}
	fcfs, fcfsRes := simulate(sys, jobs, Options{Backfill: false})
	easy, easyRes := simulate(sys, jobs, Options{Backfill: true})
	// FCFS: job2 waits behind the head → starts at 100+100=200? No: after
	// head starts at 100, job2 starts at 200? The head runs 100..200, so
	// job2 (2 nodes) can start at 100 only if nodes free — head takes all
	// 4 → job2 runs 200..250, makespan 250. EASY: job2 runs 2..52,
	// head 100..200, makespan 200.
	if easy.Makespan >= fcfs.Makespan {
		t.Fatalf("backfill should shorten makespan: easy=%f fcfs=%f", easy.Makespan, fcfs.Makespan)
	}
	// Backfill must not delay the head job.
	headFCFS := fcfsRes[1].Start
	headEASY := easyRes[1].Start
	if headEASY > headFCFS+1e-9 {
		t.Fatalf("backfill delayed the head: %f vs %f", headEASY, headFCFS)
	}
}

func TestUtilizationBounds(t *testing.T) {
	sys := testSystem(16, 16, 16)
	jobs := GenWorkload(20, 1)
	rep := Simulate(sys, jobs, Options{Backfill: true})
	for name, u := range rep.Utilization {
		if u < 0 || u > 1+1e-9 {
			t.Fatalf("utilization of %s out of bounds: %f", name, u)
		}
	}
	if rep.EnergyJ <= 0 {
		t.Fatal("energy must be positive")
	}
}

func TestEnergyMatchesPhaseSum(t *testing.T) {
	sys := testSystem(4, 4, 4)
	rep := Simulate(sys, []Job{simpleJob(0, 0, 2, msa.ClusterModule, 100)}, Options{})
	spec := sys.Module(msa.ClusterModule).Groups[0].Node
	want := spec.PowerW() * 2 * 100
	if math.Abs(rep.EnergyJ-want) > 1e-6 {
		t.Fatalf("energy %f want %f", rep.EnergyJ, want)
	}
}

func TestSimulatePanicsOnImpossiblePhase(t *testing.T) {
	sys := testSystem(2, 2, 2)
	job := simpleJob(0, 0, 100, msa.ClusterModule, 10) // needs 100 nodes
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Simulate(sys, []Job{job}, Options{})
}

func TestGenWorkloadDeterministic(t *testing.T) {
	a := GenWorkload(10, 42)
	b := GenWorkload(10, 42)
	for i := range a {
		if a[i].Submit != b[i].Submit || len(a[i].Phases) != len(b[i].Phases) || a[i].Phases[0].Name != b[i].Phases[0].Name {
			t.Fatal("workload must be deterministic by seed")
		}
	}
	if len(a) != 10 {
		t.Fatal("job count")
	}
	// Arrivals are increasing.
	for i := 1; i < len(a); i++ {
		if a[i].Submit < a[i-1].Submit {
			t.Fatal("arrivals must be non-decreasing")
		}
	}
}

// TestModularBeatsMonolithic is experiment E10's headline: the same
// workload on the MSA (modules matched to phases) versus a monolithic
// CPU-only cluster of equal node count must favor the MSA in makespan.
func TestModularBeatsMonolithic(t *testing.T) {
	sys := testSystem(16, 16, 16)
	jobs := GenWorkload(40, 7)
	modular := Simulate(sys, jobs, Options{Backfill: true})
	monoCPU := Simulate(Monolithic(sys, msa.ClusterModule), jobs, Options{Backfill: true})
	if modular.Makespan >= monoCPU.Makespan {
		t.Fatalf("modular (%f) should beat monolithic CPU (%f)", modular.Makespan, monoCPU.Makespan)
	}
}

func TestMonolithicBuilder(t *testing.T) {
	sys := testSystem(8, 8, 8)
	mono := Monolithic(sys, msa.ClusterModule)
	if len(mono.Modules) != 1 || mono.Modules[0].Nodes() != 24 {
		t.Fatalf("monolithic: %+v", mono.Modules[0])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing kind")
		}
	}()
	Monolithic(sys, msa.QuantumModule)
}

func TestClassPhasesAllClasses(t *testing.T) {
	for _, c := range []JobClass{JobSimulation, JobDLTraining, JobAnalytics, JobPrePost, JobCoupled} {
		jobs := GenWorkload(50, 3)
		_ = jobs
		phases := classPhases(c, newTestRng())
		if len(phases) == 0 {
			t.Fatalf("class %s has no phases", c)
		}
		for _, ph := range phases {
			if ph.Nodes <= 0 || len(ph.Runtime) == 0 {
				t.Fatalf("class %s phase malformed: %+v", c, ph)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown class")
		}
	}()
	classPhases(JobClass("nope"), newTestRng())
}

func newTestRng() *rand.Rand { return rand.New(rand.NewSource(1)) }

// TestSchedulerInvariantsProperty checks, over random workloads and both
// scheduling policies, the structural invariants of a correct schedule:
// capacity is never exceeded, phases within a job run in order without
// overlap, no job starts before its submit time, and every job finishes.
func TestSchedulerInvariantsProperty(t *testing.T) {
	f := func(seed int64, backfillRaw bool) bool {
		nJobs := 5 + int(seed%20+20)%20
		jobs := GenWorkload(nJobs, seed)
		sys := testSystem(16, 16, 16)
		rep, res := simulate(sys, jobs, Options{Backfill: backfillRaw})
		// Capacity invariant.
		for name, peak := range rep.PeakNodes {
			if peak > rep.Capacity[name] {
				t.Logf("capacity exceeded on %s: %d > %d", name, peak, rep.Capacity[name])
				return false
			}
		}
		for _, jr := range res {
			if jr.Start < jr.Submit-1e-9 {
				t.Logf("job %d started before submit", jr.JobID)
				return false
			}
			if len(jr.Phases) == 0 || jr.Phases[len(jr.Phases)-1].End <= 0 {
				t.Logf("job %d did not finish", jr.JobID)
				return false
			}
			for i := 1; i < len(jr.Phases); i++ {
				if jr.Phases[i].PhaseIdx != jr.Phases[i-1].PhaseIdx+1 {
					t.Logf("job %d phases out of order", jr.JobID)
					return false
				}
				if jr.Phases[i].Start < jr.Phases[i-1].End-1e-9 {
					t.Logf("job %d phases overlap", jr.JobID)
					return false
				}
			}
			if jr.Phases[len(jr.Phases)-1].End > rep.Makespan+1e-9 {
				t.Logf("job %d ends after makespan", jr.JobID)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
