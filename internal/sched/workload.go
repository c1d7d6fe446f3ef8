package sched

import (
	"fmt"
	"math/rand"

	"repro/internal/msa"
)

// JobClass labels the workload archetypes of Fig. 2 used by the E10
// scheduling experiment.
type JobClass string

// Workload archetypes.
const (
	JobSimulation JobClass = "simulation"  // scalable numerics: ESB-best
	JobDLTraining JobClass = "dl-training" // GPU-bound: DAM-best
	JobAnalytics  JobClass = "analytics"   // memory-bound: DAM/CM
	JobPrePost    JobClass = "prepost"     // serial-ish tooling: CM-best
	JobCoupled    JobClass = "coupled"     // prep on CM then scale on ESB
)

// classPhases returns the phase chain for a job class. Runtimes express
// the Fig. 2 narrative: each class has a best-fit module and pays a
// slowdown elsewhere (mismatch factors follow the perfmodel efficiency
// table: e.g. DL training runs ~4× slower CPU-only, simulations gain
// little from the DAM's GPUs).
func classPhases(class JobClass, rng *rand.Rand) []Phase {
	scale := 0.5 + rng.Float64() // per-job size jitter
	switch class {
	case JobSimulation:
		return []Phase{{
			Name: "solve", Nodes: 4 + rng.Intn(12),
			Runtime: map[msa.ModuleKind]float64{
				msa.BoosterModule: 3600 * scale,
				msa.ClusterModule: 5400 * scale,
				msa.DataAnalytics: 9000 * scale,
			},
		}}
	case JobDLTraining:
		return []Phase{{
			Name: "train", Nodes: 2 + rng.Intn(6),
			Runtime: map[msa.ModuleKind]float64{
				msa.DataAnalytics: 1800 * scale,
				msa.BoosterModule: 2200 * scale,
				msa.ClusterModule: 7200 * scale,
			},
		}}
	case JobAnalytics:
		return []Phase{{
			Name: "spark", Nodes: 2 + rng.Intn(4),
			Runtime: map[msa.ModuleKind]float64{
				msa.DataAnalytics: 1200 * scale,
				msa.ClusterModule: 2000 * scale,
				msa.BoosterModule: 4000 * scale,
			},
		}}
	case JobPrePost:
		return []Phase{{
			Name: "prep", Nodes: 1,
			Runtime: map[msa.ModuleKind]float64{
				msa.ClusterModule: 600 * scale,
				msa.DataAnalytics: 700 * scale,
				msa.BoosterModule: 1500 * scale,
			},
		}}
	case JobCoupled:
		return []Phase{
			{
				Name: "prep", Nodes: 2,
				Runtime: map[msa.ModuleKind]float64{
					msa.ClusterModule: 900 * scale,
					msa.DataAnalytics: 1100 * scale,
					msa.BoosterModule: 2500 * scale,
				},
			},
			{
				Name: "scale", Nodes: 8 + rng.Intn(8),
				Runtime: map[msa.ModuleKind]float64{
					msa.BoosterModule: 2400 * scale,
					msa.ClusterModule: 4800 * scale,
					msa.DataAnalytics: 6000 * scale,
				},
			},
		}
	default:
		panic(fmt.Sprintf("sched: unknown job class %q", class))
	}
}

// GenWorkload produces a mixed trace of n jobs with Poisson-ish arrivals
// (the heterogeneous application portfolio of §I).
func GenWorkload(n int, seed int64) []Job {
	rng := rand.New(rand.NewSource(seed))
	classes := []JobClass{JobSimulation, JobDLTraining, JobAnalytics, JobPrePost, JobCoupled}
	weights := []float64{0.25, 0.25, 0.2, 0.2, 0.1}
	jobs := make([]Job, n)
	arrival := 0.0
	for i := 0; i < n; i++ {
		arrival += rng.ExpFloat64() * 300 // ~1 job / 5 min
		c := pickClass(rng, classes, weights)
		jobs[i] = Job{ID: i, Submit: arrival, Phases: classPhases(c, rng)}
	}
	return jobs
}

func pickClass(rng *rand.Rand, classes []JobClass, weights []float64) JobClass {
	r := rng.Float64()
	acc := 0.0
	for i, w := range weights {
		acc += w
		if r < acc {
			return classes[i]
		}
	}
	return classes[len(classes)-1]
}

// Monolithic builds a single-module system of the given kind with the
// same total node count (and node hardware) as the reference system's
// compute modules combined — the "replicate many identical nodes"
// tradition the MSA breaks with (§II).
func Monolithic(ref *msa.System, kind msa.ModuleKind) *msa.System {
	var src *msa.Module
	total := 0
	for _, m := range ref.Modules {
		switch m.Kind {
		case msa.StorageService, msa.NetworkMemory, msa.QuantumModule:
			continue
		}
		total += m.Nodes()
		if m.Kind == kind {
			src = m
		}
	}
	if src == nil {
		panic(fmt.Sprintf("sched: reference system has no %s module", kind))
	}
	spec := src.ComputeNode()
	return &msa.System{
		Name:       ref.Name + "-mono-" + string(kind),
		Federation: ref.Federation,
		Modules: []*msa.Module{{
			Kind: kind, Name: "mono-" + string(kind),
			Interconnect: src.Interconnect,
			Groups:       []msa.NodeGroup{{Count: total, Node: spec}},
		}},
	}
}
