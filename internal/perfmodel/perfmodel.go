// Package perfmodel derives time-to-solution and energy for workloads
// mapped onto MSA modules. It combines a roofline-style node model
// (compute- vs memory-bound), an Amdahl/communication scaling model, and
// the LogP-style collective cost model from the mpi package.
//
// The experiments use it in two ways: (i) to project measured small-scale
// results to the paper's scales (96/128 GPUs for the ResNet-50 case study,
// E3/E5), and (ii) to quantify the MSA's headline claim that running each
// part of an application on matching hardware improves time-to-solution
// and energy over any monolithic choice (E13).
package perfmodel

import (
	"fmt"
	"math"

	"repro/internal/mpi"
	"repro/internal/msa"
)

// Class labels a workload with the application-archetype of Fig. 2.
type Class string

// Workload classes as discussed in the paper's Fig. 2 and Section I.
const (
	ClassSimulation  Class = "simulation"    // iterative numerics, strong comm
	ClassHPDA        Class = "hpda"          // data analytics, memory-bound
	ClassDLTraining  Class = "dl-training"   // dense matmul, GPU-friendly
	ClassDLInference Class = "dl-inference"  // lighter compute, scale-out
	ClassLowScale    Class = "low-scalable"  // high data management needs
	ClassHighScale   Class = "high-scalable" // regular comm patterns
)

// Workload is a resource-demand description of one application phase.
type Workload struct {
	Name  string
	Class Class
	// Flops is total floating-point work for the phase.
	Flops float64
	// Bytes is total main-memory traffic for the phase (roofline).
	Bytes float64
	// ParallelFrac is the Amdahl parallel fraction in [0,1].
	ParallelFrac float64
	// CommElems is the allreduce payload (float64 elements) exchanged per
	// step when run distributed; Steps is how many such steps occur.
	CommElems int
	Steps     int
	// PrefersGPU marks workloads whose kernels run on accelerators when
	// available (DL training/inference).
	PrefersGPU bool
	// MemoryGB is the working-set size; modules whose nodes cannot hold
	// it per node are penalized with out-of-core traffic.
	MemoryGB float64
}

// Efficiency is the fraction of peak a workload class achieves on a given
// engine; these are the standard sustained-vs-peak derates used in system
// sizing (dense DL kernels run near peak, sparse analytics far from it).
func Efficiency(c Class, onGPU bool) float64 {
	switch c {
	case ClassDLTraining:
		if onGPU {
			// Sustained fraction of *tensor-core* peak for ResNet-class
			// training (≈1400 img/s on one A100 at mixed precision).
			return 0.15
		}
		return 0.20
	case ClassDLInference:
		if onGPU {
			return 0.35
		}
		return 0.25
	case ClassSimulation:
		if onGPU {
			return 0.15
		}
		return 0.30
	case ClassHPDA, ClassLowScale:
		if onGPU {
			return 0.05
		}
		return 0.10
	case ClassHighScale:
		if onGPU {
			return 0.25
		}
		return 0.30
	default:
		return 0.10
	}
}

// NodeTime returns the single-node execution time (seconds) of w on node
// spec n: the roofline max of compute time and memory-traffic time, with
// an out-of-core penalty when the working set exceeds node DRAM.
func NodeTime(w Workload, n msa.NodeSpec) float64 {
	useGPU := w.PrefersGPU && n.GPUs() > 0
	var peakFlops float64
	if useGPU {
		for _, a := range n.Accels {
			if a.Spec.Class == msa.AccelGPU {
				peak := a.Spec.FP32TFlops
				if w.Class == ClassDLTraining || w.Class == ClassDLInference {
					if a.Spec.TensorTFlop > 0 {
						peak = a.Spec.TensorTFlop
					}
				}
				peakFlops += float64(a.Count) * peak * 1e12
			}
		}
	} else {
		peakFlops = n.CPUPeakGFlops() * 1e9
	}
	if peakFlops <= 0 {
		return math.Inf(1)
	}
	eff := Efficiency(w.Class, useGPU)
	tCompute := w.Flops / (peakFlops * eff)

	memBW := n.MemBWGBs * 1e9
	if useGPU {
		gbw := 0.0
		for _, a := range n.Accels {
			if a.Spec.Class == msa.AccelGPU {
				gbw += float64(a.Count) * a.Spec.MemBWGBs * 1e9
			}
		}
		if gbw > 0 {
			memBW = gbw
		}
	}
	tMem := w.Bytes / memBW
	t := math.Max(tCompute, tMem)

	// Out-of-core penalty: working set beyond DRAM spills to NVMe (or the
	// SSSM when no NVMe exists) at roughly 1/20 of DRAM bandwidth.
	if w.MemoryGB > n.MemGB && n.MemGB > 0 {
		spill := (w.MemoryGB - n.MemGB) / w.MemoryGB
		t += spill * w.Bytes / (memBW / 20)
	}
	return t
}

// ScaledTime returns execution time of w on `nodes` nodes of spec n joined
// by link l: Amdahl-scaled compute plus per-step allreduce cost.
func ScaledTime(w Workload, n msa.NodeSpec, l msa.Link, nodes int, algo mpi.Algo) float64 {
	if nodes < 1 {
		panic(fmt.Sprintf("perfmodel: nodes must be >=1, got %d", nodes))
	}
	t1 := NodeTime(w, n)
	serial := 1 - w.ParallelFrac
	tCompute := t1 * (serial + w.ParallelFrac/float64(nodes))
	tComm := 0.0
	if nodes > 1 && w.CommElems > 0 && w.Steps > 0 {
		alpha := l.LatencyUS * 1e-6
		beta := 8 / (l.BWGBs * 1e9) // float64 elements
		tComm = float64(w.Steps) * mpi.CollectiveCostModel(algo, nodes, w.CommElems, alpha, beta, gceFactor)
	}
	return tCompute + tComm
}

// gceFactor is how much faster the in-fabric FPGA reduction completes
// compared with an equivalent software exchange (calibrated to the DEEP
// GCE prototype's reported collective speedups).
const gceFactor = 4.0

// Placement is a workload mapped onto a number of nodes of a module.
type Placement struct {
	Module *msa.Module
	Nodes  int
}

// Result is the evaluated cost of a placement.
type Result struct {
	Seconds float64
	Joules  float64
}

// Evaluate runs the model for w on placement p, using the module's own
// interconnect (and GCE when present and beneficial).
func Evaluate(w Workload, p Placement) Result {
	if p.Nodes < 1 || p.Nodes > p.Module.Nodes() {
		panic(fmt.Sprintf("perfmodel: placement of %d nodes on module %s with %d nodes", p.Nodes, p.Module.Name, p.Module.Nodes()))
	}
	spec := p.Module.ComputeNode()
	algo := mpi.AlgoRing
	if p.Module.HasGCE {
		algo = mpi.AlgoGCE
	}
	t := ScaledTime(w, spec, p.Module.Interconnect, p.Nodes, algo)
	power := spec.PowerW() * float64(p.Nodes)
	return Result{Seconds: t, Joules: power * t}
}

// InferenceWorkload describes one online-inference request as a
// perfmodel workload: per-sample forward flops and activation/weight
// traffic. Serving derives per-replica service times from it via
// NodeTime (internal/serve.DerivePlan).
func InferenceWorkload(name string, flopsPerSample, bytesPerSample float64) Workload {
	return Workload{
		Name: name, Class: ClassDLInference,
		Flops: flopsPerSample, Bytes: bytesPerSample,
		ParallelFrac: 1, PrefersGPU: true,
	}
}

// BestModule evaluates w on up to maxNodes nodes of every compute module
// in sys and returns the module with the lowest time-to-solution along
// with the per-module results (for the E13 assignment table).
func BestModule(w Workload, sys *msa.System, maxNodes int) (best *msa.Module, all map[string]Result) {
	all = make(map[string]Result)
	bestT := math.Inf(1)
	for _, m := range sys.Modules {
		switch m.Kind {
		case msa.StorageService, msa.NetworkMemory, msa.QuantumModule:
			continue
		}
		nodes := maxNodes
		if nodes > m.Nodes() {
			nodes = m.Nodes()
		}
		r := Evaluate(w, Placement{Module: m, Nodes: nodes})
		all[m.Name] = r
		if r.Seconds < bestT {
			bestT = r.Seconds
			best = m
		}
	}
	return best, all
}

// TwoPhaseApp models the MSA motivating scenario of Fig. 2: an application
// with a low-scalable, data-heavy phase and a highly scalable compute
// phase, with DataGB handed between the phases.
type TwoPhaseApp struct {
	PhaseA Workload // e.g. data management / preprocessing
	PhaseB Workload // e.g. scalable training / simulation
	DataGB float64  // intermediate data passed from A to B
}

// MonolithicTime runs both phases on the same module (nodesA and nodesB
// nodes respectively; no federation transfer needed).
func (app TwoPhaseApp) MonolithicTime(m *msa.Module, nodesA, nodesB int) Result {
	ra := Evaluate(app.PhaseA, Placement{Module: m, Nodes: nodesA})
	rb := Evaluate(app.PhaseB, Placement{Module: m, Nodes: nodesB})
	return Result{Seconds: ra.Seconds + rb.Seconds, Joules: ra.Joules + rb.Joules}
}

// ModularTime runs phase A on ma and phase B on mb, paying a federation
// transfer of DataGB between them (the MSA execution, Fig. 1).
func (app TwoPhaseApp) ModularTime(ma, mb *msa.Module, fed msa.Link, nodesA, nodesB int) Result {
	ra := Evaluate(app.PhaseA, Placement{Module: ma, Nodes: nodesA})
	rb := Evaluate(app.PhaseB, Placement{Module: mb, Nodes: nodesB})
	tXfer := fed.LatencyUS*1e-6 + app.DataGB/fed.BWGBs
	// Transfer energy: both endpoints' node power for the transfer window.
	eXfer := (ma.ComputeNode().PowerW()*float64(nodesA) + mb.ComputeNode().PowerW()*float64(nodesB)) * tXfer * 0.5
	return Result{
		Seconds: ra.Seconds + tXfer + rb.Seconds,
		Joules:  ra.Joules + rb.Joules + eXfer,
	}
}
