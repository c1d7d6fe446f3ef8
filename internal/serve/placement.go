package serve

import (
	"fmt"
	"time"

	"repro/internal/msa"
	"repro/internal/perfmodel"
)

// Plan sizes the serving tier for one MSA module: how many replicas the
// module hosts and what one batch costs there. It encodes the §II-A
// placement question — CM (fast CPU nodes), ESB (many accelerator nodes,
// scale-out), or DAM (few fat accelerator nodes) — as serving parameters
// that a Server can execute via ModeledBackend.
type Plan struct {
	Module *msa.Module
	// Nodes is how many of the module's nodes the tier occupies.
	Nodes int
	// Replicas is the number of serving replicas those nodes host: one
	// per accelerator for GPU-preferring workloads, one per node
	// otherwise.
	Replicas int
	// PerSample is the modeled service time of one sample on one
	// replica (roofline NodeTime of the per-sample workload, divided
	// among the node's replicas).
	PerSample time.Duration
	// Overhead is the modeled fixed per-batch dispatch cost (framework +
	// kernel-launch + one interconnect round trip) — the cost dynamic
	// batching amortizes.
	Overhead time.Duration
}

// dispatchOverheadUS is the fixed per-batch dispatch cost in µs: request
// deserialization, kernel launch, and framework bookkeeping. 500 µs is
// the order measured for TensorFlow-Serving-class stacks; the
// interconnect round trip is added per module.
const dispatchOverheadUS = 500.0

// DerivePlan sizes a serving tier of `nodes` nodes of module m for the
// per-sample workload w (see perfmodel.InferenceWorkload). nodes is
// clamped to the module's size — the ESB's advantage in the placement
// experiment is exactly that its clamp is the largest (§II-A scale-out).
func DerivePlan(w perfmodel.Workload, m *msa.Module, nodes int) Plan {
	if nodes < 1 {
		nodes = 1
	}
	if nodes > m.Nodes() {
		nodes = m.Nodes()
	}
	spec := m.ComputeNode()
	perNode := 1
	if w.PrefersGPU && spec.GPUs() > 0 {
		perNode = spec.GPUs()
	}
	// NodeTime aggregates every accelerator on the node; one replica owns
	// a 1/perNode share of that throughput.
	perSample := perfmodel.NodeTime(w, spec) * float64(perNode)
	overheadSec := (dispatchOverheadUS + 2*m.Interconnect.LatencyUS) * 1e-6
	return Plan{
		Module:    m,
		Nodes:     nodes,
		Replicas:  nodes * perNode,
		PerSample: time.Duration(perSample * float64(time.Second)),
		Overhead:  time.Duration(overheadSec * float64(time.Second)),
	}
}

// Scaled returns the plan with service times divided by speedup — used
// to time-scale a demo so modeled milliseconds stay milliseconds but a
// heavyweight model can be swept quickly.
func (p Plan) Scaled(speedup float64) Plan {
	if speedup <= 0 {
		panic("serve: Scaled needs a positive speedup")
	}
	p.PerSample = time.Duration(float64(p.PerSample) / speedup)
	p.Overhead = time.Duration(float64(p.Overhead) / speedup)
	return p
}

// Backends materializes the plan: Replicas modeled backends, each
// wrapping a fresh inner backend (typically a model replica).
func (p Plan) Backends(inner func() Backend) []Backend {
	out := make([]Backend, p.Replicas)
	for i := range out {
		out[i] = &ModeledBackend{Inner: inner(), Overhead: p.Overhead, PerSample: p.PerSample}
	}
	return out
}

// String summarizes the plan.
func (p Plan) String() string {
	return fmt.Sprintf("%s[%s]: %d nodes → %d replicas, %s/sample + %s/batch",
		p.Module.Name, p.Module.Kind, p.Nodes, p.Replicas,
		p.PerSample.Round(time.Microsecond), p.Overhead.Round(time.Microsecond))
}
