// Package msa models the Modular Supercomputing Architecture described in
// Section II of the paper: a heterogeneous HPC system composed of modules
// (Cluster Module, Extreme Scale Booster, Data Analytics Module, Scalable
// Storage Service Module, Network Attached Memory, Quantum Module), each a
// parallel cluster in its own right, joined by a high-performance network
// federation.
//
// The package is purely descriptive: machine-readable hardware
// specifications with aggregate queries and validation. The companion
// packages consume it — perfmodel derives time-to-solution and energy,
// sched places jobs onto module combinations, and the experiment harness
// renders Table I and the JUWELS configuration (E1, E2) from the reference
// configs in configs.go.
package msa

import (
	"fmt"
	"strings"
)

// ModuleKind identifies the architectural role of a module (Fig. 1).
type ModuleKind string

// The module kinds of Fig. 1.
const (
	ClusterModule  ModuleKind = "CM"   // multi-core CPUs, fast single-thread
	BoosterModule  ModuleKind = "ESB"  // many-core, extreme scale, GCE fabric
	DataAnalytics  ModuleKind = "DAM"  // GPUs/FPGAs + large memory + NVM
	StorageService ModuleKind = "SSSM" // parallel filesystem (Lustre/GPFS)
	NetworkMemory  ModuleKind = "NAM"  // network-attached memory prototype
	QuantumModule  ModuleKind = "QM"   // quantum annealer (D-Wave)
)

// AcceleratorClass distinguishes accelerator silicon.
type AcceleratorClass string

// Accelerator classes present in the DEEP and JUWELS systems.
const (
	AccelGPU  AcceleratorClass = "GPU"
	AccelFPGA AcceleratorClass = "FPGA"
)

// AcceleratorSpec describes one accelerator model.
type AcceleratorSpec struct {
	Name        string
	Class       AcceleratorClass
	FP64TFlops  float64 // peak double precision
	FP32TFlops  float64 // peak single precision
	TensorTFlop float64 // mixed-precision tensor cores (0 if none)
	MemGB       float64
	MemBWGBs    float64
	PowerW      float64
}

// CPUSpec describes one CPU model (per socket).
type CPUSpec struct {
	Name        string
	Cores       int
	ClockGHz    float64
	FlopsPerCyc float64 // per core, including SIMD width × FMA
	PowerW      float64 // TDP per socket
}

// AccelAttach is an accelerator model attached to a node, with a count.
type AccelAttach struct {
	Spec  AcceleratorSpec
	Count int
}

// NodeSpec is the hardware of one node.
type NodeSpec struct {
	CPU      CPUSpec
	Sockets  int
	MemGB    float64
	MemBWGBs float64
	Accels   []AccelAttach
	NVMeTB   float64 // local NVMe SSD capacity (storage)
	NVMTB    float64 // byte-addressable non-volatile memory (e.g. Optane)
	// Service marks login/visualization nodes whose cores are not counted
	// in the compute aggregates the paper reports.
	Service bool
}

// Cores returns compute cores on the node (0 for service nodes).
func (n NodeSpec) Cores() int {
	if n.Service {
		return 0
	}
	return n.CPU.Cores * n.Sockets
}

// GPUs returns the number of GPU accelerators on the node.
func (n NodeSpec) GPUs() int { return n.countAccel(AccelGPU) }

// FPGAs returns the number of FPGA accelerators on the node.
func (n NodeSpec) FPGAs() int { return n.countAccel(AccelFPGA) }

func (n NodeSpec) countAccel(class AcceleratorClass) int {
	total := 0
	for _, a := range n.Accels {
		if a.Spec.Class == class {
			total += a.Count
		}
	}
	return total
}

// CPUPeakGFlops returns the node's peak CPU performance in GFlop/s.
func (n NodeSpec) CPUPeakGFlops() float64 {
	return float64(n.Cores()) * n.CPU.ClockGHz * n.CPU.FlopsPerCyc
}

// PowerW returns a node's nominal power draw (sockets + accelerators +
// a fixed 150 W board/memory/NIC overhead).
func (n NodeSpec) PowerW() float64 {
	p := float64(n.Sockets)*n.CPU.PowerW + 150
	for _, a := range n.Accels {
		p += float64(a.Count) * a.Spec.PowerW
	}
	return p
}

// Link models an interconnect: per-message latency and per-direction
// bandwidth.
type Link struct {
	Name      string
	LatencyUS float64 // one-way latency, microseconds
	BWGBs     float64 // bandwidth per direction, GB/s
}

// NodeGroup is a homogeneous set of nodes inside a module.
type NodeGroup struct {
	Name  string
	Count int
	Node  NodeSpec
}

// StorageSpec describes an SSSM module's parallel filesystem.
type StorageSpec struct {
	Filesystem  string // "Lustre", "GPFS"
	OSTs        int    // object storage targets (stripe targets)
	OSTBWGBs    float64
	CapacityPB  float64
	MetadataOps float64 // metadata ops/s capacity
}

// QuantumSpec describes a QM module's annealer.
type QuantumSpec struct {
	Device   string
	Qubits   int
	Couplers int
}

// NAMSpec describes the Network Attached Memory prototype.
type NAMSpec struct {
	CapacityGB float64
	BWGBs      float64
	LatencyUS  float64
}

// Module is one MSA module: a parallel cluster with its own interconnect.
type Module struct {
	Kind         ModuleKind
	Name         string
	Groups       []NodeGroup
	Interconnect Link
	HasGCE       bool // FPGA Global Collective Engine in fabric (ESB)
	Storage      *StorageSpec
	Quantum      *QuantumSpec
	NAM          *NAMSpec
}

// Nodes returns the total node count of the module.
func (m *Module) Nodes() int {
	n := 0
	for _, g := range m.Groups {
		n += g.Count
	}
	return n
}

// ComputeNode returns the node spec of the module's largest non-service
// group: the compute partition that placements, the scheduler and the
// serving tier size work against. Ties go to the earlier group. It panics
// if the module has no compute group.
func (m *Module) ComputeNode() NodeSpec {
	best := -1
	var spec NodeSpec
	for _, g := range m.Groups {
		if g.Node.Service {
			continue
		}
		if g.Count > best {
			best = g.Count
			spec = g.Node
		}
	}
	if best < 0 {
		panic(fmt.Sprintf("msa: module %s has no compute group", m.Name))
	}
	return spec
}

// Cores returns total compute cores in the module.
func (m *Module) Cores() int {
	n := 0
	for _, g := range m.Groups {
		n += g.Count * g.Node.Cores()
	}
	return n
}

// GPUs returns total GPUs in the module.
func (m *Module) GPUs() int {
	n := 0
	for _, g := range m.Groups {
		n += g.Count * g.Node.GPUs()
	}
	return n
}

// FPGAs returns total FPGAs in the module.
func (m *Module) FPGAs() int {
	n := 0
	for _, g := range m.Groups {
		n += g.Count * g.Node.FPGAs()
	}
	return n
}

// TotalMemGB returns aggregate CPU DRAM across the module.
func (m *Module) TotalMemGB() float64 {
	s := 0.0
	for _, g := range m.Groups {
		s += float64(g.Count) * g.Node.MemGB
	}
	return s
}

// TotalNVMTB returns aggregate byte-addressable NVM across the module
// (the DEEP DAM's "aggregated 32 TB of NVM", §II-B).
func (m *Module) TotalNVMTB() float64 {
	s := 0.0
	for _, g := range m.Groups {
		s += float64(g.Count) * g.Node.NVMTB
	}
	return s
}

// System is a complete MSA machine: modules joined by a federation link.
type System struct {
	Name       string
	Modules    []*Module
	Federation Link
}

// Module returns the first module of the given kind, or nil.
func (s *System) Module(kind ModuleKind) *Module {
	for _, m := range s.Modules {
		if m.Kind == kind {
			return m
		}
	}
	return nil
}

// CheckpointTargets returns the storage endpoints a job on this system
// can flush coordinated checkpoints to: the SSSM module's parallel
// filesystem and, when the machine has one, the NAM module's
// network-attached memory. Either may be nil when the module is absent —
// module-aware checkpoint placement (internal/ft) degrades to whichever
// target exists.
func (s *System) CheckpointTargets() (*StorageSpec, *NAMSpec) {
	var fs *StorageSpec
	var nam *NAMSpec
	if m := s.Module(StorageService); m != nil {
		fs = m.Storage
	}
	if m := s.Module(NetworkMemory); m != nil {
		nam = m.NAM
	}
	return fs, nam
}

// ModuleByName returns the named module, or nil.
func (s *System) ModuleByName(name string) *Module {
	for _, m := range s.Modules {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// Summary renders a one-line-per-module overview of the system.
func (s *System) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "System %s (federation: %s, %.1f µs, %.0f GB/s)\n",
		s.Name, s.Federation.Name, s.Federation.LatencyUS, s.Federation.BWGBs)
	for _, m := range s.Modules {
		fmt.Fprintf(&b, "  [%-4s] %-22s nodes=%-5d cores=%-7d gpus=%-5d fpgas=%-3d mem=%.0f GB",
			m.Kind, m.Name, m.Nodes(), m.Cores(), m.GPUs(), m.FPGAs(), m.TotalMemGB())
		if m.HasGCE {
			b.WriteString(" +GCE")
		}
		if m.Storage != nil {
			fmt.Fprintf(&b, " %s %.1f PB (%d OSTs)", m.Storage.Filesystem, m.Storage.CapacityPB, m.Storage.OSTs)
		}
		if m.Quantum != nil {
			fmt.Fprintf(&b, " %s: %d qubits / %d couplers", m.Quantum.Device, m.Quantum.Qubits, m.Quantum.Couplers)
		}
		if m.NAM != nil {
			fmt.Fprintf(&b, " NAM %.0f GB @ %.0f GB/s", m.NAM.CapacityGB, m.NAM.BWGBs)
		}
		b.WriteString("\n")
	}
	return b.String()
}
