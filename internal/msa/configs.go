package msa

import (
	"fmt"
	"strings"
)

// Accelerator catalog used by the reference systems.
var (
	// V100 is the NVIDIA Tesla V100 (SXM2 32 GB variant is used in DEEP's
	// DAM with 32 GB HBM2, Table I).
	V100 = AcceleratorSpec{
		Name: "NVIDIA V100", Class: AccelGPU,
		FP64TFlops: 7.8, FP32TFlops: 15.7, TensorTFlop: 125,
		MemGB: 32, MemBWGBs: 900, PowerW: 300,
	}
	// A100 is the NVIDIA A100-SXM4-40GB in the JUWELS booster (§III-A,
	// §IV-A: "latest cuDNN support ... tensor cores").
	A100 = AcceleratorSpec{
		Name: "NVIDIA A100", Class: AccelGPU,
		FP64TFlops: 9.7, FP32TFlops: 19.5, TensorTFlop: 312,
		MemGB: 40, MemBWGBs: 1555, PowerW: 400,
	}
	// Stratix10 is the Intel STRATIX10 FPGA PCIe3 card of the DEEP DAM
	// (Table I: 32 GB DDR4 FPGA memory per node).
	Stratix10 = AcceleratorSpec{
		Name: "Intel STRATIX10", Class: AccelFPGA,
		FP64TFlops: 1.3, FP32TFlops: 2.6,
		MemGB: 32, MemBWGBs: 77, PowerW: 225,
	}
)

// CPU catalog.
var (
	// CascadeLake is the Intel Xeon Cascade Lake of the DEEP DAM (Table I
	// lists 2× per node). Modeled on Xeon Gold 6230: 20 cores @ 2.1 GHz,
	// AVX-512 (2×FMA ⇒ 32 flops/cycle fp64).
	CascadeLake = CPUSpec{Name: "Intel Xeon Cascade Lake 6230", Cores: 20, ClockGHz: 2.1, FlopsPerCyc: 32, PowerW: 125}
	// Skylake8168 is the Xeon Platinum 8168 of JUWELS cluster compute
	// nodes: 24 cores @ 2.7 GHz.
	Skylake8168 = CPUSpec{Name: "Intel Xeon Platinum 8168", Cores: 24, ClockGHz: 2.7, FlopsPerCyc: 32, PowerW: 205}
	// Skylake6148 is the Xeon Gold 6148 of JUWELS cluster GPU nodes:
	// 20 cores @ 2.4 GHz.
	Skylake6148 = CPUSpec{Name: "Intel Xeon Gold 6148", Cores: 20, ClockGHz: 2.4, FlopsPerCyc: 32, PowerW: 150}
	// EPYC7402 is the AMD EPYC 7402 Rome of JUWELS booster nodes:
	// 24 cores @ 2.8 GHz, AVX2 (16 flops/cycle fp64).
	EPYC7402 = CPUSpec{Name: "AMD EPYC 7402", Cores: 24, ClockGHz: 2.8, FlopsPerCyc: 16, PowerW: 180}
	// XeonPhiLike stands in for the ESB many-core nodes of the DEEP
	// system: many moderate cores (§II-A: "each of the many CPU cores ...
	// offers only moderate performance").
	XeonPhiLike = CPUSpec{Name: "Many-core ESB CPU", Cores: 64, ClockGHz: 1.4, FlopsPerCyc: 32, PowerW: 215}
)

// Interconnect catalog.
var (
	// Extoll is the EXTOLL network federation used in the DEEP systems
	// (§II-A footnote 12).
	Extoll = Link{Name: "EXTOLL", LatencyUS: 1.2, BWGBs: 12.5}
	// InfinibandEDR is the JUWELS cluster fabric.
	InfinibandEDR = Link{Name: "InfiniBand EDR", LatencyUS: 1.0, BWGBs: 12.5}
	// InfinibandHDR is the JUWELS booster fabric (4×HDR200 per node; we
	// model the per-direction node injection bandwidth).
	InfinibandHDR = Link{Name: "InfiniBand HDR200", LatencyUS: 0.9, BWGBs: 25}
)

// DEEP returns the DEEP(-EST) prototype system at JSC: the MSA reference
// implementation with CM, ESB (with GCE), DAM (Table I), SSSM, NAM, and
// the JUNIQ quantum module with the two D-Wave device generations the
// paper reports (2000Q: 2000 qubits; Advantage: 5000 qubits / 35000
// couplers, §III-C).
func DEEP() *System {
	return &System{
		Name:       "DEEP",
		Federation: Extoll,
		Modules: []*Module{
			{
				Kind: ClusterModule, Name: "deep-cm",
				Interconnect: InfinibandEDR,
				Groups: []NodeGroup{{
					Name: "cn", Count: 50,
					Node: NodeSpec{CPU: Skylake6148, Sockets: 2, MemGB: 192, MemBWGBs: 256},
				}},
			},
			{
				Kind: BoosterModule, Name: "deep-esb",
				Interconnect: Extoll,
				HasGCE:       true,
				Groups: []NodeGroup{{
					Name: "esb", Count: 75,
					Node: NodeSpec{CPU: XeonPhiLike, Sockets: 1, MemGB: 48, MemBWGBs: 400,
						Accels: []AccelAttach{{Spec: V100, Count: 1}}},
				}},
			},
			{
				// Table I: 16 nodes, 2× Cascade Lake, 1 V100, 1 STRATIX10,
				// 384 GB DDR4 + 32 GB FPGA DDR4 + 32 GB GPU HBM2 per node,
				// 2× 1.5 TB NVMe SSD (⇒ 2 TB usable NVM per node, 32 TB
				// aggregate as §II-B reports).
				Kind: DataAnalytics, Name: "deep-dam",
				Interconnect: Extoll,
				Groups: []NodeGroup{{
					Name: "dam", Count: 16,
					Node: NodeSpec{
						CPU: CascadeLake, Sockets: 2,
						MemGB: 384, MemBWGBs: 282,
						Accels: []AccelAttach{
							{Spec: V100, Count: 1},
							{Spec: Stratix10, Count: 1},
						},
						NVMeTB: 3.0, // 2× 1.5 TB NVMe SSD
						NVMTB:  2.0, // byte-addressable NVM; 32 TB aggregate
					},
				}},
			},
			{
				Kind: StorageService, Name: "deep-sssm",
				Storage: &StorageSpec{Filesystem: "BeeGFS", OSTs: 8, OSTBWGBs: 2.5, CapacityPB: 0.5, MetadataOps: 50000},
			},
			{
				Kind: NetworkMemory, Name: "deep-nam",
				NAM: &NAMSpec{CapacityGB: 2048, BWGBs: 40, LatencyUS: 3},
			},
			{
				Kind: QuantumModule, Name: "juniq-advantage",
				Quantum: &QuantumSpec{Device: "D-Wave Advantage", Qubits: 5000, Couplers: 35000},
			},
		},
	}
}

// JUWELS returns the JUWELS modular supercomputer as described in §II-B:
// cluster module with 2583 nodes / 122768 compute cores / 224 GPUs, and
// booster module with 940 nodes / 45024 compute cores / 3744 GPUs. The
// node-group decomposition follows the production machine: 2511 Xeon 8168
// compute nodes plus 56 quad-V100 Xeon 6148 nodes plus 16 service nodes in
// the cluster; 936 quad-A100 EPYC nodes plus 2 CPU-only and 2 service
// nodes in the booster.
func JUWELS() *System {
	return &System{
		Name:       "JUWELS",
		Federation: InfinibandHDR,
		Modules: []*Module{
			{
				Kind: ClusterModule, Name: "juwels-cluster",
				Interconnect: InfinibandEDR,
				Groups: []NodeGroup{
					{Name: "compute", Count: 2511,
						Node: NodeSpec{CPU: Skylake8168, Sockets: 2, MemGB: 96, MemBWGBs: 256}},
					{Name: "gpu", Count: 56,
						Node: NodeSpec{CPU: Skylake6148, Sockets: 2, MemGB: 192, MemBWGBs: 256,
							Accels: []AccelAttach{{Spec: V100, Count: 4}}}},
					{Name: "service", Count: 16,
						Node: NodeSpec{CPU: Skylake6148, Sockets: 2, MemGB: 768, MemBWGBs: 256, Service: true}},
				},
			},
			{
				Kind: BoosterModule, Name: "juwels-booster",
				Interconnect: InfinibandHDR,
				HasGCE:       false, // the production booster relies on NCCL/IB, not the DEEP GCE
				Groups: []NodeGroup{
					{Name: "gpu", Count: 936,
						Node: NodeSpec{CPU: EPYC7402, Sockets: 2, MemGB: 512, MemBWGBs: 410,
							Accels: []AccelAttach{{Spec: A100, Count: 4}}}},
					{Name: "cpu", Count: 2,
						Node: NodeSpec{CPU: EPYC7402, Sockets: 2, MemGB: 512, MemBWGBs: 410}},
					{Name: "service", Count: 2,
						Node: NodeSpec{CPU: EPYC7402, Sockets: 2, MemGB: 512, MemBWGBs: 410, Service: true}},
				},
			},
			{
				Kind: StorageService, Name: "juwels-sssm",
				Storage: &StorageSpec{Filesystem: "GPFS", OSTs: 64, OSTBWGBs: 6.25, CapacityPB: 75, MetadataOps: 500000},
			},
		},
	}
}

// RenderTableI renders the DEEP DAM specification in the layout of the
// paper's Table I (experiment E1). It accepts the DAM module so tests can
// verify the rendered content against the machine-readable config.
func RenderTableI(dam *Module) string {
	if dam == nil || dam.Kind != DataAnalytics {
		panic("msa: RenderTableI requires a DAM module")
	}
	g := dam.Groups[0]
	n := g.Node
	var gpu, fpga AccelAttach
	for _, a := range n.Accels {
		switch a.Spec.Class {
		case AccelGPU:
			gpu = a
		case AccelFPGA:
			fpga = a
		}
	}
	var b strings.Builder
	b.WriteString("TABLE I — TECHNICAL SPECIFICATIONS OF THE DEEP DAM\n")
	rule := strings.Repeat("-", 72) + "\n"
	b.WriteString(rule)
	fmt.Fprintf(&b, "%-22s | %d nodes with %dx %s\n", "CPU", g.Count, n.Sockets, n.CPU.Name)
	fmt.Fprintf(&b, "%-22s | %d %s GPU\n", "Hardware Acceleration", g.Count*gpu.Count, gpu.Spec.Name)
	fmt.Fprintf(&b, "%-22s | %d %s FPGA PCIe3\n", "", g.Count*fpga.Count, fpga.Spec.Name)
	fmt.Fprintf(&b, "%-22s | %.0f GB DDR4 CPU memory /node\n", "Memory", n.MemGB)
	fmt.Fprintf(&b, "%-22s | %.0f GB DDR4 FPGA memory /node\n", "", fpga.Spec.MemGB)
	fmt.Fprintf(&b, "%-22s | %.0f GB HBM2 GPU memory /node\n", "", gpu.Spec.MemGB)
	fmt.Fprintf(&b, "%-22s | 2x %.1f TB NVMe SSD\n", "Storage", n.NVMeTB/2)
	b.WriteString(rule)
	fmt.Fprintf(&b, "aggregate NVM: %.0f TB (paper §II-B: 32 TB)\n", dam.TotalNVMTB())
	return b.String()
}
