package msa

import (
	"fmt"
	"strings"
	"testing"
)

func TestDEEPValidates(t *testing.T) {
	if err := DEEP().validate(); err != nil {
		t.Fatal(err)
	}
}

func TestJUWELSValidates(t *testing.T) {
	if err := JUWELS().validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTableIDEEPDAM checks experiment E1: the machine-readable DEEP DAM
// config reproduces every row of the paper's Table I.
func TestTableIDEEPDAM(t *testing.T) {
	dam := DEEP().Module(DataAnalytics)
	if dam == nil {
		t.Fatal("DEEP has no DAM")
	}
	if dam.Nodes() != 16 {
		t.Fatalf("Table I: 16 nodes, got %d", dam.Nodes())
	}
	n := dam.Groups[0].Node
	if n.Sockets != 2 || !strings.Contains(n.CPU.Name, "Cascade Lake") {
		t.Fatalf("Table I: 2x Cascade Lake, got %dx %s", n.Sockets, n.CPU.Name)
	}
	if dam.GPUs() != 16 {
		t.Fatalf("Table I: 16 V100, got %d", dam.GPUs())
	}
	if dam.FPGAs() != 16 {
		t.Fatalf("Table I: 16 STRATIX10, got %d", dam.FPGAs())
	}
	if n.MemGB != 384 {
		t.Fatalf("Table I: 384 GB/node, got %.0f", n.MemGB)
	}
	var gpuMem, fpgaMem float64
	for _, a := range n.Accels {
		switch a.Spec.Class {
		case AccelGPU:
			gpuMem = a.Spec.MemGB
		case AccelFPGA:
			fpgaMem = a.Spec.MemGB
		}
	}
	if gpuMem != 32 || fpgaMem != 32 {
		t.Fatalf("Table I: 32 GB HBM2 + 32 GB FPGA DDR4, got %v/%v", gpuMem, fpgaMem)
	}
	if n.NVMeTB != 3.0 {
		t.Fatalf("Table I: 2x 1.5 TB NVMe, got %.1f TB", n.NVMeTB)
	}
	// §II-B: aggregated 32 TB of NVM across the DAM.
	if dam.TotalNVMTB() != 32 {
		t.Fatalf("aggregate NVM: want 32 TB, got %.0f", dam.TotalNVMTB())
	}
}

func TestRenderTableI(t *testing.T) {
	out := RenderTableI(DEEP().Module(DataAnalytics))
	for _, want := range []string{
		"16 nodes with 2x Intel Xeon Cascade Lake",
		"16 NVIDIA V100 GPU",
		"16 Intel STRATIX10 FPGA PCIe3",
		"384 GB DDR4 CPU memory /node",
		"32 GB DDR4 FPGA memory /node",
		"32 GB HBM2 GPU memory /node",
		"2x 1.5 TB NVMe SSD",
		"aggregate NVM: 32 TB",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table I rendering missing %q:\n%s", want, out)
		}
	}
}

func TestRenderTableIPanicsOnWrongModule(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RenderTableI(DEEP().Module(ClusterModule))
}

// TestJUWELSAggregates checks experiment E2: the §II-B aggregates.
// "JUWELS ... consist of 2,583 and 940 nodes respectively, totalling
// 122,768 CPU cores and 224 GPUs in the cluster module, and 45,024 CPU
// cores and 3,744 GPUs in the booster module."
func TestJUWELSAggregates(t *testing.T) {
	j := JUWELS()
	cm := j.Module(ClusterModule)
	esb := j.Module(BoosterModule)
	if cm.Nodes() != 2583 {
		t.Fatalf("cluster nodes: want 2583, got %d", cm.Nodes())
	}
	if cm.Cores() != 122768 {
		t.Fatalf("cluster cores: want 122768, got %d", cm.Cores())
	}
	if cm.GPUs() != 224 {
		t.Fatalf("cluster GPUs: want 224, got %d", cm.GPUs())
	}
	if esb.Nodes() != 940 {
		t.Fatalf("booster nodes: want 940, got %d", esb.Nodes())
	}
	if esb.Cores() != 45024 {
		t.Fatalf("booster cores: want 45024, got %d", esb.Cores())
	}
	if esb.GPUs() != 3744 {
		t.Fatalf("booster GPUs: want 3744, got %d", esb.GPUs())
	}
}

func TestDEEPQuantumModuleMatchesPaper(t *testing.T) {
	qm := DEEP().Module(QuantumModule)
	if qm == nil || qm.Quantum == nil {
		t.Fatal("DEEP lacks quantum module")
	}
	// §III-C: "QQ Advantage system using 5000 qubits and 35000 couplers".
	if qm.Quantum.Qubits != 5000 || qm.Quantum.Couplers != 35000 {
		t.Fatalf("Advantage spec: %+v", *qm.Quantum)
	}
}

func TestModuleLookups(t *testing.T) {
	d := DEEP()
	if d.Module(DataAnalytics).Name != "deep-dam" {
		t.Fatal("Module(DAM)")
	}
	if d.ModuleByName("deep-esb") == nil || d.ModuleByName("nope") != nil {
		t.Fatal("ModuleByName")
	}
	if d.Module(ModuleKind("XX")) != nil {
		t.Fatal("unknown kind must return nil")
	}
}

func TestNodeSpecDerived(t *testing.T) {
	n := NodeSpec{CPU: CPUSpec{Cores: 10, ClockGHz: 2, FlopsPerCyc: 16, PowerW: 100}, Sockets: 2}
	if n.Cores() != 20 {
		t.Fatal("Cores")
	}
	if n.CPUPeakGFlops() != 20*2*16 {
		t.Fatalf("CPUPeakGFlops: %f", n.CPUPeakGFlops())
	}
	n.Service = true
	if n.Cores() != 0 {
		t.Fatal("service nodes contribute no compute cores")
	}
	g := NodeSpec{Accels: []AccelAttach{{Spec: V100, Count: 4}}}
	if g.GPUs() != 4 || g.FPGAs() != 0 {
		t.Fatal("accelerator counting")
	}
}

// TestComputeNode: the compute node is the largest non-service group's,
// a service group never counts however large, and a module with only
// service nodes has none.
func TestComputeNode(t *testing.T) {
	small := NodeSpec{CPU: Skylake6148, Sockets: 1}
	large := NodeSpec{CPU: Skylake6148, Sockets: 2}
	svc := NodeSpec{CPU: Skylake6148, Sockets: 2, Service: true}
	m := &Module{Name: "m", Groups: []NodeGroup{
		{Name: "login", Count: 100, Node: svc},
		{Name: "a", Count: 4, Node: small},
		{Name: "b", Count: 8, Node: large},
		{Name: "c", Count: 8, Node: small},
	}}
	if got := m.ComputeNode(); got.Sockets != 2 || got.Service {
		t.Fatalf("ComputeNode = %+v, want group b's node", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("module without compute groups must panic")
		}
	}()
	(&Module{Name: "svc", Groups: []NodeGroup{{Name: "login", Count: 2, Node: svc}}}).ComputeNode()
}

func TestPowerAggregation(t *testing.T) {
	dam := DEEP().Module(DataAnalytics)
	perNode := dam.Groups[0].Node.PowerW()
	// 2 sockets × 125 W + V100 300 W + FPGA 225 W + 150 W overhead.
	want := 2*125 + 300 + 225 + 150.0
	if perNode != want {
		t.Fatalf("node power: want %.0f got %.0f", want, perNode)
	}
	total := 0.0
	for _, g := range dam.Groups {
		total += float64(g.Count) * g.Node.PowerW()
	}
	if total != 16*want {
		t.Fatal("module power aggregate")
	}
}

func TestValidateCatchesBrokenSystems(t *testing.T) {
	cases := []struct {
		name string
		sys  func() *System
	}{
		{"no name", func() *System { s := DEEP(); s.Name = ""; return s }},
		{"no modules", func() *System { s := DEEP(); s.Modules = nil; return s }},
		{"bad federation", func() *System { s := DEEP(); s.Federation.BWGBs = 0; return s }},
		{"duplicate names", func() *System {
			s := DEEP()
			s.Modules[1].Name = s.Modules[0].Name
			return s
		}},
		{"sssm without storage", func() *System {
			s := DEEP()
			s.Module(StorageService).Storage = nil
			return s
		}},
		{"qm without spec", func() *System {
			s := DEEP()
			s.Module(QuantumModule).Quantum.Qubits = 0
			return s
		}},
		{"nam without spec", func() *System {
			s := DEEP()
			s.Module(NetworkMemory).NAM = nil
			return s
		}},
		{"gce outside esb", func() *System {
			s := DEEP()
			s.Module(ClusterModule).HasGCE = true
			return s
		}},
		{"module with no nodes", func() *System {
			s := DEEP()
			s.Module(ClusterModule).Groups = nil
			return s
		}},
		{"bad interconnect", func() *System {
			s := DEEP()
			s.Module(ClusterModule).Interconnect.LatencyUS = 0
			return s
		}},
	}
	for _, tc := range cases {
		if err := tc.sys().validate(); err == nil {
			t.Errorf("%s: validate accepted a broken system", tc.name)
		}
	}
}

func TestSummaryMentionsEveryModule(t *testing.T) {
	for _, sys := range []*System{DEEP(), JUWELS()} {
		s := sys.Summary()
		for _, m := range sys.Modules {
			if !strings.Contains(s, m.Name) {
				t.Fatalf("summary of %s missing module %s:\n%s", sys.Name, m.Name, s)
			}
		}
	}
}

func TestTotalNodes(t *testing.T) {
	total := 0
	for _, m := range JUWELS().Modules {
		total += m.Nodes()
	}
	if total != 2583+940 {
		t.Fatalf("total nodes: %d", total)
	}
}

// validate checks the structural consistency of a compiled-in system
// description.
func (s *System) validate() error {
	if s.Name == "" {
		return fmt.Errorf("msa: system has no name")
	}
	if len(s.Modules) == 0 {
		return fmt.Errorf("msa: system %s has no modules", s.Name)
	}
	if s.Federation.BWGBs <= 0 || s.Federation.LatencyUS <= 0 {
		return fmt.Errorf("msa: system %s has invalid federation link %+v", s.Name, s.Federation)
	}
	seen := map[string]bool{}
	for _, m := range s.Modules {
		if m.Name == "" {
			return fmt.Errorf("msa: module of kind %s has no name", m.Kind)
		}
		if seen[m.Name] {
			return fmt.Errorf("msa: duplicate module name %q", m.Name)
		}
		seen[m.Name] = true
		switch m.Kind {
		case StorageService:
			if m.Storage == nil {
				return fmt.Errorf("msa: SSSM module %s lacks storage spec", m.Name)
			}
			if m.Storage.OSTs <= 0 || m.Storage.OSTBWGBs <= 0 {
				return fmt.Errorf("msa: SSSM module %s has invalid storage spec %+v", m.Name, *m.Storage)
			}
		case QuantumModule:
			if m.Quantum == nil || m.Quantum.Qubits <= 0 {
				return fmt.Errorf("msa: QM module %s lacks a valid quantum spec", m.Name)
			}
		case NetworkMemory:
			if m.NAM == nil || m.NAM.CapacityGB <= 0 {
				return fmt.Errorf("msa: NAM module %s lacks a valid NAM spec", m.Name)
			}
		default:
			if m.Nodes() <= 0 {
				return fmt.Errorf("msa: module %s has no nodes", m.Name)
			}
			if m.Interconnect.BWGBs <= 0 || m.Interconnect.LatencyUS <= 0 {
				return fmt.Errorf("msa: module %s has invalid interconnect %+v", m.Name, m.Interconnect)
			}
			if m.HasGCE && m.Kind != BoosterModule {
				return fmt.Errorf("msa: module %s has a GCE but is not an ESB", m.Name)
			}
		}
		for _, g := range m.Groups {
			if g.Count < 0 {
				return fmt.Errorf("msa: module %s group %s has negative count", m.Name, g.Name)
			}
			if !g.Node.Service && g.Count > 0 && m.Kind != StorageService && m.Kind != NetworkMemory && m.Kind != QuantumModule {
				if g.Node.Sockets <= 0 || g.Node.CPU.Cores <= 0 {
					return fmt.Errorf("msa: module %s group %s has invalid node spec", m.Name, g.Name)
				}
			}
		}
	}
	return nil
}
