package core

import (
	"fmt"
	"time"

	"repro/internal/mpi"
	"repro/internal/msa"
	"repro/internal/perfmodel"
	"repro/internal/sched"
	"repro/internal/storage"
)

// E1TableI regenerates the paper's Table I from the machine-readable DEEP
// configuration, after the per-module overview of the whole system.
func E1TableI() Result {
	deep := msa.DEEP()
	dam := deep.Module(msa.DataAnalytics)
	return Result{
		ID:     "E1",
		Title:  "Table I — technical specifications of the DEEP DAM",
		Report: deep.Summary() + "\n" + msa.RenderTableI(dam),
		Metrics: map[string]float64{
			"nodes":       float64(dam.Nodes()),
			"gpus":        float64(dam.GPUs()),
			"fpgas":       float64(dam.FPGAs()),
			"mem_gb_node": dam.Groups[0].Node.MemGB,
			"nvm_tb":      dam.TotalNVMTB(),
		},
	}
}

// E2JUWELS regenerates the §II-B JUWELS aggregates.
func E2JUWELS() Result {
	j := msa.JUWELS()
	cm := j.Module(msa.ClusterModule)
	esb := j.Module(msa.BoosterModule)
	tb := NewTable("JUWELS configuration (§II-B)", "module", "nodes", "cores", "GPUs")
	tb.Add("cluster", fmt.Sprint(cm.Nodes()), fmt.Sprint(cm.Cores()), fmt.Sprint(cm.GPUs()))
	tb.Add("booster", fmt.Sprint(esb.Nodes()), fmt.Sprint(esb.Cores()), fmt.Sprint(esb.GPUs()))
	tb.Add("paper cluster", "2583", "122768", "224")
	tb.Add("paper booster", "940", "45024", "3744")
	return Result{
		ID: "E2", Title: "JUWELS module aggregates (§II-B)",
		Report: j.Summary() + "\n" + tb.String(),
		Metrics: map[string]float64{
			"cluster_nodes": float64(cm.Nodes()), "cluster_cores": float64(cm.Cores()),
			"cluster_gpus": float64(cm.GPUs()), "booster_nodes": float64(esb.Nodes()),
			"booster_cores": float64(esb.Cores()), "booster_gpus": float64(esb.GPUs()),
		},
	}
}

// E9Allreduce compares the collective algorithms: measured wall time and
// traffic on the goroutine runtime at small rank counts, and the analytic
// model at the paper's scales (the GCE claim of §II-A).
func E9Allreduce(scale Scale) Result {
	algos := []mpi.Algo{mpi.AlgoNaive, mpi.AlgoTree, mpi.AlgoRecursiveDoubling, mpi.AlgoRing, mpi.AlgoGCE}
	ranksMeasured := []int{2, 4, 8}
	n := 1 << 14
	iters := 3
	if scale == Full {
		ranksMeasured = []int{2, 4, 8, 16}
		n = 1 << 18
		iters = 10
	}

	meas := NewTable("Allreduce: measured on goroutine ranks (payload "+fmt.Sprint(n)+" float64)",
		"algo", "ranks", "wall ms/op", "elems sent/rank")
	metrics := map[string]float64{}
	for _, p := range ranksMeasured {
		for _, algo := range algos {
			w := mpi.NewWorld(p)
			start := time.Now()
			err := w.Run(func(c *mpi.Comm) error {
				buf := make([]float64, n)
				for i := range buf {
					buf[i] = float64(c.Rank() + i)
				}
				for it := 0; it < iters; it++ {
					c.Allreduce(buf, mpi.OpSum, algo)
				}
				return nil
			})
			if err != nil {
				panic(err)
			}
			wall := time.Since(start).Seconds() / float64(iters) * 1000
			sent := w.RankStats(1%p).ElemsSent / int64(iters)
			meas.Add(string(algo), fmt.Sprint(p), fmt.Sprintf("meas: %.3f", wall), fmt.Sprint(sent))
			metrics[fmt.Sprintf("meas_%s_p%d_ms", algo, p)] = wall
		}
	}

	// Model projection at ESB scale over EXTOLL (ResNet-50 gradient size).
	proj := NewTable("Allreduce: alpha-beta model at scale (25.6M elems, EXTOLL)",
		"algo", "p=64", "p=512", "p=3744")
	const alpha, beta, gce = 1.2e-6, 8.0 / 12.5e9, 4.0
	grad := 25_600_000
	for _, algo := range algos {
		row := []string{string(algo)}
		for _, p := range []int{64, 512, 3744} {
			t := mpi.CollectiveCostModel(algo, p, grad, alpha, beta, gce)
			row = append(row, fmt.Sprintf("model: %.3f s", t))
			metrics[fmt.Sprintf("model_%s_p%d_s", algo, p)] = t
		}
		proj.Add(row...)
	}
	// Hierarchical (NVLink islands of 4 + EXTOLL between nodes): the
	// §III-A "GPUs connected by NVLink" structure.
	const alphaNV, betaNV = 0.5e-6, 8.0 / 300e9
	row := []string{"hierarchical(4)"}
	for _, p := range []int{64, 512, 3744} {
		t := mpi.HierarchicalCostModel(p, 4, grad, alphaNV, betaNV, alpha, beta)
		row = append(row, fmt.Sprintf("model: %.3f s", t))
		metrics[fmt.Sprintf("model_hier_p%d_s", p)] = t
	}
	proj.Add(row...)
	return Result{
		ID: "E9", Title: "GCE / allreduce algorithm comparison (§II-A)",
		Report:  meas.String() + "\n" + proj.String(),
		Metrics: metrics,
	}
}

// E10Scheduler runs the modular-vs-monolithic scheduling study with the
// backfill ablation (the conclusion's heterogeneous-scheduling claim).
func E10Scheduler(scale Scale) Result {
	nJobs := 60
	if scale == Full {
		nJobs = 400
	}
	sys := msa.DEEP() // the real module sizes: 50 CM / 75 ESB / 16 DAM
	jobs := sched.GenWorkload(nJobs, 42)

	modular := sched.Simulate(sys, jobs, sched.Options{Backfill: true})
	modularNoBF := sched.Simulate(sys, jobs, sched.Options{Backfill: false})
	monoCPU := sched.Simulate(sched.Monolithic(sys, msa.ClusterModule), jobs, sched.Options{Backfill: true})
	monoGPU := sched.Simulate(sched.Monolithic(sys, msa.DataAnalytics), jobs, sched.Options{Backfill: true})

	tb := NewTable(fmt.Sprintf("Scheduling %d heterogeneous jobs (meas: discrete-event sim)", nJobs),
		"system", "makespan h", "avg wait h", "energy MWh")
	add := func(name string, r sched.Report) {
		tb.Add(name, fmt.Sprintf("%.2f", r.Makespan/3600),
			fmt.Sprintf("%.2f", r.AvgWait/3600), fmt.Sprintf("%.3f", r.EnergyJ/3.6e9))
	}
	add("MSA modular (EASY)", modular)
	add("MSA modular (FCFS)", modularNoBF)
	add("monolithic CPU", monoCPU)
	add("monolithic GPU/DAM", monoGPU)

	return Result{
		ID: "E10", Title: "Modular vs monolithic scheduling (conclusion claim)",
		Report: tb.String(),
		Metrics: map[string]float64{
			"modular_makespan":  modular.Makespan,
			"modular_fcfs":      modularNoBF.Makespan,
			"mono_cpu_makespan": monoCPU.Makespan,
			"mono_gpu_makespan": monoGPU.Makespan,
			"modular_energy":    modular.EnergyJ,
			"mono_cpu_energy":   monoCPU.EnergyJ,
		},
	}
}

// E12Storage sweeps parallel-filesystem read bandwidth and compares NAM
// sharing against duplicate staging (§II-A SSSM/NAM claims).
func E12Storage() Result {
	deep := msa.DEEP()
	fs := storage.NewSSSM(*deep.Module(msa.StorageService).Storage)
	namSpec := *deep.Module(msa.NetworkMemory).NAM

	sweep := NewTable("SSSM striped read bandwidth (model, GB/s per stream)",
		"stripe", "1 reader", "4 readers", "16 readers")
	for _, stripe := range []int{1, 2, 4, 8} {
		row := []string{fmt.Sprint(stripe)}
		for _, readers := range []int{1, 4, 16} {
			row = append(row, fmt.Sprintf("%.2f", fs.StreamBW(stripe, readers)))
		}
		sweep.Add(row...)
	}

	nam := NewTable("Dataset staging: NAM shared vs duplicate downloads (66 GB BigEarthNet)",
		"group size", "duplicate s", "NAM s", "SSSM bytes ratio")
	metrics := map[string]float64{}
	const sizeGB = 66 // BigEarthNet archive size
	for _, k := range []int{2, 4, 8, 16} {
		n := storage.NewNAM(namSpec)
		dupT, dupB := storage.DuplicateDownloadTime(k, sizeGB, fs, 4)
		namT, namB := storage.SharedNAMTime(k, sizeGB, fs, n, 4)
		nam.Add(fmt.Sprint(k), fmt.Sprintf("%.1f", dupT), fmt.Sprintf("%.1f", namT),
			fmt.Sprintf("%.1fx", dupB/namB))
		metrics[fmt.Sprintf("dup_t_k%d", k)] = dupT
		metrics[fmt.Sprintf("nam_t_k%d", k)] = namT
	}
	return Result{
		ID: "E12", Title: "SSSM striping and NAM dataset sharing (§II-A, §III-B)",
		Report:  sweep.String() + "\n" + nam.String(),
		Metrics: metrics,
	}
}

// E13ModuleAssignment evaluates each Fig. 2 workload class on each DEEP
// module and reports the best-module assignment plus the two-phase
// MSA-vs-monolithic comparison.
func E13ModuleAssignment() Result {
	deep := msa.DEEP()
	workloads := []perfmodel.Workload{
		{Name: "cfd-simulation", Class: perfmodel.ClassSimulation,
			Flops: 5e15, Bytes: 2e13, ParallelFrac: 0.999, CommElems: 50_000, Steps: 2000, MemoryGB: 64},
		{Name: "dl-training", Class: perfmodel.ClassDLTraining, PrefersGPU: true,
			Flops: 2e16, Bytes: 5e12, ParallelFrac: 0.995, CommElems: 25_600_000, Steps: 500, MemoryGB: 30},
		{Name: "dl-inference", Class: perfmodel.ClassDLInference, PrefersGPU: true,
			Flops: 2e15, Bytes: 1e12, ParallelFrac: 0.999, CommElems: 1000, Steps: 100, MemoryGB: 16},
		{Name: "spark-analytics", Class: perfmodel.ClassHPDA,
			Flops: 1e14, Bytes: 8e13, ParallelFrac: 0.9, CommElems: 100_000, Steps: 50, MemoryGB: 300},
		{Name: "seismic-highscale", Class: perfmodel.ClassHighScale,
			Flops: 1e16, Bytes: 1e13, ParallelFrac: 0.999, CommElems: 20_000, Steps: 5000, MemoryGB: 40},
	}
	tb := NewTable("Workload → module time-to-solution (model, 16 nodes each; best marked *)",
		"workload", "CM", "ESB", "DAM", "best")
	metrics := map[string]float64{}
	for _, w := range workloads {
		best, all := perfmodel.BestModule(w, deep, 16)
		row := []string{w.Name}
		for _, name := range []string{"deep-cm", "deep-esb", "deep-dam"} {
			cell := fmt.Sprintf("%.0f s", all[name].Seconds)
			if deep.ModuleByName(name) == best {
				cell = "*" + cell
			}
			row = append(row, cell)
		}
		row = append(row, string(best.Kind))
		tb.Add(row...)
		metrics["best_is_gpu_"+w.Name] = 0
		if best.GPUs() > 0 {
			metrics["best_is_gpu_"+w.Name] = 1
		}
	}

	// Two-phase MSA benefit (Fig. 2's third user type).
	app := perfmodel.TwoPhaseApp{
		PhaseA: perfmodel.Workload{Name: "prep", Class: perfmodel.ClassLowScale,
			Flops: 5e13, Bytes: 2e13, ParallelFrac: 0.80, MemoryGB: 100},
		PhaseB: perfmodel.Workload{Name: "train", Class: perfmodel.ClassDLTraining, PrefersGPU: true,
			Flops: 5e15, Bytes: 1e12, ParallelFrac: 0.995, CommElems: 25_600_000, Steps: 500, MemoryGB: 30},
		DataGB: 50,
	}
	cm := deep.Module(msa.ClusterModule)
	esb := deep.Module(msa.BoosterModule)
	onCM := app.MonolithicTime(cm, 8, 32)
	onESB := app.MonolithicTime(esb, 8, 32)
	split := app.ModularTime(cm, esb, deep.Federation, 8, 32)
	two := NewTable("Two-phase app (prep + training): monolithic vs MSA split (model)",
		"placement", "time s", "energy MJ")
	two.Add("CM only", fmt.Sprintf("%.0f", onCM.Seconds), fmt.Sprintf("%.1f", onCM.Joules/1e6))
	two.Add("ESB only", fmt.Sprintf("%.0f", onESB.Seconds), fmt.Sprintf("%.1f", onESB.Joules/1e6))
	two.Add("MSA split CM→ESB", fmt.Sprintf("%.0f", split.Seconds), fmt.Sprintf("%.1f", split.Joules/1e6))
	metrics["split_s"] = split.Seconds
	metrics["cm_s"] = onCM.Seconds
	metrics["esb_s"] = onESB.Seconds

	return Result{
		ID: "E13", Title: "Fig. 2 workload diversity: best-module assignment & MSA benefit",
		Report:  tb.String() + "\n" + two.String(),
		Metrics: metrics,
	}
}
