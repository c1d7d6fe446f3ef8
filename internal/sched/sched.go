// Package sched is a discrete-event scheduler simulator for MSA systems.
// It backs the paper's concluding claim that the MSA "is able to schedule
// heterogeneous workloads onto matching combinations of MSA module
// resources": jobs are chains of phases, each phase declares how long it
// would run on every module kind, and the simulator places each phase on
// the module that executes it fastest — subject to node availability —
// using FCFS with optional EASY backfill.
//
// Comparing the same workload trace on a modular system versus a
// monolithic single-module machine yields experiment E10's makespan,
// wait-time, utilization, and energy numbers.
package sched

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/msa"
)

// Phase is one stage of a job: a node count plus the runtime it would
// need on each module kind (absent kinds mean the phase cannot run there).
type Phase struct {
	Name    string
	Nodes   int
	Runtime map[msa.ModuleKind]float64
}

// Job is a chain of phases released at Submit time. Phases run strictly
// in order (the output of one feeds the next over the federation).
type Job struct {
	ID     int
	Submit float64
	Phases []Phase
}

// Options tunes the simulation.
type Options struct {
	// Backfill enables EASY backfilling behind the FCFS head reservation.
	Backfill bool
}

// phaseExec records where and when a phase ran.
type phaseExec struct {
	Module   string
	Start    float64
	End      float64
	EnergyJ  float64
	PhaseIdx int
}

// jobResult aggregates a finished job.
type jobResult struct {
	JobID  int
	Submit float64
	Start  float64 // first phase start
	Phases []phaseExec
}

// Wait returns queueing delay before the first phase.
func (r jobResult) Wait() float64 { return r.Start - r.Submit }

// Report summarizes a simulation.
type Report struct {
	Makespan    float64
	AvgWait     float64
	MaxWait     float64
	EnergyJ     float64
	Utilization map[string]float64 // busy node-seconds / (capacity × makespan)
	// PeakNodes is the maximum concurrent node usage observed per module;
	// the capacity invariant PeakNodes ≤ capacity is property-tested.
	PeakNodes map[string]int
	// Capacity records each module's node count for invariant checks.
	Capacity map[string]int
}

// moduleState tracks one module's occupancy during simulation.
type moduleState struct {
	mod      *msa.Module
	capacity int
	free     int
	// running phases: end time and node count, kept sorted by end.
	running []runEntry
	// busyNodeSeconds accumulates for utilization.
	busyNodeSeconds float64
	powerPerNode    float64
	peakNodes       int
}

type runEntry struct {
	end   float64
	nodes int
	jobID int
}

// task is a ready-to-run phase instance.
type task struct {
	job      *Job
	result   *jobResult
	phaseIdx int
	ready    float64 // time the phase became ready
}

// Simulate runs the workload on the system and returns the report. It
// panics if a phase can never run anywhere (no module kind with finite
// runtime and sufficient capacity).
func Simulate(sys *msa.System, jobs []Job, opts Options) Report {
	rep, _ := simulate(sys, jobs, opts)
	return rep
}

// simulate is Simulate that also returns each job's result, in jobs order.
func simulate(sys *msa.System, jobs []Job, opts Options) (Report, []jobResult) {
	states := map[string]*moduleState{}
	for _, m := range sys.Modules {
		switch m.Kind {
		case msa.StorageService, msa.NetworkMemory, msa.QuantumModule:
			continue
		}
		spec := m.ComputeNode()
		states[m.Name] = &moduleState{
			mod: m, capacity: m.Nodes(), free: m.Nodes(),
			powerPerNode: spec.PowerW(),
		}
	}
	if len(states) == 0 {
		panic("sched: system has no compute modules")
	}

	// Validate all phases are runnable somewhere.
	for i := range jobs {
		for pi, ph := range jobs[i].Phases {
			if ph.Nodes <= 0 {
				panic(fmt.Sprintf("sched: job %d phase %d has %d nodes", jobs[i].ID, pi, ph.Nodes))
			}
			if _, _, err := pickModule(states, ph); err != nil {
				panic(fmt.Sprintf("sched: job %d phase %q: %v", jobs[i].ID, ph.Name, err))
			}
		}
	}

	results := make([]jobResult, len(jobs))
	var pending []task
	for i := range jobs {
		results[i] = jobResult{JobID: jobs[i].ID, Submit: jobs[i].Submit, Start: -1}
		pending = append(pending, task{job: &jobs[i], result: &results[i], phaseIdx: 0, ready: jobs[i].Submit})
	}

	now := 0.0
	makespan := 0.0
	var totalEnergy float64
	remaining := len(pending)

	for remaining > 0 || anyRunning(states) {
		// Start everything that can start at `now`.
		scheduleAt(states, &pending, now, opts)

		// Advance time to the next event: earliest running end, or the
		// next pending ready time if nothing is running.
		next := math.Inf(1)
		for _, st := range states {
			for _, r := range st.running {
				if r.end < next {
					next = r.end
				}
			}
		}
		for _, tk := range pending {
			if tk.ready > now && tk.ready < next {
				next = tk.ready
			}
		}
		if math.IsInf(next, 1) {
			if len(pending) > 0 {
				// Everything pending is ready but nothing fits and nothing
				// runs: impossible because capacity was validated.
				panic("sched: deadlock — pending work with idle machine")
			}
			break
		}
		now = next

		// Complete phases ending at `now`; spawn successor phases.
		for _, st := range states {
			kept := st.running[:0]
			for _, r := range st.running {
				if r.end <= now+1e-12 {
					st.free += r.nodes
					// Find the job and enqueue its next phase.
					for i := range results {
						if results[i].JobID == r.jobID {
							done := len(results[i].Phases)
							job := &jobs[jobIndexByID(jobs, r.jobID)]
							if done < len(job.Phases) {
								pending = append(pending, task{job: job, result: &results[i], phaseIdx: done, ready: now})
							} else {
								if now > makespan {
									makespan = now
								}
								remaining--
							}
							break
						}
					}
				} else {
					kept = append(kept, r)
				}
			}
			st.running = kept
		}
	}

	// Aggregate.
	rep := Report{Makespan: makespan, Utilization: map[string]float64{}}
	var waitSum float64
	for i := range results {
		w := results[i].Wait()
		waitSum += w
		if w > rep.MaxWait {
			rep.MaxWait = w
		}
		for _, pe := range results[i].Phases {
			totalEnergy += pe.EnergyJ
		}
	}
	if len(results) > 0 {
		rep.AvgWait = waitSum / float64(len(results))
	}
	rep.EnergyJ = totalEnergy
	rep.PeakNodes = map[string]int{}
	rep.Capacity = map[string]int{}
	for name, st := range states {
		if makespan > 0 {
			rep.Utilization[name] = st.busyNodeSeconds / (float64(st.capacity) * makespan)
		}
		rep.PeakNodes[name] = st.peakNodes
		rep.Capacity[name] = st.capacity
	}
	return rep, results
}

// jobIndexByID resolves a job ID to its slice index.
func jobIndexByID(jobs []Job, id int) int {
	for i := range jobs {
		if jobs[i].ID == id {
			return i
		}
	}
	panic(fmt.Sprintf("sched: unknown job id %d", id))
}

func anyRunning(states map[string]*moduleState) bool {
	for _, st := range states {
		if len(st.running) > 0 {
			return true
		}
	}
	return false
}

// pickModule returns the module name and runtime minimizing the phase's
// execution time among modules that can ever hold it.
func pickModule(states map[string]*moduleState, ph Phase) (string, float64, error) {
	bestName, bestT := "", math.Inf(1)
	for name, st := range states {
		rt, ok := ph.Runtime[st.mod.Kind]
		if !ok || math.IsInf(rt, 0) || rt < 0 {
			continue
		}
		if ph.Nodes > st.capacity {
			continue
		}
		if rt < bestT {
			bestName, bestT = name, rt
		}
	}
	if bestName == "" {
		return "", 0, fmt.Errorf("no module can run phase needing %d nodes with kinds %v", ph.Nodes, keys(ph.Runtime))
	}
	return bestName, bestT, nil
}

// pickModuleLoadAware chooses the module minimizing the *estimated
// completion time* (earliest start given current occupancy, plus
// runtime). On an idle machine this degrades to the fastest module; under
// load it spreads phases across acceptable modules instead of piling onto
// the locally-fastest one — the heterogeneity-aware placement the MSA
// resource manager performs. Capacity feasibility was validated up front,
// so this always finds a module.
func pickModuleLoadAware(states map[string]*moduleState, ph Phase, now float64) (string, float64) {
	bestName, bestRT := "", 0.0
	bestEst := math.Inf(1)
	for name, st := range states {
		rt, ok := ph.Runtime[st.mod.Kind]
		if !ok || math.IsInf(rt, 0) || rt < 0 {
			continue
		}
		if ph.Nodes > st.capacity {
			continue
		}
		start, _ := shadowTime(st, ph.Nodes, now)
		if est := start + rt; est < bestEst {
			bestEst, bestName, bestRT = est, name, rt
		}
	}
	if bestName == "" {
		panic(fmt.Sprintf("sched: no module for phase %q (validated earlier — unreachable)", ph.Name))
	}
	return bestName, bestRT
}

func keys(m map[msa.ModuleKind]float64) []msa.ModuleKind {
	out := make([]msa.ModuleKind, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// scheduleAt runs one FCFS(+backfill) pass at time `now`, starting every
// task it can; started tasks are removed from pending.
func scheduleAt(states map[string]*moduleState, pending *[]task, now float64, opts Options) {
	// Ready tasks in FCFS order (submit time, then job ID, then phase).
	ready := make([]int, 0, len(*pending))
	for i, tk := range *pending {
		if tk.ready <= now+1e-12 {
			ready = append(ready, i)
		}
	}
	sort.Slice(ready, func(a, b int) bool {
		ta, tb := (*pending)[ready[a]], (*pending)[ready[b]]
		if ta.job.Submit != tb.job.Submit {
			return ta.job.Submit < tb.job.Submit
		}
		if ta.job.ID != tb.job.ID {
			return ta.job.ID < tb.job.ID
		}
		return ta.phaseIdx < tb.phaseIdx
	})

	started := map[int]bool{}
	// headBlocked: per module, the shadow reservation of the first task
	// that could not start there.
	type reservation struct {
		shadow float64
		extra  int
	}
	blocked := map[string]*reservation{}

	for _, idx := range ready {
		tk := (*pending)[idx]
		ph := tk.job.Phases[tk.phaseIdx]
		name, rt := pickModuleLoadAware(states, ph, now)
		st := states[name]
		fits := ph.Nodes <= st.free
		if res, isBlocked := blocked[name]; isBlocked {
			if !opts.Backfill || !fits {
				continue
			}
			// EASY: start only if it finishes before the head's shadow
			// time or uses only nodes the head will not need.
			if now+rt > res.shadow && ph.Nodes > res.extra {
				continue
			}
		}
		if !fits {
			if _, already := blocked[name]; !already {
				shadow, extra := shadowTime(st, ph.Nodes, now)
				blocked[name] = &reservation{shadow: shadow, extra: extra}
			}
			continue
		}
		// Start the phase.
		st.free -= ph.Nodes
		if used := st.capacity - st.free; used > st.peakNodes {
			st.peakNodes = used
		}
		st.running = append(st.running, runEntry{end: now + rt, nodes: ph.Nodes, jobID: tk.job.ID})
		st.busyNodeSeconds += float64(ph.Nodes) * rt
		if tk.result.Start < 0 {
			tk.result.Start = now
		}
		tk.result.Phases = append(tk.result.Phases, phaseExec{
			Module: name, Start: now, End: now + rt,
			EnergyJ: st.powerPerNode * float64(ph.Nodes) * rt, PhaseIdx: tk.phaseIdx,
		})
		started[idx] = true
		// When backfill is off, a blocked module stays strictly FCFS; with
		// the head started we continue scanning normally.
	}

	if len(started) > 0 {
		kept := (*pending)[:0]
		for i, tk := range *pending {
			if !started[i] {
				kept = append(kept, tk)
			}
		}
		*pending = kept
	}
}

// shadowTime computes when `needed` nodes will be free on the module
// given the currently running entries, plus the extra nodes that will
// remain free for backfill at that time.
func shadowTime(st *moduleState, needed int, now float64) (float64, int) {
	entries := append([]runEntry(nil), st.running...)
	sort.Slice(entries, func(i, j int) bool { return entries[i].end < entries[j].end })
	free := st.free
	for _, e := range entries {
		if free >= needed {
			break
		}
		free += e.nodes
		now = e.end
	}
	return now, free - needed
}
