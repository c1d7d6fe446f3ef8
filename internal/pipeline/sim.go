package pipeline

// Task is one compute task of a planned step: the forward (Kind kindF) or
// backward (kindB) of micro-batch Micro through chunk Chunk, with its
// start and end time on the ideal machine PlanSchedule evaluates.
type Task struct {
	Kind, Chunk, Micro int
	Start, End         float64
}

// virtualChunks resolves a VirtualChunks setting: 0 picks the schedule's
// default of 1 chunk per rank for GPipe and 2 for OneFOneB.
func virtualChunks(sched Schedule, v int) int {
	if v != 0 {
		return v
	}
	if sched == OneFOneB {
		return 2
	}
	return 1
}

// PlanSchedule list-schedules all 2·S·v·M pipeline tasks on an ideal
// machine (one core per rank, zero message latency, forward cost tf,
// backward cost tb) under the given schedule policy and returns each
// rank's task order with every task's start and end. v = 0 picks the
// schedule's default chunk count. Forward (c, m) waits for forward
// (c−1, m); backward (c, m) waits for forward (c, m) and, below the last
// chunk, backward (c+1, m). This is the one evaluation of that machine:
// PlannedBubble and EmitPlannedTrace read the timeline it returns.
//
// The engine executes this plan verbatim: a reactive greedy picker would
// instead bake host-scheduler noise into the executed order (on an
// oversubscribed machine "ready" reflects goroutine timing, not pipeline
// structure), and the interleaved 1F1B bubble advantage only materializes
// when deep-chunk forwards run at their planned slots.
//
// The plan is work-conserving: each round commits the globally earliest
// startable task, so a rank never idles while it has a ready task. Within
// a rank, ties between a ready forward and a ready backward go to the
// schedule policy — GPipe holds every backward until all local forwards
// have run (fill-drain), 1F1B alternates kinds and bounds each chunk's
// forward run-ahead at C−c. Forward candidates follow the interleaved
// fill order (micro-group-major, shallow chunk first); backward
// candidates drain earliest-micro, deepest-chunk first. Per chunk, both
// streams stay in strict micro order, which is what keeps pipeline
// gradient accumulation bitwise equal to the single-rank reference.
func PlanSchedule(S, v, M int, sched Schedule, tf, tb float64) [][]Task {
	C := S * virtualChunks(sched, v)
	type key struct{ kind, chunk, micro int }
	end := make(map[key]float64, 2*C*M)
	fwdDone := make([]int, C)
	bwdDone := make([]int, C)
	clock := make([]float64, S)
	lastKind := make([]int, S)
	for r := range lastKind {
		lastKind[r] = kindB
	}
	orders := make([][]Task, S)

	// readyAt returns the earliest ideal-machine start for a rank's
	// candidate task, or false while a producer task is still unplanned.
	readyAt := func(r, kind, c int) (float64, bool) {
		t := clock[r]
		if kind == kindF {
			m := fwdDone[c]
			if c > 0 {
				e, have := end[key{kindF, c - 1, m}]
				if !have {
					return 0, false
				}
				if e > t {
					t = e
				}
			}
			return t, true
		}
		m := bwdDone[c]
		e, have := end[key{kindF, c, m}]
		if !have {
			return 0, false
		}
		if e > t {
			t = e
		}
		if c < C-1 {
			e, have = end[key{kindB, c + 1, m}]
			if !have {
				return 0, false
			}
			if e > t {
				t = e
			}
		}
		return t, true
	}

	type cand struct {
		kind, chunk int
		start       float64
	}
	var cands []cand
	collect := func(r int) (float64, bool) {
		cands = cands[:0]
		allFwd := true
		for c := r; c < C; c += S {
			if fwdDone[c] < M {
				allFwd = false
			}
		}
		best, any := 0.0, false
		for c := r; c < C; c += S {
			if fwdDone[c] < M {
				if sched != OneFOneB || fwdDone[c]-bwdDone[c] < C-c {
					if t, ok := readyAt(r, kindF, c); ok {
						cands = append(cands, cand{kindF, c, t})
						if !any || t < best {
							best, any = t, true
						}
					}
				}
			}
			if bwdDone[c] < M && (sched == OneFOneB || allFwd) {
				if t, ok := readyAt(r, kindB, c); ok {
					cands = append(cands, cand{kindB, c, t})
					if !any || t < best {
						best, any = t, true
					}
				}
			}
		}
		return best, any
	}

	remaining := 2 * C * M
	for remaining > 0 {
		bestR, bestT := -1, 0.0
		for r := 0; r < S; r++ {
			if t, ok := collect(r); ok && (bestR < 0 || t < bestT) {
				bestR, bestT = r, t
			}
		}
		if bestR < 0 {
			panic("pipeline: schedule planner stuck (dependency cycle)")
		}
		collect(bestR)
		chosen := -1
		fBest, bBest := -1, -1
		for i, cd := range cands {
			if cd.start > bestT {
				continue
			}
			if cd.kind == kindF {
				if fBest < 0 || fwdKeyLess(fwdDone, cd.chunk, cands[fBest].chunk, S) {
					fBest = i
				}
			} else {
				if bBest < 0 || bwdDone[cd.chunk] < bwdDone[cands[bBest].chunk] ||
					(bwdDone[cd.chunk] == bwdDone[cands[bBest].chunk] && cd.chunk > cands[bBest].chunk) {
					bBest = i
				}
			}
		}
		switch {
		case fBest >= 0 && bBest < 0:
			chosen = fBest
		case bBest >= 0 && fBest < 0:
			chosen = bBest
		case sched == GPipe:
			chosen = fBest
		case lastKind[bestR] == kindF:
			chosen = bBest
		default:
			chosen = fBest
		}
		cd := cands[chosen]
		cost := tf
		m := fwdDone[cd.chunk]
		if cd.kind == kindB {
			cost = tb
			m = bwdDone[cd.chunk]
		}
		clock[bestR] = bestT + cost
		end[key{cd.kind, cd.chunk, m}] = clock[bestR]
		if cd.kind == kindF {
			fwdDone[cd.chunk]++
		} else {
			bwdDone[cd.chunk]++
		}
		lastKind[bestR] = cd.kind
		orders[bestR] = append(orders[bestR], Task{Kind: cd.kind, Chunk: cd.chunk, Micro: m, Start: bestT, End: clock[bestR]})
		remaining--
	}
	return orders
}

// PlannedBubble returns the bubble fraction 1 − Σ busy / (S · makespan)
// of the schedule a Stage with these parameters executes: the engine runs
// PlanSchedule's task order verbatim, so the planned timeline is the
// execution on the ideal machine. Forward tasks cost tf, backwards tb
// (use 1 and 2 for the dense-stack ratio); v = 0 picks the schedule's
// default chunk count.
func PlannedBubble(S, v, M int, sched Schedule, tf, tb float64) float64 {
	busy, makespan := 0.0, 0.0
	for _, tasks := range PlanSchedule(S, v, M, sched, tf, tb) {
		// Sum costs, not End−Start: the rounded difference of two
		// timeline points need not equal the cost that was added.
		rankBusy := 0.0
		for _, t := range tasks {
			if t.Kind == kindF {
				rankBusy += tf
			} else {
				rankBusy += tb
			}
		}
		busy += rankBusy
		if end := tasks[len(tasks)-1].End; end > makespan {
			makespan = end
		}
	}
	return 1 - busy/(float64(S)*makespan)
}

// fwdKeyLess orders forward candidates by interleaved fill position:
// micro-group (micro / S) major, shallower chunk on ties.
func fwdKeyLess(fwdDone []int, a, b, S int) bool {
	ga, gb := fwdDone[a]/S, fwdDone[b]/S
	if ga != gb {
		return ga < gb
	}
	return a < b
}
