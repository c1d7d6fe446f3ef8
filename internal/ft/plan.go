// Package ft is the fault-tolerance subsystem for elastic data-parallel
// training. The paper's scaling results (§III-A: ResNet-50 on BigEarthNet
// at 96–128 GPUs) assume long multi-node runs, and at module scale the
// binding constraint is resilience, not FLOPs: a run that cannot survive a
// node failure re-pays its full history on every crash. The MSA design
// provisions SSSM/NAM bandwidth precisely for checkpoint traffic
// (internal/storage models it); this package closes the loop and
// exercises failure → detection → shrink → restore → resume end to end.
//
// Three pieces:
//
//   - A deterministic fault plan (Plan): seeded, scripted fail-stop rank
//     crashes, each firing at the top of a global step, so failure
//     scenarios replay bit-exactly in tests.
//   - A recovery supervisor (Supervisor): runs a distdl training job under
//     a fault plan, takes periodic coordinated checkpoints (rank-0
//     serialized, retention-pruned), detects dead ranks by heartbeat
//     staleness, revokes the world (ULFM-style), forms a shrunken elastic
//     world from the survivors, re-shards the data with the global batch
//     held constant, and resumes from the last coordinated checkpoint.
//   - Accounting: lost-step and recovery-time figures in the Report, and
//     module-aware checkpoint placement advice (placement.go) joining
//     measured recovery cost to the analytic Young/Daly interval model in
//     internal/storage.
package ft

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Event is one scripted fail-stop crash: global rank Rank dies at the
// start of step Step, before it enters any collective of that step.
type Event struct {
	// Rank is the global rank id the crash targets. Global ids are the
	// ranks of the initial world and never renumber, so a plan stays
	// meaningful across elastic shrinks.
	Rank int
	// Step is the global optimizer step the crash fires at.
	Step int
}

func (e Event) String() string {
	return fmt.Sprintf("crash rank %d at step %d", e.Rank, e.Step)
}

// Plan is a fully deterministic crash schedule. Two runs of the same plan
// against the same job produce identical recovery logs, lost step counts,
// and final parameters (wall-clock timings excepted).
type Plan struct {
	Events []Event
}

// Validate checks the plan against an initial world size: ranks in range,
// non-negative steps, at most one crash per rank, and at least one rank
// left alive.
func (p *Plan) Validate(worldSize int) error {
	if p == nil {
		return nil
	}
	crashed := map[int]bool{}
	for i, e := range p.Events {
		if e.Rank < 0 || e.Rank >= worldSize {
			return fmt.Errorf("ft: event %d: rank %d out of range [0,%d)", i, e.Rank, worldSize)
		}
		if e.Step < 0 {
			return fmt.Errorf("ft: event %d: negative step %d", i, e.Step)
		}
		if crashed[e.Rank] {
			return fmt.Errorf("ft: event %d: rank %d crashes twice", i, e.Rank)
		}
		crashed[e.Rank] = true
	}
	if len(crashed) >= worldSize {
		return fmt.Errorf("ft: plan crashes all %d ranks — no survivors to recover with", worldSize)
	}
	return nil
}

// String renders the plan as one line per event, in a stable order.
func (p *Plan) String() string {
	if p == nil || len(p.Events) == 0 {
		return "no faults"
	}
	lines := make([]string, len(p.Events))
	for i, e := range p.Events {
		lines[i] = e.String()
	}
	return strings.Join(lines, "; ")
}

// crashStep returns the step at which globalRank crashes, or -1 when the
// plan never crashes it.
func (p *Plan) crashStep(globalRank int) int {
	if p != nil {
		for _, e := range p.Events {
			if e.Rank == globalRank {
				return e.Step
			}
		}
	}
	return -1
}

// RandomPlan derives a deterministic plan from a seed: `crashes` distinct
// ranks crash at uniform steps in [minStep, maxStep). The same seed always
// yields the same plan.
func RandomPlan(seed int64, worldSize, minStep, maxStep, crashes int) (*Plan, error) {
	if worldSize < 2 {
		return nil, fmt.Errorf("ft: RandomPlan needs at least 2 ranks, got %d", worldSize)
	}
	if crashes >= worldSize {
		return nil, fmt.Errorf("ft: %d crashes would kill all %d ranks", crashes, worldSize)
	}
	if maxStep <= minStep || minStep < 0 {
		return nil, fmt.Errorf("ft: bad step range [%d,%d)", minStep, maxStep)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(worldSize)
	p := &Plan{}
	for i := 0; i < crashes; i++ {
		p.Events = append(p.Events, Event{Rank: perm[i], Step: minStep + rng.Intn(maxStep-minStep)})
	}
	// Stable presentation order: by step, then rank.
	sort.SliceStable(p.Events, func(a, b int) bool {
		if p.Events[a].Step != p.Events[b].Step {
			return p.Events[a].Step < p.Events[b].Step
		}
		return p.Events[a].Rank < p.Events[b].Rank
	})
	return p, nil
}

// RankFailure is the panic payload a scripted crash raises. The supervisor
// distinguishes it from programming bugs when classifying a rank's death.
type RankFailure struct {
	Rank int // global rank id
	Step int // step the crash fired at
}

func (f RankFailure) Error() string {
	return fmt.Sprintf("ft: injected crash of rank %d at step %d", f.Rank, f.Step)
}

// AsRankFailure extracts a RankFailure from a recover() value.
func AsRankFailure(r any) (RankFailure, bool) {
	f, ok := r.(RankFailure)
	return f, ok
}
