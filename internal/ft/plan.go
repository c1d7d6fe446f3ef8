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
//   - A deterministic fault injector (Plan/Injector): seeded, scripted
//     rank crashes, message delays, and slow-rank throttling behind the
//     mpi.Communicator interface, so failure scenarios replay bit-exactly
//     in tests.
//   - A recovery supervisor (Supervisor): runs a distdl training job under
//     a fault plan, takes periodic coordinated checkpoints (rank-0
//     serialized, retention-pruned), detects dead ranks by heartbeat
//     staleness, revokes the world (ULFM-style), forms a shrunken elastic
//     world from the survivors, re-shards the data with the global batch
//     held constant, and resumes from the last coordinated checkpoint.
//   - Accounting: lost-step and recovery-time metrics, checkpoint/recovery
//     spans through internal/telemetry, and module-aware checkpoint
//     placement advice (placement.go) joining measured recovery cost to
//     the analytic Young/Daly interval model in internal/storage.
package ft

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// EventKind classifies one scripted fault.
type EventKind int

// Fault kinds.
const (
	// Crash terminates the rank at the start of step Step (before it
	// enters any collective of that step) — fail-stop semantics.
	Crash EventKind = iota
	// Straggle sleeps PerOp before every communication operation the rank
	// issues while the event is active: a slow NIC, a thermally throttled
	// GPU, a noisy neighbour.
	Straggle
	// DelayMsg sleeps PerOp before every point-to-point Send while the
	// event is active, modelling link-level latency injection.
	DelayMsg
)

func (k EventKind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Straggle:
		return "straggle"
	case DelayMsg:
		return "delay-msg"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one scripted fault against one global rank.
type Event struct {
	Kind EventKind
	// Rank is the global rank id the event targets. Global ids are the
	// ranks of the initial world and never renumber, so a plan stays
	// meaningful across elastic shrinks.
	Rank int
	// Step is the global optimizer step the event starts at (fires at for
	// Crash).
	Step int
	// Until, for Straggle/DelayMsg, is the last step (inclusive) the
	// event is active; 0 means open-ended.
	Until int
	// PerOp is the injected sleep per operation (Straggle/DelayMsg).
	PerOp time.Duration
}

func (e Event) String() string {
	switch e.Kind {
	case Crash:
		return fmt.Sprintf("crash rank %d at step %d", e.Rank, e.Step)
	case Straggle, DelayMsg:
		until := "end"
		if e.Until > 0 {
			until = fmt.Sprintf("step %d", e.Until)
		}
		return fmt.Sprintf("%s rank %d from step %d to %s (%v/op)", e.Kind, e.Rank, e.Step, until, e.PerOp)
	default:
		return fmt.Sprintf("%s rank %d step %d", e.Kind, e.Rank, e.Step)
	}
}

// Plan is a seeded, fully deterministic fault schedule. Two runs of the
// same plan against the same job produce identical recovery logs, lost
// step counts, and final parameters (wall-clock timings excepted).
type Plan struct {
	// Seed identifies the plan (RandomPlan derives the events from it;
	// hand-built plans may leave it 0).
	Seed   int64
	Events []Event
}

// Validate checks the plan against an initial world size: ranks in range,
// non-negative steps, at most one crash per rank, sane durations, and at
// least one rank left alive.
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
		if e.Until != 0 && e.Until < e.Step {
			return fmt.Errorf("ft: event %d: Until %d before Step %d", i, e.Until, e.Step)
		}
		if e.PerOp < 0 {
			return fmt.Errorf("ft: event %d: negative PerOp %v", i, e.PerOp)
		}
		switch e.Kind {
		case Crash:
			if crashed[e.Rank] {
				return fmt.Errorf("ft: event %d: rank %d crashes twice", i, e.Rank)
			}
			crashed[e.Rank] = true
		case Straggle, DelayMsg:
			if e.PerOp == 0 {
				return fmt.Errorf("ft: event %d: %s with zero PerOp is a no-op", i, e.Kind)
			}
		default:
			return fmt.Errorf("ft: event %d: unknown kind %d", i, int(e.Kind))
		}
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

// RandomPlan derives a deterministic plan from a seed: `crashes` distinct
// ranks crash at uniform steps in [minStep, maxStep), and `stragglers`
// distinct non-crashing ranks straggle with the given per-op delay from a
// uniform start step. The same seed always yields the same plan.
func RandomPlan(seed int64, worldSize, minStep, maxStep, crashes, stragglers int, perOp time.Duration) (*Plan, error) {
	if worldSize < 2 {
		return nil, fmt.Errorf("ft: RandomPlan needs at least 2 ranks, got %d", worldSize)
	}
	if crashes >= worldSize {
		return nil, fmt.Errorf("ft: %d crashes would kill all %d ranks", crashes, worldSize)
	}
	if maxStep <= minStep || minStep < 0 {
		return nil, fmt.Errorf("ft: bad step range [%d,%d)", minStep, maxStep)
	}
	if crashes+stragglers > worldSize {
		return nil, fmt.Errorf("ft: %d crashes + %d stragglers exceed %d ranks", crashes, stragglers, worldSize)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(worldSize)
	p := &Plan{Seed: seed}
	for i := 0; i < crashes; i++ {
		p.Events = append(p.Events, Event{
			Kind: Crash, Rank: perm[i], Step: minStep + rng.Intn(maxStep-minStep),
		})
	}
	for i := 0; i < stragglers; i++ {
		p.Events = append(p.Events, Event{
			Kind: Straggle, Rank: perm[crashes+i],
			Step: minStep + rng.Intn(maxStep-minStep), PerOp: perOp,
		})
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
