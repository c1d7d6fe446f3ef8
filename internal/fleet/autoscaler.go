package fleet

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// SLO is the serving objective the autoscaler defends.
type SLO struct {
	// P99 is the target 99th-percentile latency; a rolling window above
	// it is an overload signal (0 disables the latency signal).
	P99 time.Duration
}

// Fixed control-loop constants. queueFrac is the admission-queue
// occupancy fraction treated as overload — queue depth leads latency, so
// this signal fires before p99 does. A scale-up multiplies the replica
// count by upFactor (doubling closes an SLO gap in O(log n) ticks); a
// scale-down removes downStep replicas. The rolling-p99 signal is trusted
// only over at least minWindow observations (queue-depth overload is
// always trusted).
const (
	queueFrac = 0.5
	upFactor  = 2
	downStep  = 1
	minWindow = 20
)

// AutoscaleConfig tunes the control loop.
type AutoscaleConfig struct {
	SLO SLO
	// Interval between Run ticks (default 100ms). Tests drive Tick
	// directly and ignore this.
	Interval time.Duration
	// DownAfter is how many consecutive underloaded ticks trigger a
	// scale-down (default 5 — scale-downs are cheap to delay and
	// expensive to flap).
	DownAfter int
	// Cooldown is how many ticks after a resize the group is left alone,
	// letting the rolling p99 window reflect the new capacity before the
	// next decision (default 2). This is the hysteresis that keeps the
	// loop from flapping.
	Cooldown int
}

func (c AutoscaleConfig) withDefaults() AutoscaleConfig {
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 5
	}
	if c.Cooldown < 0 {
		c.Cooldown = 0
	} else if c.Cooldown == 0 {
		c.Cooldown = 2
	}
	return c
}

// ScaleEvent records one autoscaler action.
type ScaleEvent struct {
	Group     string
	From, To  int
	Reason    string
	P99       time.Duration
	QueueFrac float64
}

// groupScalerState is the per-group control-loop memory.
type groupScalerState struct {
	lastSnap   telemetry.HistogramSnapshot
	downStreak int
	cooldown   int
}

// Autoscaler resizes one model's replica groups against the SLO. The
// decision inputs are exactly the two cheap accessors serve exports:
// admission-queue depth (leading indicator) and the rolling p99 from
// histogram-snapshot diffs (lagging confirmation). Scale-ups are eager
// and multiplicative, scale-downs slow and additive, and every action is
// followed by a cooldown — classic asymmetric hysteresis, because the
// cost surface is asymmetric: under-provisioning breaches the SLO,
// over-provisioning only wastes nodes for a few ticks.
type Autoscaler struct {
	fleet *Fleet
	model string
	cfg   AutoscaleConfig

	mu     sync.Mutex
	state  map[*group]*groupScalerState
	events []ScaleEvent

	stop chan struct{}
	done chan struct{}
}

// NewAutoscaler builds an autoscaler for model's deployment. Call Tick
// from a test (deterministic) or Run for the background loop.
func (f *Fleet) NewAutoscaler(model string, cfg AutoscaleConfig) (*Autoscaler, error) {
	if _, err := f.deployment(model); err != nil {
		return nil, err
	}
	return &Autoscaler{
		fleet: f,
		model: model,
		cfg:   cfg.withDefaults(),
		state: map[*group]*groupScalerState{},
	}, nil
}

// Tick evaluates every stable group once and applies at most one resize
// per group, returning the actions taken.
func (a *Autoscaler) Tick() []ScaleEvent {
	d, err := a.fleet.deployment(a.model)
	if err != nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	var actions []ScaleEvent
	for _, g := range d.groups {
		if ev, ok := a.tickGroup(g); ok {
			actions = append(actions, ev)
			a.events = append(a.events, ev)
		}
	}
	return actions
}

func (a *Autoscaler) tickGroup(g *group) (ScaleEvent, bool) {
	st := a.state[g]
	if st == nil {
		st = &groupScalerState{}
		a.state[g] = st
	}
	srv := g.srv.Load()
	if srv == nil {
		return ScaleEvent{}, false
	}

	snap := srv.LatencySnapshot()
	window := snap.Sub(st.lastSnap)
	st.lastSnap = snap
	p99 := window.Quantile(0.99)
	qfrac := float64(srv.QueueDepth()) / float64(srv.QueueCap())

	overP99 := a.cfg.SLO.P99 > 0 && window.Count() >= minWindow && p99 > a.cfg.SLO.P99
	overQueue := qfrac >= queueFrac
	overloaded := overP99 || overQueue
	// Underload needs the opposite of BOTH signals with margin: a near
	// empty queue and a rolling p99 under half the target (or no traffic
	// at all — the diurnal trough).
	underloaded := qfrac < queueFrac/4 &&
		(window.Count() == 0 || a.cfg.SLO.P99 <= 0 || p99 < a.cfg.SLO.P99/2)

	if st.cooldown > 0 {
		st.cooldown--
		return ScaleEvent{}, false
	}
	replicas := int(g.replicas.Load())

	if overloaded {
		// Scale-ups race bursts: the first overloaded tick acts.
		st.downStreak = 0
		if replicas < g.spec.MaxReplicas {
			target := min(max(upFactor*replicas, replicas+1), g.spec.MaxReplicas)
			reason := fmt.Sprintf("queue %.0f%% of cap", qfrac*100)
			if overP99 {
				reason = fmt.Sprintf("rolling p99 %s > SLO %s", p99.Round(time.Microsecond), a.cfg.SLO.P99)
			}
			return a.apply(g, st, replicas, target, reason, p99, qfrac)
		}
		return ScaleEvent{}, false
	}

	if underloaded {
		st.downStreak++
		if st.downStreak >= a.cfg.DownAfter && replicas > minReplicas {
			target := max(replicas-downStep, minReplicas)
			return a.apply(g, st, replicas, target,
				fmt.Sprintf("rolling p99 %s, queue %.0f%% of cap", p99.Round(time.Microsecond), qfrac*100), p99, qfrac)
		}
	} else {
		st.downStreak = 0
	}
	return ScaleEvent{}, false
}

// apply performs the resize (graceful drain of the retired server is
// handled inside group.reconfigure) and records the event.
func (a *Autoscaler) apply(g *group, st *groupScalerState, from, to int, reason string, p99 time.Duration, qfrac float64) (ScaleEvent, bool) {
	if err := g.resize(to, a.fleet.reg.Blob); err != nil {
		a.fleet.events.emit(a.model, "scale-failed", fmt.Sprintf("%s: %v", g.spec.Name, err))
		return ScaleEvent{}, false
	}
	st.cooldown = a.cfg.Cooldown
	st.downStreak = 0
	dir := "scale-up"
	if to < from {
		dir = "scale-down"
	}
	a.fleet.events.emit(a.model, dir, fmt.Sprintf("%s: %d -> %d (%s)", g.spec.Name, from, to, reason))
	return ScaleEvent{Group: g.spec.Name, From: from, To: to, Reason: reason, P99: p99, QueueFrac: qfrac}, true
}

// Events returns every action the autoscaler has taken.
func (a *Autoscaler) Events() []ScaleEvent {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]ScaleEvent(nil), a.events...)
}

// Run ticks the control loop every Interval until Stop.
func (a *Autoscaler) Run() {
	a.mu.Lock()
	if a.stop != nil {
		a.mu.Unlock()
		return
	}
	a.stop = make(chan struct{})
	a.done = make(chan struct{})
	stop, done := a.stop, a.done
	a.mu.Unlock()
	go func() {
		defer close(done)
		ticker := time.NewTicker(a.cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				a.Tick()
			}
		}
	}()
}

// Stop halts a running control loop (idempotent; no-op if Run was never
// called).
func (a *Autoscaler) Stop() {
	a.mu.Lock()
	stop, done := a.stop, a.done
	a.stop, a.done = nil, nil
	a.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
