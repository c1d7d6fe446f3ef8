package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// CanaryState is the rollout state machine:
//
//	Running ──breach──▶ RollingBack ──▶ RolledBack
//	   │
//	   └──healthy after PromoteAfter──▶ Promoting ──▶ Promoted
//
// Exactly one transition out of Running wins (CAS-guarded), so a p99
// breach and the promote threshold racing each other resolve to one
// terminal state.
type CanaryState int32

// Canary states.
const (
	CanaryRunning CanaryState = iota
	CanaryPromoting
	CanaryPromoted
	CanaryRollingBack
	CanaryRolledBack
)

func (s CanaryState) String() string {
	switch s {
	case CanaryRunning:
		return "running"
	case CanaryPromoting:
		return "promoting"
	case CanaryPromoted:
		return "promoted"
	case CanaryRollingBack:
		return "rolling-back"
	case CanaryRolledBack:
		return "rolled-back"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// CanaryPolicy is the guardrail configuration of a canary rollout.
type CanaryPolicy struct {
	// WeightPct of live traffic routed to the canary group (default 10).
	WeightPct int
	// MaxErrorRate triggers rollback when the canary's user-visible error
	// fraction exceeds it after MinRequests (default 0.05).
	MaxErrorRate float64
	// MaxP99 triggers rollback when the canary's p99 latency exceeds it
	// after MinRequests (0 disables the latency guardrail).
	MaxP99 time.Duration
	// MinRequests is the sample size before guardrails fire (default 50).
	MinRequests int64
	// PromoteAfter is how many canary requests with healthy guardrails
	// auto-promote the version (default 500; 0 disables auto-promote —
	// call Promote explicitly).
	PromoteAfter int64
}

func (p CanaryPolicy) withDefaults() CanaryPolicy {
	if p.WeightPct <= 0 {
		p.WeightPct = 10
	}
	if p.WeightPct > 100 {
		p.WeightPct = 100
	}
	if p.MaxErrorRate <= 0 {
		p.MaxErrorRate = 0.05
	}
	if p.MinRequests <= 0 {
		p.MinRequests = 50
	}
	if p.PromoteAfter < 0 {
		p.PromoteAfter = 0
	} else if p.PromoteAfter == 0 {
		p.PromoteAfter = 500
	}
	return p
}

// canary is one in-flight canary rollout.
type canary struct {
	entry  Entry
	policy CanaryPolicy
	group  *group
	state  atomic.Int32

	total  atomic.Int64 // canary requests with a served/failed outcome
	errs   atomic.Int64 // user-visible canary errors
	reason atomic.Pointer[string]
}

func (c *canary) currentState() CanaryState { return CanaryState(c.state.Load()) }

// CanaryReport is the inspectable outcome of a canary rollout.
type CanaryReport struct {
	Version  string
	State    CanaryState
	Requests int64
	// Reason explains a rollback ("error-rate 0.31 > 0.05") or promote.
	Reason string
}

func (c *canary) report() CanaryReport {
	rep := CanaryReport{
		Version:  c.entry.Ref(),
		State:    c.currentState(),
		Requests: c.total.Load(),
	}
	if r := c.reason.Load(); r != nil {
		rep.Reason = *r
	}
	return rep
}

// DeployCanary starts a canary rollout of version v next to model's
// stable deployment: spec sizes the canary replica group, policy sets the
// traffic weight and guardrails. Canary traffic that the (small) canary
// group sheds falls back to stable — capacity limits must not show up as
// user errors. The rollout then runs itself: breach the error-rate or
// p99 guardrail and it rolls back; stay healthy through PromoteAfter
// requests and it promotes, registry included.
func (f *Fleet) DeployCanary(model string, v int, spec GroupSpec, policy CanaryPolicy) error {
	d, err := f.deployment(model)
	if err != nil {
		return err
	}
	e, err := f.reg.Get(model, v)
	if err != nil {
		return err
	}
	blob, err := f.reg.Blob(e)
	if err != nil {
		return err
	}
	c := &canary{entry: e, policy: policy.withDefaults()}
	g, err := newGroup(f, spec, e, blob)
	if err != nil {
		return err
	}
	c.group = g
	if !d.canary.CompareAndSwap(nil, c) {
		g.close()
		return fmt.Errorf("fleet: model %q already has an active canary", model)
	}
	f.events.emit(model, "canary-start", e.Ref())
	return nil
}

// CanaryReport returns the state of the model's most recent canary (the
// active one, or the last terminal one).
func (f *Fleet) CanaryReport(model string) (CanaryReport, error) {
	d, err := f.deployment(model)
	if err != nil {
		return CanaryReport{}, err
	}
	c := d.canary.Load()
	if c == nil {
		c = d.lastCanary.Load()
	}
	if c == nil {
		return CanaryReport{}, fmt.Errorf("fleet: model %q has no canary", model)
	}
	return c.report(), nil
}

// routeCanary decides whether this request goes to the canary and, when
// it does, serves and accounts it. ok=false means the caller should
// serve the request on the stable groups (no canary, out of the weight
// split, or canary shed).
func (f *Fleet) routeCanary(ctx context.Context, d *deployment, x *tensor.Tensor) (serve.Prediction, bool, error) {
	c := d.canary.Load()
	if c == nil || c.currentState() != CanaryRunning {
		return serve.Prediction{}, false, nil
	}
	if int(d.split.Add(1)%100) >= c.policy.WeightPct {
		return serve.Prediction{}, false, nil
	}
	p, err := c.group.predict(ctx, x)
	if errors.Is(err, serve.ErrOverloaded) || errors.Is(err, ErrGroupClosed) {
		// Capacity (or a lost race with teardown), not model quality:
		// fall back to stable, uncounted.
		return serve.Prediction{}, false, nil
	}
	total := c.total.Add(1)
	if err != nil {
		c.errs.Add(1)
	}
	f.evaluateCanary(d, c, total)
	return p, true, err
}

// evaluateCanary applies the guardrails after each accounted canary
// request. Runs on the request goroutine: rollouts resolve the moment
// the deciding request completes, not on the next control-loop tick.
func (f *Fleet) evaluateCanary(d *deployment, c *canary, total int64) {
	if total < c.policy.MinRequests {
		return
	}
	errRate := float64(c.errs.Load()) / float64(total)
	if errRate > c.policy.MaxErrorRate {
		f.rollbackCanary(d, c, fmt.Sprintf("error-rate %.3f > %.3f after %d requests", errRate, c.policy.MaxErrorRate, total))
		return
	}
	if c.policy.MaxP99 > 0 {
		if srv := c.group.srv.Load(); srv != nil {
			if p99 := srv.P99(); p99 > c.policy.MaxP99 {
				f.rollbackCanary(d, c, fmt.Sprintf("p99 %s > %s after %d requests", p99, c.policy.MaxP99, total))
				return
			}
		}
	}
	if c.policy.PromoteAfter > 0 && total >= c.policy.PromoteAfter {
		f.promoteCanary(d, c, fmt.Sprintf("healthy after %d requests (error-rate %.3f)", total, errRate))
	}
}

// rollbackCanary tears the canary down: traffic stops immediately (state
// leaves Running before the drain), the canary group drains gracefully,
// and the registry is untouched — the canary version was never stable.
func (f *Fleet) rollbackCanary(d *deployment, c *canary, reason string) {
	if !c.state.CompareAndSwap(int32(CanaryRunning), int32(CanaryRollingBack)) {
		return
	}
	c.reason.Store(&reason)
	d.canary.Store(nil)
	d.lastCanary.Store(c)
	f.rollbacks.Add(1)
	f.events.emit(d.model, "canary-rollback", c.entry.Ref()+": "+reason)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		c.group.close()
		c.state.Store(int32(CanaryRolledBack))
	}()
}

// promoteCanary promotes the canary version: the registry's stable
// pointer moves (with rollback history), every stable group rolls to the
// new version via a graceful blue/green swap, and the canary group
// drains. Runs synchronously on the deciding request's goroutine so the
// state machine is externally deterministic.
func (f *Fleet) promoteCanary(d *deployment, c *canary, reason string) {
	if !c.state.CompareAndSwap(int32(CanaryRunning), int32(CanaryPromoting)) {
		return
	}
	c.reason.Store(&reason)
	blob, err := f.reg.Blob(c.entry)
	if err == nil {
		err = f.reg.Promote(d.model, c.entry.Version)
	}
	if err != nil {
		// Promotion failed (store trouble): abort to rollback semantics
		// rather than serving a version the registry doesn't record.
		reason = "promote failed: " + err.Error()
		c.reason.Store(&reason)
		d.canary.Store(nil)
		d.lastCanary.Store(c)
		f.rollbacks.Add(1)
		c.group.close()
		c.state.Store(int32(CanaryRolledBack))
		return
	}
	d.stable.Store(&c.entry)
	for _, g := range d.groups {
		n := int(g.replicas.Load())
		if rerr := g.reconfigure(n, c.entry, blob); rerr != nil {
			f.events.emit(d.model, "promote-degraded", g.spec.Name+": "+rerr.Error())
		}
	}
	d.canary.Store(nil)
	d.lastCanary.Store(c)
	f.promotions.Add(1)
	f.events.emit(d.model, "canary-promote", c.entry.Ref()+": "+reason)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		c.group.close()
		c.state.Store(int32(CanaryPromoted))
	}()
}

// Event is one fleet control-plane transition (canary start/rollback/
// promote, scale up/down, drain), kept in a bounded
// in-memory log and emitted as a zero-width tracer span on the fleet
// events track.
type Event struct {
	Time   time.Time
	Kind   string
	Detail string
}

type eventLog struct {
	tracer *telemetry.Tracer
	track  int

	mu     sync.Mutex
	events []Event
}

const maxEvents = 1024

func (l *eventLog) emit(model, kind, detail string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.events = append(l.events, Event{Time: time.Now(), Kind: kind, Detail: detail})
	if len(l.events) > maxEvents {
		l.events = l.events[len(l.events)-maxEvents:]
	}
	l.mu.Unlock()
	if l.tracer != nil {
		start := l.tracer.Start()
		l.tracer.End(l.track, telemetry.CatFleet, kind, start, 0, model+": "+detail)
	}
}

func (l *eventLog) snapshot() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}
