package fleet

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Config assembles a Fleet.
type Config struct {
	// Registry resolves model versions to checkpoint blobs (required).
	Registry *Registry
	// BackendFactory builds one replica backend for a model version's
	// checkpoint blob (required): typically restore the blob into a fresh
	// model instance and wrap it in serve.NewModelBackend. Per-group
	// GroupSpec.Backend overrides it.
	BackendFactory func(model string, blob []byte) (serve.Backend, error)
	// Groups are the heterogeneous replica groups every deployment of
	// this fleet spans (at least one).
	Groups []GroupSpec
	// Serve is the per-group serving configuration (batching window,
	// queue bound, deadlines); zero values take serve's defaults.
	Serve serve.Config
	// CacheSize bounds the idempotent-result cache (entries); 0 disables
	// caching entirely.
	CacheSize int
	// Tracer, when non-nil, records fleet request spans (one per routed
	// request, on the owning group's track) and control-plane event
	// spans. Nil costs nothing.
	Tracer *telemetry.Tracer
}

// deployment is one model being served: its stable version across the
// fleet's groups, plus at most one active canary.
type deployment struct {
	model  string
	stable atomic.Pointer[Entry]
	groups []*group

	split      atomic.Uint64 // traffic-split counter for canary weighting
	canary     atomic.Pointer[canary]
	lastCanary atomic.Pointer[canary]
}

// Fleet serves many models across heterogeneous replica groups. All
// methods are safe for concurrent use; Predict is the hot path.
type Fleet struct {
	cfg   Config
	reg   *Registry
	cache *resultCache

	mu          sync.RWMutex
	deployments map[string]*deployment
	closed      bool

	events *eventLog
	wg     sync.WaitGroup // background drains + canary teardown

	// Fleet-level counters (exported as msa_fleet_* by RegisterMetrics).
	served     atomic.Int64
	shed       atomic.Int64
	expired    atomic.Int64
	failed     atomic.Int64
	rollbacks  atomic.Int64
	promotions atomic.Int64
}

// eventTrack is the tracer track carrying control-plane event spans;
// request spans use the group's index (0..len(groups)-1).
func (f *Fleet) eventTrack() int { return len(f.cfg.Groups) }

// New builds a fleet. No model is served until Deploy.
func New(cfg Config) (*Fleet, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("fleet: Config.Registry is required")
	}
	if cfg.BackendFactory == nil {
		return nil, fmt.Errorf("fleet: Config.BackendFactory is required")
	}
	if len(cfg.Groups) == 0 {
		return nil, fmt.Errorf("fleet: need at least one replica group")
	}
	seen := map[string]bool{}
	for i, g := range cfg.Groups {
		if g.Name == "" {
			return nil, fmt.Errorf("fleet: group %d has no name", i)
		}
		if seen[g.Name] {
			return nil, fmt.Errorf("fleet: duplicate group name %q", g.Name)
		}
		seen[g.Name] = true
	}
	f := &Fleet{
		cfg:         cfg,
		reg:         cfg.Registry,
		cache:       newResultCache(cfg.CacheSize),
		deployments: map[string]*deployment{},
	}
	f.events = &eventLog{tracer: cfg.Tracer, track: f.eventTrack()}
	if cfg.Tracer != nil {
		for i, g := range cfg.Groups {
			cfg.Tracer.SetTrackName(i, "fleet/"+g.Name)
		}
		cfg.Tracer.SetTrackName(f.eventTrack(), "fleet/events")
	}
	return f, nil
}

// Deploy starts serving the model's stable registry version across every
// configured group.
func (f *Fleet) Deploy(model string) error {
	e, err := f.reg.Stable(model)
	if err != nil {
		return err
	}
	blob, err := f.reg.Blob(e)
	if err != nil {
		return err
	}
	d := &deployment{model: model}
	d.stable.Store(&e)
	for _, spec := range f.cfg.Groups {
		g, err := newGroup(f, spec, e, blob)
		if err != nil {
			for _, built := range d.groups {
				built.close()
			}
			return err
		}
		d.groups = append(d.groups, g)
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		for _, g := range d.groups {
			g.close()
		}
		return fmt.Errorf("fleet: closed")
	}
	if _, ok := f.deployments[model]; ok {
		f.mu.Unlock()
		for _, g := range d.groups {
			g.close()
		}
		return fmt.Errorf("fleet: model %q already deployed", model)
	}
	f.deployments[model] = d
	f.mu.Unlock()
	f.events.emit(model, "deploy", e.Ref())
	return nil
}

// Undeploy stops serving model, draining every group.
func (f *Fleet) Undeploy(model string) error {
	f.mu.Lock()
	d, ok := f.deployments[model]
	if ok {
		delete(f.deployments, model)
	}
	f.mu.Unlock()
	if !ok {
		return fmt.Errorf("fleet: model %q not deployed", model)
	}
	if c := d.canary.Swap(nil); c != nil {
		c.group.close()
	}
	for _, g := range d.groups {
		g.close()
	}
	f.events.emit(model, "undeploy", "")
	return nil
}

func (f *Fleet) deployment(model string) (*deployment, error) {
	f.mu.RLock()
	d := f.deployments[model]
	f.mu.RUnlock()
	if d == nil {
		return nil, fmt.Errorf("fleet: model %q not deployed", model)
	}
	return d, nil
}

// Predict serves one request for model. The request flows canary split →
// router → group server; the result cache is not consulted (use
// PredictCached for idempotent requests).
func (f *Fleet) Predict(ctx context.Context, model string, x *tensor.Tensor) (serve.Prediction, error) {
	return f.predict(ctx, model, x, false)
}

// PredictCached serves an idempotent request for model: identical inputs
// against the same stable version may be answered from the bounded
// result cache without touching a replica.
func (f *Fleet) PredictCached(ctx context.Context, model string, x *tensor.Tensor) (serve.Prediction, error) {
	return f.predict(ctx, model, x, true)
}

func (f *Fleet) predict(ctx context.Context, model string, x *tensor.Tensor, idempotent bool) (serve.Prediction, error) {
	d, err := f.deployment(model)
	if err != nil {
		return serve.Prediction{}, err
	}
	var key uint64
	if idempotent && f.cache != nil {
		key = cacheKey(model, d.stable.Load().Version, x)
		if p, ok := f.cache.get(key); ok {
			f.served.Add(1)
			return p, nil
		}
	}

	start := f.cfg.Tracer.Start()
	p, g, err := f.route(ctx, d, x)
	if g != nil && f.cfg.Tracer != nil {
		f.cfg.Tracer.End(f.groupTrack(g), telemetry.CatFleet, "predict", start,
			int64(x.Size())*8, model)
	}
	f.account(err)
	if err != nil {
		return p, err
	}
	if idempotent && f.cache != nil {
		f.cache.put(key, p)
	}
	return p, nil
}

// route runs the canary split then least-loaded group dispatch.
func (f *Fleet) route(ctx context.Context, d *deployment, x *tensor.Tensor) (serve.Prediction, *group, error) {
	if p, handled, err := f.routeCanary(ctx, d, x); handled {
		c := d.lastCanary.Load()
		if active := d.canary.Load(); active != nil {
			c = active
		}
		var g *group
		if c != nil {
			g = c.group
		}
		return p, g, err
	}
	g := pickGroup(d.groups)
	if g == nil {
		return serve.Prediction{}, nil, ErrGroupClosed
	}
	p, err := g.predict(ctx, x)
	return p, g, err
}

// groupTrack maps a group to its tracer track (canary groups share the
// events track — they are control-plane creatures).
func (f *Fleet) groupTrack(g *group) int {
	for i := range f.cfg.Groups {
		if f.cfg.Groups[i].Name == g.spec.Name {
			return i
		}
	}
	return f.eventTrack()
}

func (f *Fleet) account(err error) {
	switch {
	case err == nil:
		f.served.Add(1)
	case isShed(err):
		f.shed.Add(1)
	case isExpired(err):
		f.expired.Add(1)
	default:
		f.failed.Add(1)
	}
}

func isShed(err error) bool { return errors.Is(err, serve.ErrOverloaded) }
func isExpired(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// Stats is a point-in-time fleet snapshot.
type Stats struct {
	Served     int64
	Shed       int64
	Expired    int64
	Failed     int64
	Rollbacks  int64
	Promotions int64
	CacheHits  int64
	CacheMiss  int64
	Groups     map[string][]GroupStats // model → per-group rows
}

// Snapshot captures fleet-wide counters and per-deployment group stats.
func (f *Fleet) Snapshot() Stats {
	st := Stats{
		Served: f.served.Load(), Shed: f.shed.Load(),
		Expired: f.expired.Load(), Failed: f.failed.Load(),
		Rollbacks: f.rollbacks.Load(), Promotions: f.promotions.Load(),
		Groups: map[string][]GroupStats{},
	}
	if f.cache != nil {
		st.CacheHits = f.cache.hits.Load()
		st.CacheMiss = f.cache.misses.Load()
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	for model, d := range f.deployments {
		rows := make([]GroupStats, 0, len(d.groups))
		for _, g := range d.groups {
			rows = append(rows, g.stats())
		}
		st.Groups[model] = rows
	}
	return st
}

// Events returns the fleet's control-plane event log.
func (f *Fleet) Events() []Event { return f.events.snapshot() }

// StableVersion returns the version a deployed model currently serves.
func (f *Fleet) StableVersion(model string) (Entry, error) {
	d, err := f.deployment(model)
	if err != nil {
		return Entry{}, err
	}
	return *d.stable.Load(), nil
}

// Close undeploys every model (draining all groups) and waits for every
// background drain to finish. Predicts racing Close resolve to a
// terminal outcome — drained servers answer everything they admitted.
func (f *Fleet) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		f.wg.Wait()
		return
	}
	f.closed = true
	models := make([]string, 0, len(f.deployments))
	for m := range f.deployments {
		models = append(models, m)
	}
	f.mu.Unlock()
	for _, m := range models {
		_ = f.Undeploy(m)
	}
	f.wg.Wait()
}

// String renders the snapshot compactly.
func (st Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d served, %d shed, %d expired, %d failed; %d rollbacks, %d promotions; cache %d/%d hits\n",
		st.Served, st.Shed, st.Expired, st.Failed, st.Rollbacks, st.Promotions,
		st.CacheHits, st.CacheHits+st.CacheMiss)
	for model, rows := range st.Groups {
		for _, g := range rows {
			fmt.Fprintf(&b, "  %s/%s[%s] %s: %d replicas, %d inflight, q%d, %d served, %d errors, p99 %s (+%d/-%d scale, %d drains)\n",
				model, g.Name, g.Kind, g.Version, g.Replicas, g.Inflight, g.QueueDepth,
				g.Served, g.Errors, g.P99.Round(time.Microsecond), g.ScaleUps, g.ScaleDowns, g.Drains)
		}
	}
	return b.String()
}
