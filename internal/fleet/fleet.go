package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/serve"
	"repro/internal/tensor"
)

// Config assembles a Fleet.
type Config struct {
	// Registry resolves model versions to checkpoint blobs (required).
	Registry *Registry
	// BackendFactory builds one replica backend for a model version's
	// checkpoint blob (required): typically restore the blob into a fresh
	// model instance and wrap it in serve.NewModelBackend.
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
}

// deployment is one model being served: its stable registry version on
// one fixed-size group per configured GroupSpec.
type deployment struct {
	version int
	groups  []*group
}

// Fleet serves many models across heterogeneous replica groups. All
// methods are safe for concurrent use; Predict is the hot path.
type Fleet struct {
	cfg   Config
	cache *resultCache

	mu          sync.RWMutex
	deployments map[string]*deployment
	closed      bool

	shed    atomic.Int64
	expired atomic.Int64
}

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
	return &Fleet{
		cfg:         cfg,
		cache:       newResultCache(cfg.CacheSize),
		deployments: map[string]*deployment{},
	}, nil
}

// Deploy starts serving the model's stable registry version across every
// configured group.
func (f *Fleet) Deploy(model string) error {
	e, err := f.cfg.Registry.Stable(model)
	if err != nil {
		return err
	}
	blob, err := f.cfg.Registry.Blob(e)
	if err != nil {
		return err
	}
	d := &deployment{version: e.Version}
	abort := func(err error) error {
		for _, g := range d.groups {
			g.srv.Close()
		}
		return err
	}
	for _, spec := range f.cfg.Groups {
		g, err := newGroup(spec, f.cfg, model, blob)
		if err != nil {
			return abort(err)
		}
		d.groups = append(d.groups, g)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return abort(fmt.Errorf("fleet: closed"))
	}
	if _, ok := f.deployments[model]; ok {
		return abort(fmt.Errorf("fleet: model %q already deployed", model))
	}
	f.deployments[model] = d
	return nil
}

// Predict serves one request for model through the router and the chosen
// group's server; the result cache is not consulted (use PredictCached
// for idempotent requests).
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
	f.mu.RLock()
	d := f.deployments[model]
	f.mu.RUnlock()
	if d == nil {
		return serve.Prediction{}, fmt.Errorf("fleet: model %q not deployed", model)
	}
	var key uint64
	if idempotent && f.cache != nil {
		key = cacheKey(model, d.version, x)
		if p, ok := f.cache.get(key); ok {
			return p, nil
		}
	}
	p, err := pickGroup(d.groups).predict(ctx, x)
	switch {
	case err == nil:
		if idempotent && f.cache != nil {
			f.cache.put(key, p)
		}
	case errors.Is(err, serve.ErrOverloaded):
		f.shed.Add(1)
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		f.expired.Add(1)
	}
	return p, err
}

// Stats is a point-in-time fleet snapshot.
type Stats struct {
	Shed      int64
	Expired   int64
	CacheHits int64
	CacheMiss int64
	Groups    map[string][]GroupStats // model → per-group rows
}

// Snapshot captures fleet-wide counters and per-deployment group stats.
func (f *Fleet) Snapshot() Stats {
	st := Stats{
		Shed: f.shed.Load(), Expired: f.expired.Load(),
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
			rows = append(rows, GroupStats{Name: g.spec.Name, Served: g.served.Load()})
		}
		st.Groups[model] = rows
	}
	return st
}

// Close stops serving every model and drains every group: each server
// answers everything it admitted before it stops. Predicts racing Close
// resolve to a terminal outcome.
func (f *Fleet) Close() {
	f.mu.Lock()
	f.closed = true
	ds := f.deployments
	f.deployments = map[string]*deployment{}
	f.mu.Unlock()
	for _, d := range ds {
		for _, g := range d.groups {
			g.srv.Close()
		}
	}
}
