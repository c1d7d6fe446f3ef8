package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/tensor"
)

// ErrGroupClosed is returned for requests reaching a group after its
// deployment was torn down.
var ErrGroupClosed = errors.New("fleet: replica group closed")

// GroupSpec sizes one heterogeneous replica group — typically one per
// MSA module hosting the tier (CM, ESB, DAM), with the modeled hardware
// differential and the perfmodel-derived latency score telling the router
// how the groups compare.
type GroupSpec struct {
	// Name labels the group in metrics, spans, and reports.
	Name string
	// Kind is the hosting module kind ("CM", "ESB", "DAM", ...); purely
	// descriptive.
	Kind string
	// Replicas is the initial replica count.
	Replicas int
	// MaxReplicas bounds the autoscaler from above (default 4×Replicas);
	// minReplicas bounds it from below.
	MaxReplicas int
	// LatencyScore is the router's per-sample service-time estimate for
	// this group's hardware, in seconds — perfmodel.NodeTime of the
	// inference workload on the module's node spec (serve.DerivePlan's
	// PerSample). Lower scores attract traffic first.
	LatencyScore float64
	// Overhead and PerSample, when set, wrap every replica in a
	// serve.ModeledBackend with the module's modeled dispatch and service
	// costs (how a laptop-scale test behaves like CM/ESB/DAM silicon).
	Overhead  time.Duration
	PerSample time.Duration
	// Backend, when non-nil, overrides the fleet's BackendFactory for
	// this group — the hook chaos tests and the storm scenario use to
	// deploy a deliberately broken or slow canary build.
	Backend func(blob []byte) (serve.Backend, error)
}

// minReplicas is the fewest replicas a group scales down to.
const minReplicas = 1

func (s GroupSpec) withDefaults() GroupSpec {
	if s.Replicas < 1 {
		s.Replicas = 1
	}
	if s.MaxReplicas < s.Replicas {
		s.MaxReplicas = 4 * s.Replicas
	}
	return s
}

// group is one elastic replica set: a serve.Server plus the machinery to
// swap it for a differently sized (or differently versioned) one without
// dropping a request. Resize is blue/green: the new server is built and
// installed first, then the old one drains in the background —
// serve.Server.Close delivers exactly one response to everything already
// admitted, and fleet retries requests that raced the swap on the new
// server, so in-flight requests never fall on the floor.
type group struct {
	spec    GroupSpec
	fleet   *Fleet
	version atomic.Pointer[Entry] // version currently serving

	srv      atomic.Pointer[serve.Server]
	replicas atomic.Int64
	inflight atomic.Int64

	// resizeMu serializes reconfigurations (autoscaler vs promote).
	resizeMu sync.Mutex
	closed   atomic.Bool

	scaleUps   atomic.Int64
	scaleDowns atomic.Int64
	drains     atomic.Int64 // retired servers fully drained
	served     atomic.Int64
	errors     atomic.Int64
}

// newGroup builds the group's first server at spec.Replicas.
func newGroup(f *Fleet, spec GroupSpec, e Entry, blob []byte) (*group, error) {
	g := &group{spec: spec.withDefaults(), fleet: f}
	g.version.Store(&e)
	srv, err := g.buildServer(g.spec.Replicas, blob)
	if err != nil {
		return nil, err
	}
	g.srv.Store(srv)
	g.replicas.Store(int64(g.spec.Replicas))
	return g, nil
}

// buildServer assembles n fresh replica backends for blob and starts a
// server over them.
func (g *group) buildServer(n int, blob []byte) (*serve.Server, error) {
	factory := g.spec.Backend
	if factory == nil {
		f := g.fleet.cfg.BackendFactory
		model := g.version.Load().Model
		factory = func(b []byte) (serve.Backend, error) { return f(model, b) }
	}
	backends := make([]serve.Backend, n)
	for i := range backends {
		b, err := factory(blob)
		if err != nil {
			return nil, fmt.Errorf("fleet: building replica %d of group %s: %w", i, g.spec.Name, err)
		}
		if g.spec.Overhead > 0 || g.spec.PerSample > 0 {
			b = &serve.ModeledBackend{Inner: b, Overhead: g.spec.Overhead, PerSample: g.spec.PerSample}
		}
		backends[i] = b
	}
	return serve.New(backends, g.fleet.cfg.Serve), nil
}

// predict routes one request to the group's current server. A request
// that races a resize swap sees ErrClosed from the retiring server and
// retries on its replacement — the caller never observes the swap.
func (g *group) predict(ctx context.Context, x *tensor.Tensor) (serve.Prediction, error) {
	g.inflight.Add(1)
	defer g.inflight.Add(-1)
	for {
		srv := g.srv.Load()
		if srv == nil {
			return serve.Prediction{}, ErrGroupClosed
		}
		p, err := srv.Predict(ctx, x)
		if errors.Is(err, serve.ErrClosed) && g.srv.Load() != srv {
			continue
		}
		if err != nil {
			g.errors.Add(1)
		} else {
			g.served.Add(1)
		}
		return p, err
	}
}

// resize moves the group to n replicas on its current version. The old
// server drains in the background; its in-flight and queued requests all
// complete (on the old server), and new arrivals go to the new one.
func (g *group) resize(n int, blobOf func(Entry) ([]byte, error)) error {
	e := *g.version.Load()
	blob, err := blobOf(e)
	if err != nil {
		return err
	}
	return g.reconfigure(n, e, blob)
}

// reconfigure swaps in a server with n replicas of version e.
func (g *group) reconfigure(n int, e Entry, blob []byte) error {
	g.resizeMu.Lock()
	defer g.resizeMu.Unlock()
	if g.closed.Load() {
		return ErrGroupClosed
	}
	if n < minReplicas {
		n = minReplicas
	}
	if n > g.spec.MaxReplicas {
		n = g.spec.MaxReplicas
	}
	old := g.srv.Load()
	if cur := g.version.Load(); int64(n) == g.replicas.Load() && old != nil &&
		e.Model == cur.Model && e.Version == cur.Version {
		return nil
	}
	srv, err := g.buildServer(n, blob)
	if err != nil {
		return err
	}
	prev := g.replicas.Load()
	g.version.Store(&e)
	g.srv.Store(srv)
	g.replicas.Store(int64(n))
	switch {
	case int64(n) > prev:
		g.scaleUps.Add(1)
	case int64(n) < prev:
		g.scaleDowns.Add(1)
	}
	if old != nil {
		g.fleet.wg.Add(1)
		go func() {
			defer g.fleet.wg.Done()
			old.Close() // drains every admitted request, then stops workers
			g.drains.Add(1)
		}()
	}
	return nil
}

// close retires the group, draining its current server synchronously.
func (g *group) close() {
	g.resizeMu.Lock()
	defer g.resizeMu.Unlock()
	if !g.closed.CompareAndSwap(false, true) {
		return
	}
	if old := g.srv.Swap(nil); old != nil {
		old.Close()
		g.drains.Add(1)
	}
}

// load is the router's congestion signal: outstanding work per replica.
func (g *group) load() float64 {
	srv := g.srv.Load()
	if srv == nil {
		return 0
	}
	n := float64(g.replicas.Load())
	if n <= 0 {
		n = 1
	}
	return (float64(g.inflight.Load()) + float64(srv.QueueDepth())) / n
}

// score is the router's dispatch key: the perfmodel latency estimate
// stretched by current congestion. An idle fast group wins; a congested
// fast group loses to an idle slower one once its backlog exceeds the
// hardware differential.
func (g *group) score() float64 {
	s := g.spec.LatencyScore
	if s <= 0 {
		s = 1
	}
	return s * (1 + g.load())
}

// GroupStats is one group's snapshot row in fleet reports.
type GroupStats struct {
	Name       string
	Kind       string
	Version    string
	Replicas   int
	Inflight   int
	QueueDepth int
	Served     int64
	Errors     int64
	ScaleUps   int64
	ScaleDowns int64
	Drains     int64
	P99        time.Duration
}

func (g *group) stats() GroupStats {
	st := GroupStats{
		Name: g.spec.Name, Kind: g.spec.Kind,
		Version:  g.version.Load().Ref(),
		Replicas: int(g.replicas.Load()), Inflight: int(g.inflight.Load()),
		Served: g.served.Load(), Errors: g.errors.Load(),
		ScaleUps: g.scaleUps.Load(), ScaleDowns: g.scaleDowns.Load(),
		Drains: g.drains.Load(),
	}
	if srv := g.srv.Load(); srv != nil {
		st.QueueDepth = srv.QueueDepth()
		st.P99 = srv.P99()
	}
	return st
}
