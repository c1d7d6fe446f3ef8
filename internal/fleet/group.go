package fleet

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/serve"
	"repro/internal/tensor"
)

// GroupSpec sizes one heterogeneous replica group — typically one per
// MSA module hosting the tier (CM, ESB, DAM), with the perfmodel-derived
// latency score telling the router how the groups compare.
type GroupSpec struct {
	// Name labels the group in snapshots and reports.
	Name string
	// Kind is the hosting module kind ("CM", "ESB", "DAM", ...); purely
	// descriptive.
	Kind string
	// Replicas is the group's fixed replica count (at least 1).
	Replicas int
	// LatencyScore is the router's per-sample service-time estimate for
	// this group's hardware, in seconds — perfmodel.NodeTime of the
	// inference workload on the module's node spec (serve.DerivePlan's
	// PerSample). Lower scores attract traffic first.
	LatencyScore float64
}

// group is one fixed-size replica set of a deployment: a serve.Server
// over Replicas backends built from the deployed version's blob.
type group struct {
	spec     GroupSpec
	srv      *serve.Server
	inflight atomic.Int64
	served   atomic.Int64
}

// newGroup builds the group's replicas from blob and starts its server.
func newGroup(spec GroupSpec, cfg Config, model string, blob []byte) (*group, error) {
	spec.Replicas = max(spec.Replicas, 1)
	backends := make([]serve.Backend, spec.Replicas)
	for i := range backends {
		b, err := cfg.BackendFactory(model, blob)
		if err != nil {
			return nil, fmt.Errorf("fleet: building replica %d of group %s: %w", i, spec.Name, err)
		}
		backends[i] = b
	}
	return &group{spec: spec, srv: serve.New(backends, cfg.Serve)}, nil
}

// predict serves one request on the group's server.
func (g *group) predict(ctx context.Context, x *tensor.Tensor) (serve.Prediction, error) {
	g.inflight.Add(1)
	defer g.inflight.Add(-1)
	p, err := g.srv.Predict(ctx, x)
	if err == nil {
		g.served.Add(1)
	}
	return p, err
}

// load is the router's congestion signal: outstanding work per replica.
func (g *group) load() float64 {
	return (float64(g.inflight.Load()) + float64(g.srv.QueueDepth())) / float64(g.spec.Replicas)
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
	Name   string
	Served int64
}
