// Package fleet is the multi-model serving fleet layered above serve,
// storage, perfmodel, and telemetry: the production answer to the
// million-user north star. Where internal/serve runs one model version on
// a static replica set, fleet adds the four control surfaces a real
// serving estate needs (and the dynamic-composability literature,
// arXiv:2211.06918, motivates for MSA systems):
//
//   - a model Registry of versioned checkpoints in storage.ModelStore
//     with promotion and per-version metadata (registry.go);
//   - a deployment Controller doing canary rollouts (weighted split,
//     automatic rollback on error-rate or p99 breach) (controller.go);
//   - a Router dispatching each request across heterogeneous CM/ESB/DAM
//     replica groups by least-loaded, perfmodel-latency-weighted scoring,
//     with a bounded result cache for idempotent requests (router.go);
//   - an Autoscaler resizing replica groups from admission-queue depth
//     and rolling p99 against a configured SLO, with hysteresis and
//     graceful drain of retired replicas (autoscaler.go).
//
// Everything is observable as msa_fleet_* metrics and fleet-track spans
// through internal/telemetry, and provable under the storm scenario
// (storm_test.go, cmd/msa-fleet): bursty diurnal traffic with a canary
// deploy and rollback mid-storm, asserting SLO attainment and zero
// dropped in-flight requests.
package fleet

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/storage"
)

// Entry describes one published model version.
type Entry struct {
	// Model is the model name the version belongs to.
	Model string `json:"model"`
	// Version is the monotonically increasing version number (1-based).
	Version int `json:"version"`
	// Checkpoint is the storage.ModelStore name holding the blob.
	Checkpoint string `json:"checkpoint"`
	// Meta carries free-form per-version metadata (training run id,
	// dataset hash, accuracy at publish time, ...).
	Meta map[string]string `json:"meta,omitempty"`
}

// Ref renders the canonical model@vN reference.
func (e Entry) Ref() string { return fmt.Sprintf("%s@v%d", e.Model, e.Version) }

// manifest is one model's registry state, persisted as a JSON blob in the
// same ModelStore as the checkpoints (atomically, via SaveBlob).
type manifest struct {
	// Stable is the currently promoted version (0 = none).
	Stable int `json:"stable"`
	// Versions lists every published version in order.
	Versions []Entry `json:"versions"`
}

func (m *manifest) entry(v int) *Entry {
	for i := range m.Versions {
		if m.Versions[i].Version == v {
			return &m.Versions[i]
		}
	}
	return nil
}

// checkpointName is the ModelStore name of one version's blob.
func checkpointName(model string, version int) string {
	return fmt.Sprintf("%s@v%06d", model, version)
}

func validModelName(model string) bool {
	return model != "" && !strings.Contains(model, "@")
}

// validate checks a manifest read back from the store before the
// registry trusts it. Stable dereferences the entry stable names, and Blob
// reads each entry's Checkpoint from the store, so a manifest is accepted
// only if its versions are ≥ 1, unique and ascending, each entry belongs
// to this model under its canonical checkpoint name, and stable (unless 0)
// names a listed version.
func (m *manifest) validate(model string) error {
	if !validModelName(model) {
		return fmt.Errorf("invalid model name %q", model)
	}
	prev := 0
	for _, e := range m.Versions {
		if e.Version <= prev {
			return fmt.Errorf("version %d after %d: versions must be ≥ 1, unique and ascending", e.Version, prev)
		}
		prev = e.Version
		if e.Model != model {
			return fmt.Errorf("v%d belongs to model %q", e.Version, e.Model)
		}
		if want := checkpointName(model, e.Version); e.Checkpoint != want {
			return fmt.Errorf("v%d names checkpoint %q, want %q", e.Version, e.Checkpoint, want)
		}
	}
	if m.Stable != 0 && m.entry(m.Stable) == nil {
		return fmt.Errorf("stable v%d is not a listed version", m.Stable)
	}
	return nil
}

// Registry is the versioned model catalog: checkpoints live in a
// storage.ModelStore, registry state (stable pointers, metadata) lives
// beside them as per-model manifest blobs, so a restarted fleet recovers
// the exact deployment state. All methods are safe for concurrent use.
type Registry struct {
	store *storage.ModelStore

	mu     sync.Mutex
	models map[string]*manifest
}

// manifestSuffix names the per-model manifest blob in the store. "@" is
// the version separator, so no checkpoint name collides with it.
const manifestSuffix = "@manifest"

// NewRegistry opens a registry over the store, recovering any manifests a
// previous process persisted. A manifest that does not parse or does not
// validate fails the open: the store's contents are not trusted.
func NewRegistry(store *storage.ModelStore) (*Registry, error) {
	r := &Registry{store: store, models: map[string]*manifest{}}
	names, err := store.List()
	if err != nil {
		return nil, fmt.Errorf("fleet: opening registry: %w", err)
	}
	for _, n := range names {
		model, ok := strings.CutSuffix(n, manifestSuffix)
		if !ok {
			continue
		}
		blob, err := store.Blob(n)
		if err != nil {
			return nil, fmt.Errorf("fleet: reading manifest for %s: %w", model, err)
		}
		var m manifest
		if err := json.Unmarshal(blob, &m); err != nil {
			return nil, fmt.Errorf("fleet: corrupt manifest for %s: %w", model, err)
		}
		if err := m.validate(model); err != nil {
			return nil, fmt.Errorf("fleet: invalid manifest for %s: %w", model, err)
		}
		r.models[model] = &m
	}
	return r, nil
}

// persist writes the model's manifest atomically. Callers hold r.mu.
func (r *Registry) persist(model string) error {
	blob, err := json.MarshalIndent(r.models[model], "", "  ")
	if err != nil {
		return err
	}
	return r.store.SaveBlob(model+manifestSuffix, blob)
}

// Publish stores blob as the next version of model and returns its entry.
// The first published version of a model is auto-promoted to stable so a
// fresh model is immediately deployable; later versions must earn
// promotion (directly or through a canary).
func (r *Registry) Publish(model string, blob []byte, meta map[string]string) (Entry, error) {
	if !validModelName(model) {
		return Entry{}, fmt.Errorf("fleet: invalid model name %q", model)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.models[model]
	if m == nil {
		m = &manifest{}
		r.models[model] = m
	}
	next := 1
	if n := len(m.Versions); n > 0 {
		if m.Versions[n-1].Version == math.MaxInt {
			return Entry{}, fmt.Errorf("fleet: model %q has no version number left", model)
		}
		next = m.Versions[n-1].Version + 1
	}
	e := Entry{
		Model:      model,
		Version:    next,
		Checkpoint: checkpointName(model, next),
		Meta:       meta,
	}
	if err := r.store.SaveBlob(e.Checkpoint, blob); err != nil {
		return Entry{}, err
	}
	m.Versions = append(m.Versions, e)
	if m.Stable == 0 {
		m.Stable = e.Version
	}
	if err := r.persist(model); err != nil {
		return Entry{}, err
	}
	return e, nil
}

// Stable returns the currently promoted version of model.
func (r *Registry) Stable(model string) (Entry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.models[model]
	if m == nil || m.Stable == 0 {
		return Entry{}, fmt.Errorf("fleet: model %q has no stable version", model)
	}
	return *m.entry(m.Stable), nil
}

// Get returns one specific version of model.
func (r *Registry) Get(model string, version int) (Entry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.models[model]
	if m == nil {
		return Entry{}, fmt.Errorf("fleet: unknown model %q", model)
	}
	e := m.entry(version)
	if e == nil {
		return Entry{}, fmt.Errorf("fleet: %s@v%d not published", model, version)
	}
	return *e, nil
}

// Blob reads the checkpoint bytes of an entry.
func (r *Registry) Blob(e Entry) ([]byte, error) {
	return r.store.Blob(e.Checkpoint)
}

// Promote makes version the stable one.
func (r *Registry) Promote(model string, version int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.models[model]
	if m == nil || m.entry(version) == nil {
		return fmt.Errorf("fleet: cannot promote unpublished %s@v%d", model, version)
	}
	if m.Stable == version {
		return nil
	}
	m.Stable = version
	return r.persist(model)
}
