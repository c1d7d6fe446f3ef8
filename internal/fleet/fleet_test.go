package fleet

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// classBackend predicts a fixed class regardless of input — the class is
// decoded from the checkpoint blob, so tests can tell apart which model
// version answered a request.
type classBackend struct {
	cls int
}

const testClasses = 4

func (b *classBackend) Infer(batch *tensor.Tensor) (*tensor.Tensor, error) {
	rows := batch.Dim(0)
	out := tensor.New(rows, testClasses)
	for r := 0; r < rows; r++ {
		out.Data()[r*testClasses+b.cls] = 1
	}
	return out, nil
}

// classFactory decodes blobs of the form "class:N".
func classFactory(_ string, blob []byte) (serve.Backend, error) {
	s := string(blob)
	if !strings.HasPrefix(s, "class:") {
		return nil, errors.New("classFactory: unknown blob " + s)
	}
	return &classBackend{cls: int(s[6] - '0')}, nil
}

func newTestRegistry(t *testing.T) *Registry {
	t.Helper()
	store, err := storage.NewModelStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry(store)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// newTestFleet publishes "m" at v1 (class:0) and v2 (class:1), builds a
// fleet with the given groups (a 2-replica default when none given), and
// deploys "m".
func newTestFleet(t *testing.T, cfg Config, groups ...GroupSpec) (*Fleet, *Registry) {
	t.Helper()
	reg := newTestRegistry(t)
	if _, err := reg.Publish("m", []byte("class:0"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("m", []byte("class:1"), nil); err != nil {
		t.Fatal(err)
	}
	if len(groups) == 0 {
		groups = []GroupSpec{{Name: "cm", Kind: "CM", Replicas: 2}}
	}
	cfg.Registry = reg
	if cfg.BackendFactory == nil {
		cfg.BackendFactory = classFactory
	}
	cfg.Groups = groups
	if cfg.Serve.BatchWindow == 0 {
		cfg.Serve.BatchWindow = 200 * time.Microsecond
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Deploy("m"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f, reg
}

func testSample(vals ...float64) *tensor.Tensor {
	x := tensor.New(len(vals))
	copy(x.Data(), vals)
	return x
}

func TestFleetServesStableVersion(t *testing.T) {
	f, _ := newTestFleet(t, Config{})
	for i := 0; i < 20; i++ {
		p, err := f.Predict(context.Background(), "m", testSample(float64(i)))
		if err != nil {
			t.Fatalf("predict %d: %v", i, err)
		}
		if p.Class != 0 {
			t.Fatalf("predict %d: got class %d, want 0 (stable v1)", i, p.Class)
		}
	}
	if rows := f.Snapshot().Groups["m"]; len(rows) != 1 || rows[0].Served != 20 {
		t.Fatalf("group rows %+v, want one group with 20 served", rows)
	}
}

func TestFleetUnknownModel(t *testing.T) {
	f, _ := newTestFleet(t, Config{})
	if _, err := f.Predict(context.Background(), "nope", testSample(1)); err == nil {
		t.Fatal("predict on unknown model succeeded")
	}
	if err := f.Deploy("m"); err == nil {
		t.Fatal("double deploy succeeded")
	}
}

func TestFleetCloseThenPredict(t *testing.T) {
	f, _ := newTestFleet(t, Config{})
	f.Close()
	if _, err := f.Predict(context.Background(), "m", testSample(1)); err == nil {
		t.Fatal("predict after close succeeded")
	}
	f.Close() // idempotent
}
