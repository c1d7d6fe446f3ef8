package fleet

import (
	"context"
	"errors"
	"strings"
	"sync"
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
	cls  int
	fail bool
}

const testClasses = 4

func (b *classBackend) Infer(batch *tensor.Tensor) (*tensor.Tensor, error) {
	if b.fail {
		return nil, errors.New("classBackend: deliberate failure")
	}
	rows := batch.Dim(0)
	out := tensor.New(rows, testClasses)
	for r := 0; r < rows; r++ {
		out.Data()[r*testClasses+b.cls] = 1
	}
	return out, nil
}

// classFactory decodes blobs of the form "class:N" (or "fail" for an
// always-broken build).
func classFactory(_ string, blob []byte) (serve.Backend, error) {
	s := string(blob)
	switch {
	case strings.HasPrefix(s, "fail"):
		return &classBackend{fail: true}, nil
	case strings.HasPrefix(s, "class:"):
		return &classBackend{cls: int(s[6] - '0')}, nil
	}
	return nil, errors.New("classFactory: unknown blob " + s)
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
	st := f.Snapshot()
	if st.Served != 20 || st.Failed != 0 {
		t.Fatalf("snapshot: %+v", st)
	}
	if e, err := f.StableVersion("m"); err != nil || e.Version != 1 {
		t.Fatalf("stable version = %v, %v; want v1", e, err)
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

// TestFleetZeroDroppedAcrossResizes is the graceful-drain core claim at
// unit scale: a resize storm under concurrent traffic, every request
// reaching a terminal outcome and none lost. Outcome conservation
// (issued == served + shed + expired + failed) is the "zero dropped"
// assertion — a dropped request would leave the sum short.
func TestFleetZeroDroppedAcrossResizes(t *testing.T) {
	f, reg := newTestFleet(t, Config{Serve: serve.Config{QueueCap: 256, BatchWindow: 200 * time.Microsecond}},
		GroupSpec{Name: "cm", Kind: "CM", Replicas: 2, MaxReplicas: 8})
	const (
		workers = 8
		perW    = 200
	)
	stop := make(chan struct{})
	resizerDone := make(chan struct{})
	go func() { // resize storm while traffic flows
		defer close(resizerDone)
		d, _ := f.deployment("m")
		g := d.groups[0]
		sizes := []int{4, 1, 6, 2, 8, 3}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := g.resize(sizes[i%len(sizes)], reg.Blob); err != nil {
				t.Errorf("resize: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				p, err := f.Predict(context.Background(), "m", testSample(float64(w), float64(i)))
				if err == nil && p.Class != 0 {
					t.Errorf("wrong class %d", p.Class)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-resizerDone
	f.Close()
	st := f.Snapshot()
	if got := st.Served + st.Shed + st.Expired + st.Failed; got != int64(workers*perW) {
		t.Fatalf("outcome sum %d != issued %d (dropped requests): %+v", got, workers*perW, st)
	}
	if st.Failed != 0 {
		t.Fatalf("resize storm produced %d hard failures: %+v", st.Failed, st)
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
