package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestModelStoreRoundTrip exercises the training→serving hand-off: a
// "trained" model (with exercised batch-norm statistics) is checkpointed,
// then restored into a differently-initialized replica, which must
// produce bit-identical inference outputs.
func TestModelStoreRoundTrip(t *testing.T) {
	store, err := NewModelStore(filepath.Join(t.TempDir(), "ckpts"))
	if err != nil {
		t.Fatal(err)
	}

	build := func(seed int64) *nn.Sequential {
		return nn.ResNetMini(rand.New(rand.NewSource(seed)), 2, 4, 4, 1)
	}
	trained := build(1)
	// A training-mode forward moves the batch-norm running statistics off
	// their initialization, so the round trip covers state, not just
	// parameters.
	x := tensor.Randn(rand.New(rand.NewSource(2)), 1, 3, 2, 8, 8)
	trained.Forward(x, true)

	if store.Exists("resnet") {
		t.Fatal("checkpoint must not exist before Save")
	}
	if err := store.Save("resnet", trained); err != nil {
		t.Fatal(err)
	}
	if !store.Exists("resnet") {
		t.Fatal("checkpoint missing after Save")
	}

	// Blob is the fan-out path for many replicas: one read, N restores.
	blob, err := store.Blob("resnet")
	if err != nil {
		t.Fatal(err)
	}
	replica := build(77) // different init: weights must come from the store
	if err := nn.LoadModel(replica, blob); err != nil {
		t.Fatal(err)
	}
	want := trained.Forward(x, false)
	got := replica.Forward(x, false)
	for i, v := range got.Data() {
		if v != want.Data()[i] {
			t.Fatalf("restored replica diverges at element %d: %g vs %g", i, v, want.Data()[i])
		}
	}

	replica2 := build(78)
	if err := nn.LoadModel(replica2, blob); err != nil {
		t.Fatal(err)
	}

	// Structural mismatch must be rejected, not silently accepted.
	wrong := nn.MLP(rand.New(rand.NewSource(3)), 4, 2)
	if err := nn.LoadModel(wrong, blob); err == nil {
		t.Fatal("loading a ResNet checkpoint into an MLP must fail")
	}
	// Missing checkpoint is an error.
	if _, err := store.Blob("nope"); err == nil {
		t.Fatal("loading a missing checkpoint must fail")
	}
}

// TestModelStoreBlobLifecycle covers the raw-blob path the ft subsystem
// uses for trainer snapshots: SaveBlob/Blob round-trip, lexically sorted
// List, and Delete for retention.
func TestModelStoreBlobLifecycle(t *testing.T) {
	store, err := NewModelStore(filepath.Join(t.TempDir(), "ckpts"))
	if err != nil {
		t.Fatal(err)
	}
	names, err := store.List()
	if err != nil || len(names) != 0 {
		t.Fatalf("fresh store should list empty, got %v, %v", names, err)
	}
	for _, n := range []string{"ft-0000000040", "ft-0000000020", "ft-0000000100"} {
		if err := store.SaveBlob(n, []byte(n)); err != nil {
			t.Fatal(err)
		}
	}
	names, err = store.List()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"ft-0000000020", "ft-0000000040", "ft-0000000100"}
	if len(names) != 3 {
		t.Fatalf("List returned %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("List order %v, want %v (zero-padded names sort chronologically)", names, want)
		}
	}
	blob, err := store.Blob("ft-0000000040")
	if err != nil || string(blob) != "ft-0000000040" {
		t.Fatalf("Blob round trip: %q, %v", blob, err)
	}
	if err := store.Delete("ft-0000000020"); err != nil {
		t.Fatal(err)
	}
	if store.Exists("ft-0000000020") {
		t.Fatal("deleted checkpoint still exists")
	}
	if err := store.Delete("ft-0000000020"); err == nil {
		t.Fatal("deleting a missing checkpoint should error")
	}
	// Overwrite is atomic and keeps the newest payload.
	if err := store.SaveBlob("ft-0000000040", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	blob, _ = store.Blob("ft-0000000040")
	if string(blob) != "v2" {
		t.Fatalf("overwrite lost: %q", blob)
	}
}

// TestModelStoreConcurrentSaveLoad hammers one checkpoint name with
// concurrent writers (distinct payloads) and readers: every read must
// observe exactly one writer's payload in full — never a torn mix, never
// a partial file. This is the crash-safety contract the fleet registry
// leans on when a publish races a replica warm-up read.
func TestModelStoreConcurrentSaveLoad(t *testing.T) {
	store, err := NewModelStore(filepath.Join(t.TempDir(), "ckpts"))
	if err != nil {
		t.Fatal(err)
	}
	const writers, readers, rounds = 4, 4, 50
	// Each writer's payload is self-identifying: 4 KiB of its own tag, so
	// a torn read (half one writer, half another) is detectable.
	payload := func(w int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("writer-%d|", w)), 512)
	}
	if err := store.SaveBlob("hot", payload(0)); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := payload(w)
			for i := 0; i < rounds; i++ {
				if err := store.SaveBlob("hot", p); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				blob, err := store.Blob("hot")
				if err != nil {
					errs <- err
					return
				}
				if len(blob) != 512*len("writer-0|") {
					errs <- fmt.Errorf("torn read: %d bytes", len(blob))
					return
				}
				first := string(blob[:len("writer-0|")])
				if !bytes.Equal(blob, bytes.Repeat([]byte(first), 512)) {
					errs <- fmt.Errorf("mixed payloads in one read (starts %q)", first)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// No temp-file litter from the racing saves.
	entries, err := os.ReadDir(store.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}
