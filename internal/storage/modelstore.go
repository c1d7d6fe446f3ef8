package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/nn"
)

// ModelStore persists trained-model checkpoints as files under one
// directory — the training→serving hand-off of §II-A: the CM trains and
// writes the checkpoint to shared storage (SSSM), and the serving tier on
// the ESB warm-starts by restoring it, so serving never needs an
// in-process training run. Checkpoints are nn.SaveModel blobs (parameters
// plus batch-norm running statistics), which restore identical inference
// behaviour.
type ModelStore struct {
	Dir string
}

// NewModelStore opens (creating if needed) a checkpoint directory.
func NewModelStore(dir string) (*ModelStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: creating model store %s: %w", dir, err)
	}
	return &ModelStore{Dir: dir}, nil
}

func (s *ModelStore) path(name string) string {
	return filepath.Join(s.Dir, name+".ckpt")
}

// Exists reports whether a checkpoint with this name is present.
func (s *ModelStore) Exists(name string) bool {
	_, err := os.Stat(s.path(name))
	return err == nil
}

// Save checkpoints the model under name. The write goes through a
// temporary file and rename, so concurrent readers never observe a
// partial checkpoint.
func (s *ModelStore) Save(name string, m *nn.Sequential) error {
	blob, err := nn.SaveModel(m)
	if err != nil {
		return err
	}
	return s.SaveBlob(name, blob)
}

// SaveBlob stores raw checkpoint bytes under name with the same atomic
// temp-file + rename protocol as Save. This is the path fault-tolerant
// training uses: its blobs carry optimizer state and step counters on top
// of the model, so the store must not care about the payload format.
//
// The temp file is uniquely named (os.CreateTemp) and fsynced before the
// rename: a fixed ".tmp" path lets two concurrent saves of the same name
// interleave writes into one file and publish the torn result, and an
// unsynced rename can commit an empty file across a crash. With both
// fixed, a concurrent Blob/LoadInto observes either the old or the new
// checkpoint in full — never a partial one (the fleet registry publishes
// versions through this guarantee).
func (s *ModelStore) SaveBlob(name string, blob []byte) error {
	f, err := os.CreateTemp(s.Dir, filepath.Base(name)+".*.tmp")
	if err != nil {
		return fmt.Errorf("storage: creating temp for checkpoint %s: %w", name, err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(blob); err != nil {
		return cleanup(fmt.Errorf("storage: writing checkpoint %s: %w", name, err))
	}
	if err := f.Sync(); err != nil {
		return cleanup(fmt.Errorf("storage: syncing checkpoint %s: %w", name, err))
	}
	if err := f.Close(); err != nil {
		return cleanup(fmt.Errorf("storage: closing checkpoint %s: %w", name, err))
	}
	if err := os.Rename(tmp, s.path(name)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: committing checkpoint %s: %w", name, err)
	}
	return nil
}

// List returns the names of all stored checkpoints, sorted lexically —
// with zero-padded step suffixes that is also chronological order, which
// retention policies rely on.
func (s *ModelStore) List() ([]string, error) {
	entries, err := os.ReadDir(s.Dir)
	if err != nil {
		return nil, fmt.Errorf("storage: listing model store %s: %w", s.Dir, err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if n, ok := strings.CutSuffix(e.Name(), ".ckpt"); ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Delete removes a named checkpoint (used by retention policies).
func (s *ModelStore) Delete(name string) error {
	if err := os.Remove(s.path(name)); err != nil {
		return fmt.Errorf("storage: deleting checkpoint %s: %w", name, err)
	}
	return nil
}

// Blob returns the raw checkpoint bytes (for replicating one read across
// many serving replicas without re-touching the filesystem).
func (s *ModelStore) Blob(name string) ([]byte, error) {
	blob, err := os.ReadFile(s.path(name))
	if err != nil {
		return nil, fmt.Errorf("storage: reading checkpoint %s: %w", name, err)
	}
	return blob, nil
}
