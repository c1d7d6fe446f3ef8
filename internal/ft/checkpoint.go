package ft

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/storage"
)

// BlobStore is the checkpoint persistence the supervisor needs: named
// blobs with atomic overwrite, listing, and deletion.
// *storage.ModelStore satisfies it (durable, SSSM-backed in the paper's
// terms); MemStore is the in-memory stand-in tests and the NAM-burst
// scenario use.
type BlobStore interface {
	SaveBlob(name string, blob []byte) error
	Blob(name string) ([]byte, error)
	List() ([]string, error)
	Delete(name string) error
}

var _ BlobStore = (*storage.ModelStore)(nil)

// MemStore is an in-memory BlobStore: the NAM of the checkpoint path — a
// memory-speed burst target with no durability. Safe for concurrent use.
type MemStore struct {
	mu    sync.Mutex
	blobs map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{blobs: map[string][]byte{}} }

// SaveBlob stores a copy of blob under name, overwriting atomically.
func (s *MemStore) SaveBlob(name string, blob []byte) error {
	cp := make([]byte, len(blob))
	copy(cp, blob)
	s.mu.Lock()
	s.blobs[name] = cp
	s.mu.Unlock()
	return nil
}

// Blob returns a copy of the named blob.
func (s *MemStore) Blob(name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blobs[name]
	if !ok {
		return nil, fmt.Errorf("ft: checkpoint %q not found", name)
	}
	cp := make([]byte, len(b))
	copy(cp, b)
	return cp, nil
}

// List returns the stored names, sorted.
func (s *MemStore) List() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.blobs))
	for n := range s.blobs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Delete removes the named blob.
func (s *MemStore) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.blobs[name]; !ok {
		return fmt.Errorf("ft: checkpoint %q not found", name)
	}
	delete(s.blobs, name)
	return nil
}

// CheckpointConfig tunes the supervisor's coordinated checkpoints.
type CheckpointConfig struct {
	// Every is the checkpoint period in optimizer steps (0 disables
	// periodic checkpoints; recovery then always restarts from step 0 or
	// the initial snapshot).
	Every int
	// Retain caps how many checkpoints are kept; older ones are pruned
	// after each successful write. 0 means keep all.
	Retain int
}

// checkpointPrefix names the supervisor's checkpoint series in the store.
const checkpointPrefix = "ft"

// checkpointName formats a step into a zero-padded, lexically sortable
// checkpoint name: "<prefix>-0000000040" for step 40.
func checkpointName(prefix string, step int) string {
	return fmt.Sprintf("%s-%010d", prefix, step)
}

// checkpointStep parses the step back out of a checkpoint name; ok is
// false for names outside the series.
func checkpointStep(prefix, name string) (int, bool) {
	rest, found := strings.CutPrefix(name, prefix+"-")
	if !found || len(rest) != 10 {
		return 0, false
	}
	step := 0
	for _, c := range rest {
		if c < '0' || c > '9' {
			return 0, false
		}
		step = step*10 + int(c-'0')
	}
	return step, true
}

// LatestCheckpoint returns the newest checkpoint of the series and the
// step it holds; ok is false when the series is empty.
func LatestCheckpoint(store BlobStore, prefix string) (blob []byte, step int, ok bool, err error) {
	names, err := store.List()
	if err != nil {
		return nil, 0, false, err
	}
	best, bestStep := "", -1
	for _, n := range names {
		if s, isCkpt := checkpointStep(prefix, n); isCkpt && s > bestStep {
			best, bestStep = n, s
		}
	}
	if bestStep < 0 {
		return nil, 0, false, nil
	}
	blob, err = store.Blob(best)
	if err != nil {
		return nil, 0, false, err
	}
	return blob, bestStep, true, nil
}

// pruneCheckpoints deletes the oldest checkpoints of the series beyond the
// retain cap (0 keeps everything).
func pruneCheckpoints(store BlobStore, prefix string, retain int) error {
	if retain <= 0 {
		return nil
	}
	names, err := store.List()
	if err != nil {
		return err
	}
	type ck struct {
		name string
		step int
	}
	var series []ck
	for _, n := range names {
		if s, isCkpt := checkpointStep(prefix, n); isCkpt {
			series = append(series, ck{n, s})
		}
	}
	sort.Slice(series, func(a, b int) bool { return series[a].step < series[b].step })
	for len(series) > retain {
		if err := store.Delete(series[0].name); err != nil {
			return err
		}
		series = series[1:]
	}
	return nil
}
