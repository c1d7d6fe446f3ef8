package fleet

import (
	"container/list"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/serve"
	"repro/internal/tensor"
)

// pickGroup returns the group with the lowest congestion-stretched
// latency score — least-loaded dispatch weighted by the perfmodel-derived
// hardware differential, so the ESB's accelerator replicas absorb traffic
// first and the CM/DAM groups become overflow capacity exactly when the
// fast group's backlog exceeds its speed advantage (the §II-A placement
// logic, applied per request instead of per deployment).
func pickGroup(groups []*group) *group {
	var best *group
	bestScore := math.Inf(1)
	for _, g := range groups {
		if s := g.score(); s < bestScore {
			bestScore, best = s, g
		}
	}
	return best
}

// resultCache is the bounded LRU over idempotent predictions. Keys bind
// the model name, the serving version, and the full input payload, so two
// models or two versions of one model never share an entry.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	entries map[uint64]*list.Element
	lru     *list.List // front = most recent

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry struct {
	key  uint64
	pred serve.Prediction
}

func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		return nil
	}
	return &resultCache{cap: capacity, entries: map[uint64]*list.Element{}, lru: list.New()}
}

// cacheKey hashes (model, version, shape, payload) with FNV-1a. Payload
// bytes are the raw float64 bit patterns, so keys are exact — no epsilon
// aliasing between nearly equal inputs.
func cacheKey(model string, version int, x *tensor.Tensor) uint64 {
	h := fnv.New64a()
	h.Write([]byte(model))
	var b [8]byte
	enc := func(v uint64) {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	enc(uint64(version))
	for _, d := range x.Shape() {
		enc(uint64(d))
	}
	for _, v := range x.Data() {
		enc(math.Float64bits(v))
	}
	return h.Sum64()
}

// get returns a cached prediction (with a private Probs copy — cached
// slices must never alias into caller hands) and whether it hit.
func (c *resultCache) get(key uint64) (serve.Prediction, bool) {
	if c == nil {
		return serve.Prediction{}, false
	}
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return serve.Prediction{}, false
	}
	c.lru.MoveToFront(el)
	cached := el.Value.(*cacheEntry).pred
	c.mu.Unlock()
	c.hits.Add(1)
	probs := make([]float64, len(cached.Probs))
	copy(probs, cached.Probs)
	return serve.Prediction{Probs: probs, Class: cached.Class}, true
}

// put stores a prediction, evicting the least recently used entry past
// capacity. The stored Probs slice is copied so later caller mutation
// cannot poison the cache.
func (c *resultCache) put(key uint64, p serve.Prediction) {
	if c == nil {
		return
	}
	probs := make([]float64, len(p.Probs))
	copy(probs, p.Probs)
	p.Probs = probs
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).pred = p
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, pred: p})
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}
