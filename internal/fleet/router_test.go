package fleet

import (
	"context"
	"testing"
	"time"

	"repro/internal/serve"
)

// Len returns the current entry count.
func (c *resultCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	k1 := cacheKey("m", 1, testSample(1))
	k2 := cacheKey("m", 1, testSample(2))
	k3 := cacheKey("m", 1, testSample(3))
	if k1 == k2 || k2 == k3 || k1 == k3 {
		t.Fatal("distinct inputs collided")
	}
	c.put(k1, serve.Prediction{Probs: []float64{1, 0}, Class: 0})
	c.put(k2, serve.Prediction{Probs: []float64{0, 1}, Class: 1})
	if _, ok := c.get(k1); !ok {
		t.Fatal("k1 missing")
	}
	// k2 is now LRU; inserting k3 evicts it.
	c.put(k3, serve.Prediction{Class: 0})
	if _, ok := c.get(k2); ok {
		t.Fatal("k2 survived eviction")
	}
	if _, ok := c.get(k1); !ok {
		t.Fatal("k1 evicted out of LRU order")
	}
	if c.Len() != 2 {
		t.Fatalf("len %d, want 2", c.Len())
	}
	if c.hits.Load() != 2 || c.misses.Load() != 1 {
		t.Fatalf("hits %d misses %d, want 2/1", c.hits.Load(), c.misses.Load())
	}
}

func TestResultCacheCopiesProbs(t *testing.T) {
	c := newResultCache(4)
	k := cacheKey("m", 1, testSample(1))
	src := serve.Prediction{Probs: []float64{0.25, 0.75}, Class: 1}
	c.put(k, src)
	src.Probs[0] = 99 // caller mutates after put — cache must not see it
	got, ok := c.get(k)
	if !ok || got.Probs[0] != 0.25 {
		t.Fatalf("cache aliased caller slice: %+v", got)
	}
	got.Probs[1] = -1 // mutate the returned copy — cache must not see it
	again, _ := c.get(k)
	if again.Probs[1] != 0.75 {
		t.Fatalf("cache returned aliased slice: %+v", again)
	}
}

func TestCacheKeyBindsModelAndVersion(t *testing.T) {
	x := testSample(1, 2, 3)
	if cacheKey("a", 1, x) == cacheKey("b", 1, x) {
		t.Fatal("different models share a key")
	}
	// A promote bumps the version, which must invalidate old entries.
	if cacheKey("a", 1, x) == cacheKey("a", 2, x) {
		t.Fatal("different versions share a key")
	}
	// Shape matters even when the payload bytes agree.
	flat := testSample(1, 2, 3, 4)
	square := testSample(1, 2, 3, 4)
	square2 := square.Reshape(2, 2)
	if cacheKey("a", 1, flat) == cacheKey("a", 1, square2) {
		t.Fatal("different shapes share a key")
	}
}

func TestPredictCachedHitsSkipReplicas(t *testing.T) {
	f, _ := newTestFleet(t, Config{CacheSize: 32})
	x := testSample(7, 7)
	p1, err := f.PredictCached(context.Background(), "m", x)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p, err := f.PredictCached(context.Background(), "m", x)
		if err != nil || p.Class != p1.Class {
			t.Fatalf("cached predict: %+v, %v", p, err)
		}
	}
	st := f.Snapshot()
	if st.CacheHits != 5 || st.CacheMiss != 1 {
		t.Fatalf("cache hits %d misses %d, want 5/1", st.CacheHits, st.CacheMiss)
	}
	// Backends saw exactly one request.
	var served int64
	for _, g := range st.Groups["m"] {
		served += g.Served
	}
	if served != 1 {
		t.Fatalf("replicas served %d requests, want 1", served)
	}
}

// TestRouterPrefersFastGroup checks the congestion-stretched latency
// scoring: with both groups idle, the lower LatencyScore (the "ESB"
// accelerator module) must win every dispatch.
func TestRouterPrefersFastGroup(t *testing.T) {
	f, _ := newTestFleet(t, Config{},
		GroupSpec{Name: "cm", Kind: "CM", Replicas: 1, LatencyScore: 10e-3},
		GroupSpec{Name: "esb", Kind: "ESB", Replicas: 1, LatencyScore: 1e-3},
	)
	for i := 0; i < 10; i++ {
		if _, err := f.Predict(context.Background(), "m", testSample(float64(i))); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond) // let the batch drain so both stay idle
	}
	st := f.Snapshot()
	for _, g := range st.Groups["m"] {
		switch g.Name {
		case "esb":
			if g.Served != 10 {
				t.Fatalf("esb served %d, want 10", g.Served)
			}
		case "cm":
			if g.Served != 0 {
				t.Fatalf("cm served %d, want 0 while esb idle", g.Served)
			}
		}
	}
}

// TestRouterSpillsUnderBacklog floods the fast group and checks the slow
// group picks up overflow — the score must stretch with congestion.
func TestRouterSpillsUnderBacklog(t *testing.T) {
	// Every replica takes 1 ms per sample, so the fast group's queue fills.
	slow := func(model string, blob []byte) (serve.Backend, error) {
		b, err := classFactory(model, blob)
		return &serve.ModeledBackend{Inner: b, PerSample: time.Millisecond}, err
	}
	f, _ := newTestFleet(t, Config{BackendFactory: slow,
		Serve: serve.Config{MaxBatch: 1, QueueCap: 4, BatchWindow: 100 * time.Microsecond}},
		GroupSpec{Name: "slow", Kind: "CM", Replicas: 1, LatencyScore: 2e-3},
		GroupSpec{Name: "fast", Kind: "ESB", Replicas: 1, LatencyScore: 1e-3},
	)
	done := make(chan struct{}, 64)
	for i := 0; i < 64; i++ {
		go func(i int) {
			_, _ = f.Predict(context.Background(), "m", testSample(float64(i)))
			done <- struct{}{}
		}(i)
	}
	for i := 0; i < 64; i++ {
		<-done
	}
	st := f.Snapshot()
	var slowServed int64
	for _, g := range st.Groups["m"] {
		if g.Name == "slow" {
			slowServed = g.Served
		}
	}
	if slowServed == 0 {
		t.Fatalf("slow group served nothing under backlog: %+v", st.Groups["m"])
	}
}
