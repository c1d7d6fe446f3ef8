package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestDDPUnevenShardsTakeEqualSteps trains on row counts that do not
// split evenly over the shards. Every step is a collective, so a shard
// that takes one batch more than its peers waits forever: the watchdog
// turns that hang into a failure.
func TestDDPUnevenShardsTakeEqualSteps(t *testing.T) {
	cases := []struct {
		name                     string
		rows, workers, stages    int
		micro, wantStepsPerEpoch int
	}{
		// 67 rows over 4 ranks: shards of 16/17/17/17 make 4 and 5 batches.
		{"ddp 16/17/17/17", 67, 4, 0, 0, 4},
		// 33 rows over 2 replica groups: 16/17; one micro-batch per step
		// runs even a one-row tail batch.
		{"pipeline 16/17 micro 1", 33, 4, 2, 1, 4},
		// 27 rows over 2 replica groups: 13/14 leave tails of 1 and 2 rows,
		// and only the first is too small for 2 micro-batches.
		{"pipeline 13/14 micro 2", 27, 4, 2, 2, 3},
	}
	for _, tc := range cases {
		xs := tensor.Randn(rand.New(rand.NewSource(1)), 1, tc.rows, 3)
		ys := tensor.Randn(rand.New(rand.NewSource(2)), 1, tc.rows, 2)
		split := data.Split{Train: rand.New(rand.NewSource(3)).Perm(tc.rows)}
		cfg := DDPConfig{Workers: tc.workers, Epochs: 2, Batch: 4, BaseLR: 0.01, Seed: 4,
			PipelineStages: tc.stages, MicroBatches: tc.micro}
		build := func() *nn.Sequential { return nn.MLP(rand.New(rand.NewSource(5)), 3, 8, 8, 2) }
		done := make(chan DDPResult, 1)
		go func() {
			done <- runDDP(cfg, build, nn.MSE{}, xs, ys, split,
				func(*nn.Sequential, []int) float64 { return 0 })
		}()
		select {
		case res := <-done:
			if want := cfg.Epochs * tc.wantStepsPerEpoch; res.Steps != want {
				t.Errorf("%s: %d steps, want %d", tc.name, res.Steps, want)
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("%s: ranks deadlocked on unequal step counts", tc.name)
		}
	}
}
