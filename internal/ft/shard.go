package ft

import (
	"fmt"
	"math/rand"
)

// Elastic re-sharding. After a shrink the surviving ranks must cover the
// same global batch the full world did — otherwise the effective batch
// size (and therefore the gradient noise scale and the reproducibility of
// the loss trajectory) changes under the user's feet. We therefore fix the
// *global* step batch at initialWorld×batchSize and carve each step's
// slice among however many ranks are currently alive.
//
// Sample selection is a pure function of (epochSeed, step): every
// incarnation — and every re-run of the same fault plan — draws the same
// global batch at the same step, which is what makes crash-recovery runs
// bit-comparable to failure-free ones.

// StepBatch returns the index slice of the global batch for `step` owned
// by survivor `pos` of `alive`. n is the dataset size, globalBatch the
// fixed initialWorld×batchSize product. Steps wrap into epochs: each epoch
// reshuffles [0,n) with epochSeed+epoch, exactly like distdl.Shard, and
// holds stepsPerEpoch = n/globalBatch steps (the short tail is dropped to
// keep every step's batch full-size). The global batch splits into equal
// contiguous shares of q = globalBatch/alive samples; the first
// globalBatch%alive survivors take one more.
func StepBatch(n int, epochSeed int64, step, globalBatch, pos, alive int) []int {
	if alive <= 0 || pos < 0 || pos >= alive {
		panic(fmt.Sprintf("ft: survivor pos %d out of [0,%d)", pos, alive))
	}
	if globalBatch <= 0 || globalBatch > n {
		panic(fmt.Sprintf("ft: global batch %d out of (0,%d]", globalBatch, n))
	}
	stepsPerEpoch := n / globalBatch
	epoch := step / stepsPerEpoch
	pos0 := (step % stepsPerEpoch) * globalBatch
	perm := rand.New(rand.NewSource(epochSeed + int64(epoch))).Perm(n)
	batch := perm[pos0 : pos0+globalBatch]
	q, r := globalBatch/alive, globalBatch%alive
	return batch[pos*q+min(pos, r) : (pos+1)*q+min(pos+1, r)]
}

// StepsPerEpoch returns how many full global batches one epoch holds.
func StepsPerEpoch(n, globalBatch int) int {
	if globalBatch <= 0 || globalBatch > n {
		panic(fmt.Sprintf("ft: global batch %d out of (0,%d]", globalBatch, n))
	}
	return n / globalBatch
}
