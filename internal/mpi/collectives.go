package mpi

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/tensor"
)

// Reserved internal tags (≥ maxUserTag). Collectives issued in the same
// order by all ranks are race-free because mailboxes are FIFO per
// (src, tag) pair.
const (
	tagBarrier = maxUserTag + iota
	tagBcast
	tagReduce
	tagGather
	tagRing // the traced stream of a blocking ring collective (ring.go)
	tagRecDouble
	tagRecAdjust
)

// ReduceOp is an associative, commutative elementwise reduction.
type ReduceOp struct {
	Name string
	// Combine folds src into dst elementwise (dst = dst ⊕ src).
	Combine func(dst, src []float64)
}

// Built-in reduction operations. Each Combine dispatches to the shared
// SIMD vector-op layer (tensor/vec.go): elementwise folds are bitwise
// invariant under vectorization and range splitting, so results are
// identical to the historical scalar loops — including NaN propagation
// (dst keeps its NaN for max/min; the scalar `>`/`<` is false against
// NaN) — on the AVX2 path, the pure-Go path, and any worker count. Large
// combines parallelize through the tensor kernel runtime, so the
// -kernel-workers knob bounds collective combine parallelism too.
var (
	OpSum = ReduceOp{"sum", func(dst, src []float64) {
		tensor.VecAddInto(dst, dst, src)
	}}
	OpMax = ReduceOp{"max", func(dst, src []float64) {
		tensor.VecMaxInto(dst, dst, src)
	}}
	OpMin = ReduceOp{"min", func(dst, src []float64) {
		tensor.VecMinInto(dst, dst, src)
	}}
	OpProd = ReduceOp{"prod", func(dst, src []float64) {
		tensor.VecMulInto(dst, dst, src)
	}}
)

// Algo selects the Allreduce implementation.
type Algo string

// Allreduce algorithm choices. Every caller names one; E9 and the cost
// model compare them.
const (
	AlgoNaive             Algo = "naive" // gather to root 0, reduce, broadcast
	AlgoTree              Algo = "tree"  // binomial-tree reduce + binomial bcast
	AlgoRing              Algo = "ring"  // reduce-scatter + allgather (bandwidth optimal)
	AlgoRecursiveDoubling Algo = "recursive-doubling"
	AlgoGCE               Algo = "gce" // FPGA Global Collective Engine offload
)

// Barrier blocks until every rank has entered it (dissemination barrier,
// ⌈log₂ p⌉ rounds).
func (c *Comm) Barrier() {
	p := c.Size()
	defer c.collective(KindBarrier, 0, "")()
	for dist := 1; dist < p; dist *= 2 {
		dst := (c.rank + dist) % p
		src := (c.rank - dist + p) % p
		c.Send(dst, tagBarrier, nil)
		c.Recv(src, tagBarrier)
	}
}

// Bcast distributes root's buffer to all ranks via a binomial tree and
// returns each rank's copy (root returns data unchanged; every other rank
// ignores its argument and owns the buffer it gets back).
func (c *Comm) Bcast(root int, data []float64) []float64 {
	defer c.collective(KindBcast, len(data), "")()
	return c.bcastTree(root, data, false)
}

// BcastInto is Bcast received in place: root's data lands in every other
// rank's data (lengths must match across the group) and the wire buffers
// return to the pool, so the steady state allocates nothing.
func (c *Comm) BcastInto(root int, data []float64) {
	defer c.collective(KindBcast, len(data), "")()
	c.bcastTree(root, data, true)
}

// bcastTree is the binomial-tree schedule behind both broadcast forms; into
// selects RecvInto(buf) over Recv on the receiving side.
func (c *Comm) bcastTree(root int, buf []float64, into bool) []float64 {
	p := c.Size()
	// Work in a rotated rank space where root is 0.
	vr := (c.rank - root + p) % p
	if vr != 0 {
		// Receive from parent: the rank with vr's highest set bit cleared,
		// mirroring the send loop below (vr sends to vr+dist for dist > vr).
		parent := (vr - 1<<(bits.Len(uint(vr))-1) + root) % p
		if into {
			c.RecvInto(parent, tagBcast, buf)
		} else {
			buf = c.Recv(parent, tagBcast)
		}
	}
	// Send to children: vr + 2^k for k above vr's highest set bit.
	for dist := 1 << bits.Len(uint(vr)); vr+dist < p; dist *= 2 {
		child := (vr + dist + root) % p
		c.Send(child, tagBcast, buf)
	}
	return buf
}

// fold receives one message from src and combines it into dst straight out
// of the wire buffer, which then goes back to the pool: the receive step of
// every message-based reduction schedule below.
func (c *Comm) fold(src, tag int, dst []float64, combine func(dst, src []float64)) {
	got := c.Recv(src, tag)
	combine(dst[:len(got)], got)
	c.world.wire.put(got)
}

// copyInto is the combine that makes a ring pass pure data movement. It
// copies in pieces under 1 MiB: from that size on the runtime's memmove
// uses non-temporal stores, which push the chunk the next ring step reads
// out of the cache.
func copyInto(dst, src []float64) {
	for len(dst) > 0 {
		n := copy(dst[:min(len(dst), 1<<16)], src)
		dst, src = dst[n:], src[n:]
	}
}

// reduceInPlace is the binomial-tree reduction combining into acc: root's
// acc ends as the result, every other rank's as the partial sum it sent up.
func (c *Comm) reduceInPlace(root int, acc []float64, op ReduceOp) {
	p := c.Size()
	defer c.collective(KindReduce, len(acc), op.Name)()
	vr := (c.rank - root + p) % p
	for dist := 1; dist < p; dist *= 2 {
		if vr&dist != 0 {
			c.Send((vr-dist+root)%p, tagReduce, acc)
			return
		}
		if vr+dist < p {
			c.fold((vr+dist+root)%p, tagReduce, acc, op.Combine)
		}
	}
}

// Allreduce combines data across all ranks with op so that every rank
// obtains the same result, using the requested algorithm. The caller owns
// the returned vector; data is left untouched.
func (c *Comm) Allreduce(data []float64, op ReduceOp, algo Algo) []float64 {
	out := c.world.wire.get(len(data))
	copy(out, data)
	c.allreduce(out, op, algo, 0)
	return out
}

// AllreduceInPlace combines data across all ranks with op, overwriting
// data with the result on every rank. Every algorithm reduces natively in
// place — no result vector is allocated, and the wire buffers a call
// borrows all return to the pool — so this is the path the pipeline
// gradient drain rides, and the one Allreduce wraps.
func (c *Comm) AllreduceInPlace(data []float64, op ReduceOp, algo Algo) {
	c.allreduce(data, op, algo, 0)
}

// allreduce is the one dispatch behind every blocking allreduce form; its
// span carries the algorithm. A nonzero scale multiplies the result (the
// mean forms): the ring folds it into its reduce-scatter, every other
// algorithm sweeps it after.
func (c *Comm) allreduce(data []float64, op ReduceOp, algo Algo, scale float64) {
	defer c.collective(KindAllreduce, len(data), string(algo))()
	if c.Size() > 1 {
		switch algo {
		case AlgoNaive:
			c.allreduceNaive(data, op)
		case AlgoTree:
			c.reduceInPlace(0, data, op)
			c.BcastInto(0, data)
		case AlgoRing:
			c.ring(data, op.Combine, c.rank, 2, scale)
			return
		case AlgoRecursiveDoubling:
			c.allreduceRecDoubling(data, op)
		case AlgoGCE:
			c.world.gce.allreduce(&c.g.gce, c.Size(), data, op)
		default:
			panic(fmt.Sprintf("mpi: unknown allreduce algorithm %q", algo))
		}
	}
	if scale != 0 {
		tensor.VecScaleInto(data, data, scale)
	}
}

// allreduceNaive gathers every vector at rank 0 sequentially, reduces, and
// broadcasts with individual sends: the O(p) baseline the GCE and ring
// algorithms are measured against.
func (c *Comm) allreduceNaive(data []float64, op ReduceOp) {
	p := c.Size()
	if c.rank != 0 {
		c.Send(0, tagReduce, data)
		c.RecvInto(0, tagBcast, data)
		return
	}
	for src := 1; src < p; src++ {
		c.fold(src, tagReduce, data, op.Combine)
	}
	for dst := 1; dst < p; dst++ {
		c.Send(dst, tagBcast, data)
	}
}

// chunkBounds splits n elements into p nearly equal chunks and returns the
// [lo,hi) bounds of chunk i.
func chunkBounds(n, p, i int) (int, int) {
	return i * n / p, (i + 1) * n / p
}

// allreduceRecDoubling implements the latency-optimal recursive-doubling
// algorithm in place, with the standard pre/post adjustment for
// non-power-of-two rank counts: the p-p2 extra ranks fold their vector
// into a partner first and receive the final result afterwards.
func (c *Comm) allreduceRecDoubling(data []float64, op ReduceOp) {
	p, r := c.Size(), c.rank
	p2 := 1 << (bits.Len(uint(p)) - 1) // largest power of two <= p
	if r >= p2 {
		c.Send(r-p2, tagRecAdjust, data)
		c.RecvInto(r-p2, tagRecAdjust, data)
		return
	}
	if r < p-p2 {
		c.fold(r+p2, tagRecAdjust, data, op.Combine)
	}
	// Recursive doubling among the power-of-two group.
	for dist := 1; dist < p2; dist *= 2 {
		c.Send(r^dist, tagRecDouble, data)
		c.fold(r^dist, tagRecDouble, data, op.Combine)
	}
	if r < p-p2 {
		c.Send(r+p2, tagRecAdjust, data)
	}
}

// ReduceScatterInPlace runs the ring allreduce's first pass over data and
// returns the span it leaves reduced here (OwnedChunk), times a nonzero
// scale, with that allreduce's bits; the rest of data is scratch.
func (c *Comm) ReduceScatterInPlace(data []float64, op ReduceOp, scale float64) (lo, hi int) {
	defer c.collective(KindReduceScatter, len(data), op.Name)()
	if c.Size() == 1 && scale != 0 {
		tensor.VecScaleInto(data, data, scale)
	}
	c.ring(data, op.Combine, c.rank, 1, scale)
	return OwnedChunk(len(data), c.Size(), c.rank)
}

// AllgatherInPlace copies every rank's OwnedChunk of data to all ranks: the
// ring allreduce's second pass, in bits and in messages.
func (c *Comm) AllgatherInPlace(data []float64) {
	defer c.collective(KindAllgather, len(data), "")()
	c.ring(data, copyInto, c.rank+1, 1, 0)
}

// OwnedChunk is the span of n elements ReduceScatterInPlace leaves on rank r of p.
func OwnedChunk(n, p, r int) (lo, hi int) { return chunkBounds(n, p, (r+1)%p) }

// Gather collects every rank's buffer at root in rank order. Non-root
// ranks return nil. Buffers may have different lengths.
func (c *Comm) Gather(root int, data []float64) [][]float64 {
	defer c.collective(KindGather, len(data), "")()
	if c.rank != root {
		c.Send(root, tagGather, data)
		return nil
	}
	out := make([][]float64, c.Size())
	out[root] = append([]float64(nil), data...)
	for i := range out {
		if i != root {
			out[i] = c.Recv(i, tagGather)
		}
	}
	return out
}

// AllreduceScalar reduces a single value across ranks by recursive
// doubling, the latency-optimal schedule for one element; a convenience
// for metric aggregation (loss, accuracy counts).
func (c *Comm) AllreduceScalar(v float64, op ReduceOp) float64 {
	buf := c.scalar[:]
	buf[0] = v
	c.allreduce(buf, op, AlgoRecursiveDoubling, 0)
	return buf[0]
}

// AllreduceMeanInPlace averages data across ranks in place: a sum allreduce
// scaled by 1/p. The ring scales each fully reduced chunk once, at its
// owner, before the allgather pass; the other algorithms sweep the result.
// Both multiply every sum by the same factor, so the bits are the same.
func (c *Comm) AllreduceMeanInPlace(data []float64, algo Algo) {
	c.allreduce(data, OpSum, algo, 1/float64(c.Size()))
}

// HierarchicalCostModel returns the alpha-beta cost of the two-level
// allreduce: an intra-group ring over the fast (NVLink-class) link, a
// ring among the p/g group leaders over the slow fabric, and an
// intra-group broadcast. This is the communication shape of Horovod with
// NCCL inside multi-GPU nodes (§III-A).
func HierarchicalCostModel(p, groupSize, n int, alphaFast, betaFast, alphaSlow, betaSlow float64) float64 {
	if p <= 1 {
		return 0
	}
	g := min(max(groupSize, 1), p)
	nodes := (p + g - 1) / g
	nf := float64(n)
	intra, inter, bcast := 0.0, 0.0, 0.0
	if g > 1 {
		gf := float64(g)
		intra = float64(2*(gf-1)*alphaFast) + float64(2*(gf-1)/gf*nf*betaFast)
		bcast = float64((gf-1)*alphaFast) + float64(nf*betaFast)
	}
	if nodes > 1 {
		nd := float64(nodes)
		inter = float64(2*(nd-1)*alphaSlow) + float64(2*(nd-1)/nd*nf*betaSlow)
	}
	return intra + inter + bcast
}

// CollectiveCostModel returns the analytic alpha-beta cost (seconds) of an
// allreduce of n elements over p ranks for each algorithm, given per-hop
// latency alpha (s), per-element transfer time beta (s/elem), and the GCE
// hardware reduction factor (how much faster the in-fabric FPGA performs
// the combine+fan-out than a software root). These closed forms are the
// standard LogP-style costs used to project to paper-scale rank counts.
func CollectiveCostModel(algo Algo, p, n int, alpha, beta, gceFactor float64) float64 {
	if p <= 1 {
		return 0
	}
	pf := float64(p)
	nf := float64(n)
	lg := math.Ceil(math.Log2(pf))
	switch algo {
	case AlgoNaive:
		// Root receives p-1 vectors sequentially, then sends p-1 copies.
		return 2 * (pf - 1) * (alpha + float64(nf*beta))
	case AlgoTree:
		return 2 * lg * (alpha + float64(nf*beta))
	case AlgoRing:
		return float64(2*(pf-1)*alpha) + float64(2*(pf-1)/pf*nf*beta)
	case AlgoRecursiveDoubling:
		return lg * (alpha + float64(nf*beta))
	case AlgoGCE:
		// One injection + one result delivery, with the reduction pipelined
		// in fabric hardware.
		return (float64(2*alpha) + float64(2*nf*beta)) / gceFactor
	default:
		panic(fmt.Sprintf("mpi: no cost model for algorithm %q", algo))
	}
}
