package mpi

// Communicator is the subset of *Comm that distributed algorithms consume:
// the point-to-point calls the pipeline engine needs, the collectives the
// trainers call, and Split. Every receive names its source rank: there is
// no wildcard receive and no probe, so a message is matched by (source,
// tag) alone, FIFO per pair. Code written against this interface (distdl
// trainers on either axis of a 2D grid, the ft supervisor) can run over a
// plain *Comm or over an interposer that traces calls between the
// algorithm and the wire, as the benchmark's tracing wrapper does. It
// lists only what some caller outside this package reaches through it;
// *Comm has more.
//
// Methods panic with RevokedError once the underlying World has been
// revoked (see World.Revoke), so algorithms blocked in a collective unwind
// instead of hanging when a peer dies.
type Communicator interface {
	Rank() int
	Size() int
	// Split partitions the communicator by color (MPI_Comm_split) and
	// returns this rank's handle on its group, or nil for a negative
	// color. An interposer returns the child wrapped like itself.
	Split(color, key int) Communicator

	Send(dst, tag int, data []float64)
	RecvInto(src, tag int, buf []float64) int

	Barrier()
	Bcast(root int, data []float64) []float64
	Allreduce(data []float64, op ReduceOp, algo Algo) []float64
	// AllreduceInPlace is the zero-copy Allreduce: the result overwrites
	// data on every rank, and the ring and recursive-doubling paths
	// allocate nothing in steady state.
	AllreduceInPlace(data []float64, op ReduceOp, algo Algo)
	AllreduceMeanInPlace(data []float64, algo Algo)
	AllreduceScalar(v float64, op ReduceOp) float64
	ReduceScatterInPlace(data []float64, op ReduceOp, scale float64) (lo, hi int)
	AllgatherInPlace(data []float64)
	ShareBuffer(buf []float64) [][]float64
	Gather(root int, data []float64) [][]float64
}

var _ Communicator = (*Comm)(nil)
