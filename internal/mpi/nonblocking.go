package mpi

// Nonblocking point-to-point operations (MPI_Isend/Irecv/Wait/Test).
// Sends in this runtime are buffered and never block, so Isend completes
// immediately; Irecv runs the matching receive in a helper goroutine and
// exposes a Request handle. These are the primitives communication/
// computation overlap is built from (the overlap the DL scaling model's
// Overlap parameter accounts for, and the machinery behind Iallreduce).
//
// Failure semantics: if the world is revoked while an operation is in
// flight, the helper goroutine's RevokedError is captured and re-raised
// on the *caller's* goroutine by Wait/WaitAll — never on the anonymous
// helper, where it would crash the process instead of unwinding the rank.

// Request is a handle on a pending nonblocking operation.
type Request struct {
	done chan struct{}
	data []float64
	src  int
	err  any
}

// Isend starts a buffered send; the returned request is already complete
// (the payload is copied before Isend returns, so the caller may reuse
// its buffer immediately — stricter than MPI, never looser).
func (c *Comm) Isend(dst, tag int, data []float64) *Request {
	r := &Request{done: make(chan struct{})}
	func() {
		defer r.finish()
		c.Send(dst, tag, data)
	}()
	return r
}

// Irecv starts a nonblocking receive matching (src, tag); src may be
// AnySource.
func (c *Comm) Irecv(src, tag int) *Request {
	r := &Request{done: make(chan struct{})}
	go func() {
		defer r.finish()
		r.data, r.src = c.Recv(src, tag)
	}()
	return r
}

// finish, deferred by the operation, completes the request and records the
// operation's panic, if any, for Wait to re-raise.
func (r *Request) finish() {
	r.err = recover()
	close(r.done)
}

// Wait blocks until the operation completes and returns the received
// payload and source (nil/-0 semantics for sends: payload nil, src 0).
// A failed operation (revoked world) re-panics here with the original
// error, mirroring the blocking call's behaviour.
func (r *Request) Wait() ([]float64, int) {
	<-r.done
	if r.err != nil {
		panic(r.err)
	}
	return r.data, r.src
}

// Test reports whether the operation has completed — successfully or not
// — without blocking. After Test returns true, Wait will not block (it
// may still panic if the operation failed).
func (r *Request) Test() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// WaitAll blocks until every request completes; if any failed, it
// re-panics with the first failure in argument order.
func WaitAll(reqs ...*Request) {
	var firstErr any
	for _, r := range reqs {
		<-r.done
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
	}
	if firstErr != nil {
		panic(firstErr)
	}
}
