package mpi

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// Iallreduce correctness: for every world size, payload size, and op the
// nonblocking ring must return exactly what the blocking collectives
// compute — and for OpSum, *bitwise* what the blocking ring computes,
// since distdl's overlapped/blocking parameter-identity guarantee rests
// on the two sharing chunk bounds and combine order. Run under -race in
// CI: the op goroutines, segment pipelining, and Request handles are all
// exercised concurrently here.

func fillRandom(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64() * 10
	}
	return v
}

func TestIallreduceMatchesBlockingRing(t *testing.T) {
	ops := []ReduceOp{OpSum, OpMax, OpMin, OpProd}
	sizes := []int{0, 1, 2, 3, 5, 17, 1024, 4099}
	for _, p := range []int{1, 2, 3, 4, 8} {
		for _, n := range sizes {
			for _, op := range ops {
				t.Run(fmt.Sprintf("p%d/n%d/%s", p, n, op.Name), func(t *testing.T) {
					inputs := make([][]float64, p)
					rng := rand.New(rand.NewSource(int64(p*100000 + n)))
					for r := range inputs {
						inputs[r] = fillRandom(rng, n)
					}
					want := make([][]float64, p)
					got := make([][]float64, p)
					w := NewWorld(p)
					err := w.Run(func(c *Comm) error {
						want[c.Rank()] = c.Allreduce(inputs[c.Rank()], op, AlgoRing)
						got[c.Rank()] = c.Iallreduce(inputs[c.Rank()], op).Wait()
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					for r := 0; r < p; r++ {
						if len(got[r]) != len(want[r]) {
							t.Fatalf("rank %d: len %d, want %d", r, len(got[r]), len(want[r]))
						}
						for i := range want[r] {
							if got[r][i] != want[r][i] {
								t.Fatalf("rank %d elem %d: Iallreduce %v != blocking ring %v (bitwise)",
									r, i, got[r][i], want[r][i])
							}
						}
					}
				})
			}
		}
	}
}

func TestIallreduceDoesNotAliasInput(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		in := []float64{1, 2, 3}
		req := c.Iallreduce(in, OpSum)
		in[0] = -99 // caller may clobber immediately: payload was copied
		out := req.Wait()
		if out[0] != 2 || out[1] != 4 || out[2] != 6 {
			return fmt.Errorf("rank %d: got %v, want [2 4 6]", c.Rank(), out)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIallreduceConcurrentOperations launches many operations before
// waiting on any — the overlapped gradient-bucket pattern — and checks
// each resolves to its own result with no cross-talk between tag pairs.
func TestIallreduceConcurrentOperations(t *testing.T) {
	const p, ops, n = 4, 12, 257
	w := NewWorld(p)
	err := w.Run(func(c *Comm) error {
		reqs := make([]*AllreduceRequest, ops)
		for k := 0; k < ops; k++ {
			in := make([]float64, n)
			for i := range in {
				in[i] = float64(k*1000 + c.Rank())
			}
			reqs[k] = c.Iallreduce(in, OpSum)
		}
		// Drain in reverse launch order to stress out-of-order completion.
		for k := ops - 1; k >= 0; k-- {
			out := reqs[k].Wait()
			want := float64(k*1000*p + (p-1)*p/2)
			for i, v := range out {
				if v != want {
					return fmt.Errorf("rank %d op %d elem %d: got %v, want %v", c.Rank(), k, i, v, want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIallreduceTestTransitionsToTrue(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		req := c.Iallreduce([]float64{float64(c.Rank())}, OpSum)
		deadline := time.Now().Add(5 * time.Second)
		for !req.Test() {
			if time.Now().After(deadline) {
				return fmt.Errorf("rank %d: Test never became true", c.Rank())
			}
			time.Sleep(50 * time.Microsecond)
		}
		// Test true => Wait must not block and must agree.
		if out := req.Wait(); out[0] != 1 {
			return fmt.Errorf("rank %d: got %v, want [1]", c.Rank(), out)
		}
		if !req.CompletedAt().Before(time.Now().Add(time.Second)) {
			return fmt.Errorf("rank %d: implausible completion time", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIallreduceRevokedWaitPanics: revoking the world mid-collective must
// surface RevokedError on the *waiter's* goroutine, not crash the process
// from the background op goroutine.
func TestIallreduceRevokedWaitPanics(t *testing.T) {
	w := NewWorld(2)
	done := make(chan any, 2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			// Rank 1 never participates: rank 0's ring op blocks on its
			// neighbor until the revoke below unwinds it.
			w.Revoke("test revoke")
			done <- nil
			return nil
		}
		func() {
			defer func() { done <- recover() }()
			c.Iallreduce(make([]float64, 1024), OpSum).Wait()
		}()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sawRevoked := false
	for i := 0; i < 2; i++ {
		if r := <-done; r != nil {
			if _, ok := AsRevoked(r); !ok {
				t.Fatalf("recovered %v, want RevokedError", r)
			}
			sawRevoked = true
		}
	}
	if !sawRevoked {
		t.Fatal("rank 0's Wait did not panic with RevokedError")
	}
}

// TestRequestWaitAllInterleavings covers WaitAll over a mix of already-
// complete sends and pending receives, plus the Test-then-Wait path.
func TestRequestWaitAllInterleavings(t *testing.T) {
	w := NewWorld(3)
	err := w.Run(func(c *Comm) error {
		switch c.Rank() {
		case 0:
			var reqs []*Request
			for k := 0; k < 4; k++ {
				reqs = append(reqs, c.Isend(1, k, []float64{float64(k)}))
			}
			reqs = append(reqs, c.Irecv(2, 9))
			WaitAll(reqs...)
			data, src := reqs[4].Wait() // Wait after WaitAll is idempotent
			if src != 2 || data[0] != 42 {
				return fmt.Errorf("rank 0: got (%v, %d)", data, src)
			}
		case 1:
			// Receive out of send order: per-tag FIFO still matches each.
			for k := 3; k >= 0; k-- {
				got, _ := c.Recv(0, k)
				if got[0] != float64(k) {
					return fmt.Errorf("rank 1 tag %d: got %v", k, got)
				}
			}
		case 2:
			time.Sleep(time.Millisecond) // force rank 0's Irecv to actually pend
			c.Send(0, 9, []float64{42})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllreduceScalarRespectsDefaultAlgo pins the satellite fix: scalar
// reductions route through the world default instead of hardcoding
// recursive doubling. The resolved algorithm is observable in the
// per-collective span attribute.
func TestAllreduceScalarRespectsDefaultAlgo(t *testing.T) {
	w := NewWorld(2)
	w.SetDefaultAlgo(AlgoNaive)
	if got := w.DefaultAlgo(); got != AlgoNaive {
		t.Fatalf("DefaultAlgo = %q, want %q", got, AlgoNaive)
	}
	err := w.Run(func(c *Comm) error {
		if got := c.AllreduceScalar(1, OpSum); got != 2 {
			return fmt.Errorf("AllreduceScalar = %v, want 2", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// With the naive algorithm there is no recursive-doubling traffic at
	// all; with the old hardcoded choice there would be.
	if n := w.TotalStats().ByKind[KindAllreduce]; n != 2 {
		t.Fatalf("allreduce count = %d, want 2", n)
	}
	w2 := NewWorld(2)
	if got := w2.DefaultAlgo(); got != AlgoAuto {
		t.Fatalf("unset DefaultAlgo = %q, want %q", got, AlgoAuto)
	}
}
