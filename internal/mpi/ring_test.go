package mpi

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/causal"
	"repro/internal/tensor"
)

// Tests for the in-place ring (ring.go): bits and traffic counters equal to
// the message ring it replaced, the in-place reduce-scatter and allgather
// as the allreduce's two passes, the mean folded into the reduce-scatter,
// no wire-pool use, traced group rings that still merge causally, length
// checks, buffer sharing, and revocation of every kind of stuck member
// without leaks.

// messageRing is the ring schedule over Send/Recv that the in-place ring
// replaced: in pass k, step s sends chunk start+k-s to the right neighbour
// and folds the left neighbour's chunk start+k-s-1 out of the received
// message (by copy in the second pass). It is the reference for the
// in-place ring's bits and counters.
func messageRing(c *Comm, data []float64, combine func(dst, src []float64), start, passes int) {
	p, n := c.Size(), len(data)
	for g := 0; g < passes*(p-1); g++ {
		k, s := g/(p-1), g%(p-1)
		if k > 0 {
			combine = copyInto
		}
		lo, hi := chunkBounds(n, p, (start+k-s+2*p)%p)
		c.Send((c.rank+1)%p, 7, data[lo:hi])
		got := c.Recv((c.rank+p-1)%p, 7)
		lo, hi = chunkBounds(n, p, (start+k-s-1+2*p)%p)
		combine(data[lo:hi], got)
	}
}

// sentDelta runs fn and returns how much it moved this rank's own traffic
// counters (only the rank's own sends touch them).
func sentDelta(c *Comm, fn func()) [2]int64 {
	s0 := c.world.RankStats(c.wrank)
	fn()
	s1 := c.world.RankStats(c.wrank)
	return [2]int64{s1.MessagesSent - s0.MessagesSent, s1.ElemsSent - s0.ElemsSent}
}

func TestRingMatchesMessageRing(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5} {
		w := NewWorld(p)
		err := runFailFast(w, func(c *Comm) error {
			for _, g := range []namedComm{{"world", c}, {"reversed", c.split(0, -c.Rank())}} {
				for ni, n := range []int{0, 1, p - 1, p + 1, 1023, 4099} {
					for oi, op := range propertyOps {
						where := fmt.Sprintf("%s p=%d n=%d op=%s", g.name, p, n, op.Name)
						x := propertyFloats(c.wrank, n, ni*16+oi)

						want := append([]float64(nil), x...)
						wantSent := sentDelta(g.Comm, func() { messageRing(g.Comm, want, op.Combine, g.rank, 2) })
						got := append([]float64(nil), x...)
						gotSent := sentDelta(g.Comm, func() { g.AllreduceInPlace(got, op, AlgoRing) })
						if err := sameBits(got, want); err != nil {
							return fmt.Errorf("%s allreduce: %v", where, err)
						}
						if gotSent != wantSent {
							return fmt.Errorf("%s allreduce: sent %v, message ring %v", where, gotSent, wantSent)
						}

						// The in-place reduce-scatter and allgather are the
						// allreduce's two passes: together, its bits and its
						// traffic.
						var olo, ohi int
						split := append([]float64(nil), x...)
						rsSent := sentDelta(g.Comm, func() { olo, ohi = g.ReduceScatterInPlace(split, op, 0) })
						if wlo, whi := OwnedChunk(n, g.Size(), g.rank); olo != wlo || ohi != whi {
							return fmt.Errorf("%s reduce-scatter in place: owns [%d, %d), want [%d, %d)", where, olo, ohi, wlo, whi)
						}
						if err := sameBits(split[olo:ohi], want[olo:ohi]); err != nil {
							return fmt.Errorf("%s reduce-scatter in place: %v", where, err)
						}
						agSent := sentDelta(g.Comm, func() { g.AllgatherInPlace(split) })
						if err := sameBits(split, want); err != nil {
							return fmt.Errorf("%s allgather in place: %v", where, err)
						}
						if both := [2]int64{rsSent[0] + agSent[0], rsSent[1] + agSent[1]}; both != wantSent {
							return fmt.Errorf("%s in-place passes: sent %v, allreduce %v", where, both, wantSent)
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// The ring's mean scales each owner's reduced chunk before the allgather;
// the bits must equal a sum allreduce followed by one sweep.
func TestRingMeanMatchesSumThenScale(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5} {
		w := NewWorld(p)
		err := runFailFast(w, func(c *Comm) error {
			g := c.split(0, c.Rank())
			for _, n := range []int{0, 1, p + 1, 1023, 4099} {
				x := propertyFloats(c.wrank, n, 5)
				want := append([]float64(nil), x...)
				c.AllreduceInPlace(want, OpSum, AlgoRing)
				tensor.VecScaleInto(want, want, 1/float64(p))
				got := append([]float64(nil), x...)
				c.AllreduceMeanInPlace(got, AlgoRing)
				if err := sameBits(got, want); err != nil {
					return fmt.Errorf("p=%d n=%d: mean-in-place: %v", p, n, err)
				}
				got = append(got[:0], x...)
				g.AllreduceMeanInPlace(got, AlgoRing)
				if err := sameBits(got, want); err != nil {
					return fmt.Errorf("p=%d n=%d: group mean-in-place: %v", p, n, err)
				}
				got = append(got[:0], x...)
				g.ReduceScatterInPlace(got, OpSum, 1/float64(p))
				g.AllgatherInPlace(got)
				if err := sameBits(got, want); err != nil {
					return fmt.Errorf("p=%d n=%d: group reduce-scatter/allgather mean: %v", p, n, err)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// iallreduce is the nonblocking allreduce a caller builds now that mpi has
// none: the in-place ring run over a copy of data on a goroutine of its
// own, which is what the deleted Iallreduce was. wait returns the result,
// or re-panics on the caller's goroutine with what the ring panicked with.
func iallreduce(c *Comm, data []float64, op ReduceOp) (wait func() []float64) {
	buf := append([]float64(nil), data...)
	done := make(chan struct{})
	var failed any
	go func() {
		defer close(done)
		defer func() { failed = recover() }()
		c.AllreduceInPlace(buf, op, AlgoRing)
	}()
	return func() []float64 {
		<-done
		if failed != nil {
			panic(failed)
		}
		return buf
	}
}

// TestIallreduceMatchesBlockingRing keeps the name it had when it pinned
// Iallreduce to the blocking ring. For every world size, payload size and
// op, the in-place ring driven from a goroutine other than the rank's
// (iallreduce above) must return bitwise what the allocating blocking ring
// returns, and leave its input untouched.
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
						inputs[r] = make([]float64, n)
						for i := range inputs[r] {
							inputs[r][i] = rng.NormFloat64() * 10
						}
					}
					w := NewWorld(p)
					err := runFailFast(w, func(c *Comm) error {
						in := inputs[c.Rank()]
						orig := append([]float64(nil), in...)
						want := c.Allreduce(in, op, AlgoRing)
						got := iallreduce(c, in, op)()
						if err := sameBits(got, want); err != nil {
							return fmt.Errorf("rank %d: goroutine in-place ring vs blocking ring: %v", c.Rank(), err)
						}
						if err := sameBits(in, orig); err != nil {
							return fmt.Errorf("rank %d: input changed: %v", c.Rank(), err)
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// A ring allreduce draws nothing from the wire pool: no gets at all, not
// merely as many puts as gets.
func TestRingTakesNoWireBuffers(t *testing.T) {
	w := NewWorld(4)
	err := runFailFast(w, func(c *Comm) error {
		x := propertyFloats(c.wrank, 4099, 6)
		g := c.split(0, -c.Rank())
		c.Barrier()
		g0, _ := w.wire.stats()
		c.Barrier()
		c.AllreduceInPlace(x, OpSum, AlgoRing)
		c.AllreduceMeanInPlace(x, AlgoRing)
		g.AllreduceInPlace(x, OpMax, AlgoRing)
		c.Barrier()
		if g1, _ := w.wire.stats(); g1 != g0 {
			return fmt.Errorf("ring allreduces took %d wire buffers", g1-g0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// On a split group a traced ring shows up as one mpi.send/mpi.recv pair
// per step, and the causal merge matches every receive to its send.
func TestRingGroupTraceMatches(t *testing.T) {
	for _, p := range []int{2, 3, 4, 5} {
		tr := telemetry.NewTracer(0)
		w := NewWorld(p)
		w.SetTracer(tr)
		err := runFailFast(w, func(c *Comm) error {
			g := c.split(0, -c.Rank())
			x := propertyFloats(c.wrank, 1023, 7)
			g.AllreduceInPlace(x, OpSum, AlgoRing)
			g.AllreduceMeanInPlace(x, AlgoRing)
			g.ReduceScatterInPlace(x, OpSum, 0.5)
			g.AllgatherInPlace(x)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		sends, recvs := map[int]int{}, map[int]int{}
		for _, s := range tr.Spans() {
			switch s.Kind {
			case telemetry.SpanSend:
				sends[s.Track]++
			case telemetry.SpanRecv:
				recvs[s.Track]++
			}
		}
		want := 6 * (p - 1) // two allreduces of 2(p-1) steps, two passes of p-1
		for r := 0; r < p; r++ {
			if sends[r] != want || recvs[r] != want {
				t.Fatalf("p=%d rank %d: %d sends, %d recvs, want %d of each", p, r, sends[r], recvs[r], want)
			}
		}
		if d := causal.Build(tr.Spans()); d.UnmatchedRecvs != 0 {
			t.Fatalf("p=%d: %d ring receives without a matching send", p, d.UnmatchedRecvs)
		}
	}
}

// A rank whose vector length differs from its left neighbour's panics
// naming both, instead of folding a short chunk and waiting forever.
func TestRingLengthMismatchPanics(t *testing.T) {
	for _, kind := range []string{"allreduce", "reduce-scatter-in-place"} {
		for _, p := range []int{2, 3, 4, 5} {
			w := NewWorld(p)
			msgs := make([]string, p)
			var mismatches atomic.Int32
			done := make(chan error, 1)
			go func() {
				done <- w.Run(func(c *Comm) error {
					defer func() {
						if r := recover(); r != nil {
							if _, ok := AsRevoked(r); !ok {
								// Revoke once both ranks that see a mismatch
								// have panicked; the others wait until then.
								msgs[c.Rank()] = fmt.Sprint(r)
								if mismatches.Add(1) == 2 {
									w.Revoke("length mismatch")
								}
							}
						}
					}()
					x := make([]float64, 64+c.Rank()/(p-1)) // the last rank has one more
					switch kind {
					case "allreduce":
						c.AllreduceInPlace(x, OpSum, AlgoRing)
					default:
						c.ReduceScatterInPlace(x, OpSum, 0)
					}
					return nil
				})
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s p=%d: mismatched ring hung", kind, p)
			}
			// The last rank sees a shorter left neighbour, rank 0 a longer one.
			for _, r := range []int{0, p - 1} {
				if !strings.Contains(msgs[r], "length mismatch") || !strings.Contains(msgs[r], fmt.Sprintf("rank %d", r)) ||
					!strings.Contains(msgs[r], fmt.Sprintf("rank %d", (r+p-1)%p)) {
					t.Fatalf("%s p=%d rank %d: panic %q, want a length mismatch naming both ranks", kind, p, r, msgs[r])
				}
			}
		}
	}
}

// parkedWaiters counts the ring waiters parked anywhere in w.
func parkedWaiters(w *World) int {
	n := 0
	for i := range w.spots {
		n += int(w.spots[i].parked.Load())
	}
	return n
}

// A member that never joins, or that panics mid-pass, leaves its peers
// stuck in the ring until Revoke; every one of them must then unwind with
// RevokedError, on the world or a split group, and no goroutine may outlive
// the world.
func TestRingRevocationUnwindsStuckMembers(t *testing.T) {
	OpSum.Combine(make([]float64, 1<<18), make([]float64, 1<<18)) // start the kernel pool
	base := runtime.NumGoroutine()
	for _, p := range []int{2, 3, 4, 5} {
		for _, fault := range []string{"never-joins", "panics"} {
			for _, comm := range []string{"world", "group"} {
				for _, passes := range []string{"allreduce", "reduce-scatter+allgather"} {
					where := fmt.Sprintf("p=%d %s %s %s", p, fault, comm, passes)
					ringRevocationCase(t, where, p, fault == "panics", comm == "group", passes == "allreduce")
					waitGoroutines(t, base, where)
				}
			}
		}
	}
}

func ringRevocationCase(t *testing.T, where string, p int, panics, group, allreduce bool) {
	t.Helper()
	const bad = 1 // the faulty member
	w := NewWorld(p)
	outcome := make([]string, p)
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(c *Comm) error {
			g := c
			if group {
				g = c.split(0, -c.Rank())
			}
			if c.Rank() == bad && !panics {
				outcome[c.Rank()] = "absent"
				return nil
			}
			calls := 0
			op := ReduceOp{"sum-or-fail", func(dst, src []float64) {
				if calls++; c.Rank() == bad && calls == p-1 {
					panic("member failed")
				}
				OpSum.Combine(dst, src)
			}}
			defer func() {
				r := recover()
				if _, ok := AsRevoked(r); ok {
					outcome[c.Rank()] = "revoked"
				} else if r == "member failed" {
					outcome[c.Rank()] = "failed"
					w.Revoke("member failed")
				} else if r != nil {
					panic(r)
				}
			}()
			if x := make([]float64, 1000); allreduce {
				g.AllreduceInPlace(x, op, AlgoRing)
			} else {
				g.ReduceScatterInPlace(x, op, 0)
				g.AllgatherInPlace(x)
			}
			outcome[c.Rank()] = "returned"
			return nil
		})
	}()
	if !panics {
		// Revoke only once every present member is parked on the ring.
		deadline := time.Now().Add(10 * time.Second)
		for parkedWaiters(w) < p-1 {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d of %d members parked", where, parkedWaiters(w), p-1)
			}
			time.Sleep(time.Millisecond)
		}
		w.Revoke("member never joined")
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: members still stuck after Revoke", where)
	}
	for r, o := range outcome {
		want := "revoked"
		if r == bad {
			want = map[bool]string{false: "absent", true: "failed"}[panics]
		}
		if o != want {
			t.Fatalf("%s: rank %d %s, want %s", where, r, o, want)
		}
	}
	if n := parkedWaiters(w); n != 0 {
		t.Fatalf("%s: %d waiters still parked", where, n)
	}
}

// ShareBuffer hands every member every member's buffer by reference, in
// rank order, on the world and on a split group, and ring collectives on
// the same group run on correctly after it.
func TestShareBufferReturnsEveryBuffer(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5} {
		w := NewWorld(p)
		bufs := make([][]float64, p)
		for r := range bufs {
			bufs[r] = make([]float64, r+1)
		}
		err := runFailFast(w, func(c *Comm) error {
			for _, g := range []namedComm{{"world", c}, {"reversed", c.split(0, -c.Rank())}} {
				x := propertyFloats(c.wrank, 17, 3)
				want := append([]float64(nil), x...)
				messageRing(g.Comm, want, OpSum.Combine, g.rank, 2)
				g.AllreduceInPlace(x, OpSum, AlgoRing)
				got := g.ShareBuffer(bufs[c.wrank])
				for r, b := range got {
					if wr := g.g.members[r]; len(b) != len(bufs[wr]) || &b[0] != &bufs[wr][0] {
						return fmt.Errorf("p=%d %s rank %d: member %d shared another buffer", p, g.name, g.rank, r)
					}
				}
				y := propertyFloats(c.wrank, 17, 3)
				g.AllreduceInPlace(y, OpSum, AlgoRing)
				if err := sameBits(y, want); err != nil {
					return fmt.Errorf("p=%d %s: allreduce after ShareBuffer: %v", p, g.name, err)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
