package mpi

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// recoverRevoked runs fn and reports whether it panicked with RevokedError.
func recoverRevoked(fn func()) (revoked bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := AsRevoked(r); ok {
				revoked = true
				return
			}
			panic(r)
		}
	}()
	fn()
	return false
}

func TestRevokeUnblocksRecv(t *testing.T) {
	w := NewWorld(2)
	done := make(chan bool, 1)
	go func() {
		done <- recoverRevoked(func() { w.Comm(0).Recv(1, 7) })
	}()
	time.Sleep(20 * time.Millisecond) // let the receiver block
	w.Revoke("test")
	select {
	case revoked := <-done:
		if !revoked {
			t.Fatal("Recv returned normally on a revoked world")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv still blocked after Revoke")
	}
	if !w.Revoked() {
		t.Fatal("Revoked() should report true")
	}
}

func TestRevokeUnblocksCollectives(t *testing.T) {
	// Ranks 0 and 1 enter the barrier; rank 2 never does — the classic
	// dead-peer stall. Revoke must unwind both blocked ranks.
	w := NewWorld(3)
	var wg sync.WaitGroup
	results := make([]bool, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r] = recoverRevoked(func() { w.Comm(r).Barrier() })
		}(r)
	}
	time.Sleep(20 * time.Millisecond)
	w.Revoke("rank 2 presumed dead")
	wg.Wait()
	for r, revoked := range results {
		if !revoked {
			t.Fatalf("rank %d escaped the barrier without RevokedError", r)
		}
	}
}

func TestRevokeUnblocksGCE(t *testing.T) {
	w := NewWorld(2)
	done := make(chan bool, 1)
	go func() {
		done <- recoverRevoked(func() {
			w.Comm(0).Allreduce([]float64{1}, OpSum, AlgoGCE)
		})
	}()
	time.Sleep(20 * time.Millisecond)
	w.Revoke("test")
	select {
	case revoked := <-done:
		if !revoked {
			t.Fatal("GCE allreduce returned normally on a revoked world")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("GCE allreduce still blocked after Revoke")
	}
}

func TestSendOnRevokedWorldPanics(t *testing.T) {
	w := NewWorld(2)
	w.Revoke("test")
	if !recoverRevoked(func() { w.Comm(0).Send(1, 0, []float64{1}) }) {
		t.Fatal("Send on a revoked world should panic with RevokedError")
	}
}

func TestRevokeIdempotent(t *testing.T) {
	w := NewWorld(2)
	w.Revoke("first")
	w.Revoke("second") // must not panic or deadlock
	if !recoverRevoked(func() { w.Comm(1).Recv(0, 0) }) {
		t.Fatal("Recv after double revoke should panic with RevokedError")
	}
}

func TestRevokedErrorMessage(t *testing.T) {
	e := RevokedError{Reason: "rank 3 dead"}
	if e.Error() != "mpi: world revoked: rank 3 dead" {
		t.Fatalf("unexpected message %q", e.Error())
	}
	if _, ok := AsRevoked("not a revocation"); ok {
		t.Fatal("AsRevoked matched a non-RevokedError value")
	}
}

// A rank that never joins leaves its peers parked in the mailbox (a
// receive, the dissemination barrier, the tree allreduce) or in the
// collective engine (GCE) until Revoke; every one of them must then unwind
// with RevokedError, and no goroutine may outlive the world. The ring's
// waiters have their own gate (TestRingRevocationUnwindsStuckMembers).
func TestRevocationUnwindsMailboxWaiters(t *testing.T) {
	OpSum.Combine(make([]float64, 1<<18), make([]float64, 1<<18)) // start the kernel pool
	base := runtime.NumGoroutine()
	waits := []struct {
		name string
		wait func(c *Comm, absent int)
	}{
		{"Recv", func(c *Comm, absent int) { c.Recv(absent, 3) }},
		{"RecvInto", func(c *Comm, absent int) { c.RecvInto(absent, 3, make([]float64, 4)) }},
		{"Barrier", func(c *Comm, _ int) { c.Barrier() }},
		{"tree-Allreduce", func(c *Comm, _ int) { c.Allreduce([]float64{1, 2}, OpSum, AlgoTree) }},
		{"GCE-Allreduce", func(c *Comm, _ int) { c.Allreduce([]float64{1, 2}, OpSum, AlgoGCE) }},
	}
	for _, wc := range waits {
		for _, p := range []int{2, 3, 4} {
			where := fmt.Sprintf("%s p=%d", wc.name, p)
			absent := p - 1
			w := NewWorld(p)
			outcome := make([]string, p)
			done := make(chan error, 1)
			go func() {
				done <- w.Run(func(c *Comm) error {
					switch {
					case c.Rank() == absent:
						outcome[c.Rank()] = "absent"
					case recoverRevoked(func() { wc.wait(c, absent) }):
						outcome[c.Rank()] = "revoked"
					default:
						outcome[c.Rank()] = "returned"
					}
					return nil
				})
			}()
			time.Sleep(20 * time.Millisecond) // let the present ranks park
			w.Revoke("rank never joined")
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: ranks still blocked after Revoke", where)
			}
			for r, o := range outcome {
				if want := map[bool]string{false: "revoked", true: "absent"}[r == absent]; o != want {
					t.Fatalf("%s: rank %d %s, want %s", where, r, o, want)
				}
			}
			waitGoroutines(t, base, where)
		}
	}
}
