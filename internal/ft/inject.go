package ft

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/mpi"
)

// RankFailure is the panic payload a scripted Crash raises. The supervisor
// distinguishes it from programming bugs when classifying a rank's death.
type RankFailure struct {
	Rank int // global rank id
	Step int // step the crash fired at
}

func (f RankFailure) Error() string {
	return fmt.Sprintf("ft: injected crash of rank %d at step %d", f.Rank, f.Step)
}

// AsRankFailure extracts a RankFailure from a recover() value.
func AsRankFailure(r any) (RankFailure, bool) {
	f, ok := r.(RankFailure)
	return f, ok
}

// Injector wraps a Communicator and executes the slice of a Plan that
// targets one global rank: it crashes the rank at its scripted step,
// throttles its communication while a Straggle event is active, and delays
// its point-to-point sends under DelayMsg. It implements mpi.Communicator,
// so a distdl.Trainer runs over it unchanged.
//
// The step clock is advanced explicitly via AtStep at the top of each
// training step; a Crash fires there — before the rank enters any
// collective of that step — which keeps detection deterministic (a dead
// rank's last heartbeat step is strictly behind the survivors').
type Injector struct {
	inner mpi.Communicator
	*rankScript
}

// rankScript is one rank's slice of the plan plus its step clock. An
// injector and the children its Split returns share one, so a group
// communicator straggles and delays on the same schedule as its parent.
type rankScript struct {
	globalRank int
	step       atomic.Int64
	crashStep  int // -1 when the rank never crashes
	stragglers []Event
	delays     []Event
}

var _ mpi.Communicator = (*Injector)(nil)

// Wrap builds the injector for one global rank from the plan. A nil plan
// yields a pass-through injector (still usable for step tracking).
func (p *Plan) Wrap(c mpi.Communicator, globalRank int) *Injector {
	inj := &Injector{inner: c, rankScript: &rankScript{globalRank: globalRank, crashStep: -1}}
	if p != nil {
		for _, e := range p.Events {
			if e.Rank != globalRank {
				continue
			}
			switch e.Kind {
			case Crash:
				inj.crashStep = e.Step
			case Straggle:
				inj.stragglers = append(inj.stragglers, e)
			case DelayMsg:
				inj.delays = append(inj.delays, e)
			}
		}
	}
	return inj
}

// AtStep advances the injector's step clock to s and fires a scripted
// crash by panicking with RankFailure. Call it at the top of every
// training step, before any communication for that step.
func (inj *Injector) AtStep(s int) {
	inj.step.Store(int64(s))
	if inj.crashStep >= 0 && s >= inj.crashStep {
		panic(RankFailure{Rank: inj.globalRank, Step: inj.crashStep})
	}
}

func activeAt(events []Event, step int) time.Duration {
	var d time.Duration
	for _, e := range events {
		if step >= e.Step && (e.Until == 0 || step <= e.Until) {
			d += e.PerOp
		}
	}
	return d
}

// straggle sleeps the cumulative active Straggle delay for the current step.
func (inj *Injector) straggle() {
	if d := activeAt(inj.stragglers, int(inj.step.Load())); d > 0 {
		time.Sleep(d)
	}
}

// delaySend sleeps the cumulative active DelayMsg delay for the current step.
func (inj *Injector) delaySend() {
	if d := activeAt(inj.delays, int(inj.step.Load())); d > 0 {
		time.Sleep(d)
	}
}

// Rank and Size delegate; they are local queries, never throttled.

func (inj *Injector) Rank() int { return inj.inner.Rank() }
func (inj *Injector) Size() int { return inj.inner.Size() }

func (inj *Injector) Send(dst, tag int, data []float64) {
	inj.straggle()
	inj.delaySend()
	inj.inner.Send(dst, tag, data)
}

func (inj *Injector) RecvInto(src, tag int, buf []float64) int {
	inj.straggle()
	return inj.inner.RecvInto(src, tag, buf)
}

// Split splits the inner communicator and wraps this rank's child with
// the same script and step clock.
func (inj *Injector) Split(color, key int) mpi.Communicator {
	inj.straggle()
	child := inj.inner.Split(color, key)
	if child == nil {
		return nil
	}
	return &Injector{inner: child, rankScript: inj.rankScript}
}

func (inj *Injector) Barrier() {
	inj.straggle()
	inj.inner.Barrier()
}

func (inj *Injector) Bcast(root int, data []float64) []float64 {
	inj.straggle()
	return inj.inner.Bcast(root, data)
}

func (inj *Injector) Allreduce(data []float64, op mpi.ReduceOp, algo mpi.Algo) []float64 {
	inj.straggle()
	return inj.inner.Allreduce(data, op, algo)
}

func (inj *Injector) AllreduceInPlace(data []float64, op mpi.ReduceOp, algo mpi.Algo) {
	inj.straggle()
	inj.inner.AllreduceInPlace(data, op, algo)
}

func (inj *Injector) AllreduceMeanInPlace(data []float64, algo mpi.Algo) {
	inj.straggle()
	inj.inner.AllreduceMeanInPlace(data, algo)
}

func (inj *Injector) AllreduceScalar(v float64, op mpi.ReduceOp) float64 {
	inj.straggle()
	return inj.inner.AllreduceScalar(v, op)
}

func (inj *Injector) ReduceScatterInPlace(data []float64, op mpi.ReduceOp, scale float64) (int, int) {
	inj.straggle()
	return inj.inner.ReduceScatterInPlace(data, op, scale)
}

func (inj *Injector) AllgatherInPlace(data []float64) {
	inj.straggle()
	inj.inner.AllgatherInPlace(data)
}

func (inj *Injector) ShareBuffer(buf []float64) [][]float64 {
	inj.straggle()
	return inj.inner.ShareBuffer(buf)
}

func (inj *Injector) Gather(root int, data []float64) [][]float64 {
	inj.straggle()
	return inj.inner.Gather(root, data)
}
