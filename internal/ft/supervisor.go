package ft

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/distdl"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Job describes one elastic data-parallel training run.
type Job struct {
	// NewModel builds a fresh replica. It must be deterministic across
	// calls and across process runs (fixed-seed initialization): replicas
	// are aligned by a rank-0 broadcast at start-up, but run-to-run
	// reproducibility — the property the determinism tests assert — needs
	// the factory itself to be a pure function.
	NewModel func() *nn.Sequential
	// NewOpt builds the per-replica optimizer; it must return an
	// nn.StatefulOptimizer, since recovery restores optimizer state.
	NewOpt func() nn.Optimizer
	Loss   nn.Loss
	// Xs, Ys hold the full dataset, samples along dim 0.
	Xs, Ys *tensor.Tensor
	// Ranks is the initial world size; BatchSize the per-rank minibatch at
	// full strength. Their product is the global batch, which stays fixed
	// when the world shrinks.
	Ranks     int
	BatchSize int
	// Steps is the target optimizer step count.
	Steps int
	// EpochSeed seeds the per-epoch shuffles (see StepBatch).
	EpochSeed int64
}

// Failure-detector constants: the watcher checks heartbeats every
// pollInterval, and a rank whose last beat is older than heartbeatTimeout
// (and behind the survivors' frontier, see Monitor.SuspectDead) is
// declared dead.
const (
	heartbeatTimeout = 400 * time.Millisecond
	pollInterval     = 5 * time.Millisecond
)

// Options tunes the supervisor.
type Options struct {
	// Plan is the fault schedule to run under (nil: failure-free).
	Plan *Plan
	// Checkpoint configures coordinated checkpoints.
	Checkpoint CheckpointConfig
	// Store persists checkpoints; defaults to an in-memory MemStore. Use
	// *storage.ModelStore for durable SSSM-style placement.
	Store BlobStore
	// Logf, when set, additionally receives each Report.Log line as it is
	// emitted (e.g. log.Printf). The Report always collects them.
	Logf func(format string, args ...any)
}

// Failure records one detected rank death and its recovery accounting.
type Failure struct {
	Rank         int // global rank that died
	DetectedStep int // step the survivors had reached when detection fired
	RestoredStep int // checkpoint step the next incarnation resumed from
	LostSteps    int // DetectedStep - RestoredStep: work to re-execute
	// Recovery is the measured wall time from detection until every
	// survivor of the next incarnation was restored and ready to train.
	// Wall-clock, so it is reported here and in metrics but never in the
	// deterministic Log.
	Recovery time.Duration
}

// Report summarizes a supervised run.
type Report struct {
	Incarnations int   // worlds built (1 = failure-free)
	Survivors    []int // global ranks alive at the end
	Failures     []Failure
	LostSteps    int // total re-executed steps across recoveries
	Checkpoints  int // coordinated checkpoints written
	// CheckpointBytes is the size of the last checkpoint blob;
	// CheckpointDurations the measured serialize+write stall per
	// checkpoint — the δ the Young/Daly interval model wants.
	CheckpointBytes     int64
	CheckpointDurations []time.Duration
	FinalStep           int
	FinalLoss           float64
	ParamsInSync        bool // post-recovery invariant: replicas bit-identical
	// FinalParams is the flattened parameter vector of survivor 0 at the
	// end — the determinism tests compare it across runs.
	FinalParams []float64
	// Log is the deterministic event log: no wall-clock content, so two
	// runs of the same job+plan produce identical logs.
	Log []string
	// TotalRecovery sums Failure.Recovery (wall-clock).
	TotalRecovery time.Duration
}

// Supervisor runs a Job under a fault Plan with coordinated
// checkpoint/restart and elastic shrink-on-failure recovery.
type Supervisor struct {
	job Job
	opt Options

	mu  sync.Mutex
	rep Report
	// lastDetect carries the detection wall time of the most recent
	// failure into the next incarnation, where the matching ready time
	// becomes known and the Failure.Recovery duration can be closed out.
	lastDetect time.Time
}

// NewSupervisor validates the job and options and prepares a run.
func NewSupervisor(job Job, opt Options) (*Supervisor, error) {
	if job.NewModel == nil || job.NewOpt == nil || job.Loss == nil {
		return nil, fmt.Errorf("ft: job needs NewModel, NewOpt, and Loss")
	}
	if job.Xs == nil || job.Ys == nil {
		return nil, fmt.Errorf("ft: job needs a dataset")
	}
	if job.Xs.Shape()[0] != job.Ys.Shape()[0] {
		return nil, fmt.Errorf("ft: dataset size mismatch: %d xs vs %d ys", job.Xs.Shape()[0], job.Ys.Shape()[0])
	}
	if job.Ranks < 1 || job.BatchSize < 1 || job.Steps < 1 {
		return nil, fmt.Errorf("ft: need positive Ranks/BatchSize/Steps, got %d/%d/%d", job.Ranks, job.BatchSize, job.Steps)
	}
	n := job.Xs.Shape()[0]
	if g := job.Ranks * job.BatchSize; g > n {
		return nil, fmt.Errorf("ft: global batch %d exceeds dataset size %d", g, n)
	}
	if _, ok := job.NewOpt().(nn.StatefulOptimizer); !ok {
		return nil, fmt.Errorf("ft: optimizer %s is not stateful — recovery cannot restore it", job.NewOpt().Name())
	}
	if err := opt.Plan.Validate(job.Ranks); err != nil {
		return nil, err
	}
	if opt.Store == nil {
		opt.Store = NewMemStore()
	}
	return &Supervisor{job: job, opt: opt}, nil
}

func (s *Supervisor) logf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	s.mu.Lock()
	s.rep.Log = append(s.rep.Log, line)
	s.mu.Unlock()
	if s.opt.Logf != nil {
		s.opt.Logf("%s", line)
	}
}

// Run executes the job to completion, surviving every crash the plan
// scripts, and returns the accounting report. The returned Report.Log,
// FinalParams, LostSteps, and Failures (minus wall-clock Recovery values)
// are deterministic functions of (Job, Plan).
func (s *Supervisor) Run() (*Report, error) {
	alive := make([]int, s.job.Ranks)
	for i := range alive {
		alive[i] = i
	}
	var restoreBlob []byte
	restoreStep := 0
	maxInc := 2
	if s.opt.Plan != nil {
		maxInc += len(s.opt.Plan.Events)
	}
	s.logf("plan: %s", s.opt.Plan.String())
	for inc := 0; ; inc++ {
		if inc >= maxInc {
			return nil, fmt.Errorf("ft: %d incarnations without completing — supervisor is not converging", inc)
		}
		s.logf("incarnation %d: ranks %v from step %d", inc, alive, restoreStep)
		res := s.runIncarnation(inc, alive, restoreBlob, restoreStep)
		if res.err != nil {
			return nil, res.err
		}
		// Close out the previous recovery's timing: it ends when this
		// incarnation's ranks all reported ready.
		s.mu.Lock()
		for i := range s.rep.Failures {
			if s.rep.Failures[i].Recovery == 0 {
				s.rep.Failures[i].Recovery = res.readyAt.Sub(s.lastDetect)
			}
		}
		s.mu.Unlock()

		if len(res.dead) == 0 {
			s.logf("incarnation %d: completed at step %d, ranks %v, params in sync: %v",
				inc, res.finalStep, alive, res.inSync)
			s.mu.Lock()
			rep := &s.rep
			rep.Incarnations = inc + 1
			rep.Survivors = append([]int(nil), alive...)
			rep.FinalStep = res.finalStep
			rep.FinalLoss = res.finalLoss
			rep.ParamsInSync = res.inSync
			rep.FinalParams = res.params
			for _, f := range rep.Failures {
				rep.TotalRecovery += f.Recovery
			}
			s.mu.Unlock()
			out := s.rep
			return &out, nil
		}

		// Recovery: shrink the world to the survivors and resume from the
		// newest coordinated checkpoint.
		survivors := exclude(alive, res.dead)
		if len(survivors) == 0 {
			return nil, fmt.Errorf("ft: all ranks dead at step %d — nothing to recover with", res.stallStep)
		}
		blob, ckptStep, ok, err := LatestCheckpoint(s.opt.Store, checkpointPrefix)
		if err != nil {
			return nil, fmt.Errorf("ft: reading checkpoints during recovery: %w", err)
		}
		if !ok {
			blob, ckptStep = nil, 0 // no checkpoint yet: restart from scratch
		}
		incidentLost := res.stallStep - ckptStep
		s.mu.Lock()
		for _, gid := range res.dead {
			s.rep.Failures = append(s.rep.Failures, Failure{
				Rank: gid, DetectedStep: res.stallStep, RestoredStep: ckptStep, LostSteps: incidentLost,
			})
		}
		// One incident loses incidentLost steps regardless of how many
		// ranks died in it, so the total is tracked per incident.
		s.rep.LostSteps += incidentLost
		s.lastDetect = res.detectedAt
		s.mu.Unlock()
		s.logf("incarnation %d: recovering — survivors %v resume from checkpoint step %d (lost %d steps)",
			inc, survivors, ckptStep, res.stallStep-ckptStep)
		alive, restoreBlob, restoreStep = survivors, blob, ckptStep
	}
}

type incResult struct {
	err        error
	dead       []int // global ranks that died this incarnation
	stallStep  int   // survivors' frontier step at detection
	detectedAt time.Time
	readyAt    time.Time
	finalLoss  float64
	inSync     bool
	finalStep  int
	params     []float64
}

func (s *Supervisor) runIncarnation(inc int, alive []int, restoreBlob []byte, restoreStep int) incResult {
	n := s.job.Xs.Shape()[0]
	globalBatch := s.job.Ranks * s.job.BatchSize
	world := mpi.NewWorld(len(alive))
	mon := NewMonitor(alive)
	res := incResult{stallStep: -1}
	var resMu sync.Mutex

	var readyWG sync.WaitGroup
	readyWG.Add(len(alive))
	readyCh := make(chan time.Time, 1)
	go func() { readyWG.Wait(); readyCh <- time.Now() }()

	// Failure detector: poll heartbeats; on suspicion, record the death,
	// log deterministically (no wall times), and revoke the world so the
	// survivors blocked in collectives with the dead peer unwind.
	stopMon := make(chan struct{})
	var monWG sync.WaitGroup
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		tick := time.NewTicker(pollInterval)
		defer tick.Stop()
		for {
			select {
			case <-stopMon:
				return
			case <-tick.C:
				suspects := mon.SuspectDead(heartbeatTimeout)
				if len(suspects) == 0 {
					continue
				}
				stall := -1
				for _, gid := range alive {
					if !containsInt(suspects, gid) && mon.LastStep(gid) > stall {
						stall = mon.LastStep(gid)
					}
				}
				resMu.Lock()
				res.dead = append([]int(nil), suspects...)
				res.stallStep = stall
				res.detectedAt = time.Now()
				resMu.Unlock()
				s.logf("incarnation %d: heartbeat detector suspects ranks %v dead (survivor frontier step %d); revoking world",
					inc, suspects, stall)
				world.Revoke(fmt.Sprintf("ranks %v suspected dead at step %d", suspects, stall))
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for pos, gid := range alive {
		wg.Add(1)
		go func(pos, gid int) {
			defer wg.Done()
			var once sync.Once
			ready := func() { once.Do(readyWG.Done) }
			defer ready()
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				if _, ok := AsRankFailure(r); ok {
					return // scripted fail-stop: detection is the monitor's job
				}
				if _, ok := mpi.AsRevoked(r); ok {
					return // survivor unwound from a revoked collective
				}
				resMu.Lock()
				if res.err == nil {
					res.err = fmt.Errorf("ft: rank %d (incarnation %d) panicked: %v", gid, inc, r)
				}
				resMu.Unlock()
				world.Revoke(fmt.Sprintf("rank %d panicked: %v", gid, r))
			}()

			crashStep := s.opt.Plan.crashStep(gid)
			trainer := distdl.New(world.Comm(pos), s.job.NewModel(), s.job.Loss, s.job.NewOpt()).(*distdl.Trainer)
			if restoreBlob != nil {
				if err := trainer.Restore(restoreBlob); err != nil {
					resMu.Lock()
					if res.err == nil {
						res.err = fmt.Errorf("ft: rank %d restore: %w", gid, err)
					}
					resMu.Unlock()
					world.Revoke("restore failed")
					return
				}
			}
			ready()

			lastLoss := 0.0
			for step := trainer.StepCount(); step < s.job.Steps; step++ {
				// Crash before the beat: a dead rank's last beat is then
				// strictly behind the survivors' frontier, which is what
				// makes SuspectDead exact and deterministic.
				if crashStep >= 0 && step >= crashStep {
					panic(RankFailure{Rank: gid, Step: crashStep})
				}
				mon.Beat(gid, step)
				idx := StepBatch(n, s.job.EpochSeed, step, globalBatch, pos, len(alive))
				x, y := distdl.GatherBatch(s.job.Xs, s.job.Ys, idx)
				lastLoss = trainer.Step(x, y)
				if every := s.opt.Checkpoint.Every; every > 0 && (step+1)%every == 0 {
					s.coordinatedCheckpoint(inc, trainer, pos, step+1)
				}
			}
			mon.Done(gid)
			inSync := trainer.ParamsInSync()
			if pos == 0 {
				flat := nn.FlattenValues(trainer.Model.Params())
				resMu.Lock()
				res.finalLoss = lastLoss
				res.inSync = inSync
				res.finalStep = trainer.StepCount()
				res.params = append([]float64(nil), flat...)
				resMu.Unlock()
			}
		}(pos, gid)
	}
	wg.Wait()
	close(stopMon)
	monWG.Wait()
	res.readyAt = <-readyCh // every rank marks ready (deferred), so this always arrives
	return res
}

// coordinatedCheckpoint quiesces all replicas at the same step boundary
// (barrier), has survivor 0 serialize and persist the full snapshot —
// replicas hold bit-identical parameters, and the writer reads the other
// ranks' optimizer-state shards in place (distdl.Trainer.Checkpoint), so
// one writer suffices — and releases the world only once the write is
// durable (second barrier). Write failures
// panic and are classified as fatal by the rank's recover handler.
func (s *Supervisor) coordinatedCheckpoint(inc int, trainer *distdl.Trainer, pos, step int) {
	trainer.Comm.Barrier()
	if pos == 0 {
		t0 := time.Now()
		blob, err := trainer.Checkpoint()
		name := checkpointName(checkpointPrefix, step)
		if err == nil {
			err = s.opt.Store.SaveBlob(name, blob)
		}
		if err == nil {
			err = pruneCheckpoints(s.opt.Store, checkpointPrefix, s.opt.Checkpoint.Retain)
		}
		if err != nil {
			panic(fmt.Sprintf("coordinated checkpoint %s failed: %v", name, err))
		}
		dur := time.Since(t0)
		s.mu.Lock()
		s.rep.Checkpoints++
		s.rep.CheckpointBytes = int64(len(blob))
		s.rep.CheckpointDurations = append(s.rep.CheckpointDurations, dur)
		s.mu.Unlock()
		s.logf("incarnation %d: coordinated checkpoint %s at step %d (%d bytes)", inc, name, step, len(blob))
	}
	trainer.Comm.Barrier()
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func exclude(all, drop []int) []int {
	var out []int
	for _, v := range all {
		if !containsInt(drop, v) {
			out = append(out, v)
		}
	}
	return out
}
