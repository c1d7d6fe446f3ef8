package storage

import (
	"fmt"
	"math"
)

// Checkpoint/restart modelling. The NAM prototype's original purpose was
// "accelerating checkpoint/restart application performance in large-scale
// systems with network attached memory" (Schmidt, paper ref [12]): an
// application periodically flushes its state; writing it to the parallel
// filesystem contends for OST bandwidth, while the NAM absorbs the burst
// at memory speed and drains to the SSSM asynchronously.

// CheckpointPlan describes one application's checkpointing behaviour.
type CheckpointPlan struct {
	Nodes        int     // nodes writing concurrently
	StateGBNode  float64 // checkpoint size per node
	IntervalSec  float64 // compute time between checkpoints
	Checkpoints  int     // how many checkpoints the run takes
	StripePerJob int     // stripe width for SSSM writes
}

// Validate checks the plan's parameters.
func (p CheckpointPlan) Validate() error {
	if p.Nodes < 1 || p.StateGBNode <= 0 || p.IntervalSec <= 0 || p.Checkpoints < 1 {
		return fmt.Errorf("storage: invalid checkpoint plan %+v", p)
	}
	return nil
}

// TotalGB returns the volume of one full checkpoint.
func (p CheckpointPlan) TotalGB() float64 {
	return float64(p.Nodes) * p.StateGBNode
}

// SSSMCheckpointTime returns seconds one checkpoint stall takes when all
// nodes write straight to the parallel filesystem: each node is one
// contending stream.
func (p CheckpointPlan) SSSMCheckpointTime(fs *SSSM) float64 {
	return fs.ReadTime(p.StateGBNode, p.StripePerJob, p.Nodes)
}

// NAMCheckpointTime returns seconds one checkpoint stall takes when nodes
// write to the NAM: the application only blocks for the memory-speed
// write (the NAM drains to the SSSM in the background).
func (p CheckpointPlan) NAMCheckpointTime(nam *NAM) float64 {
	// All nodes share the NAM's bandwidth for the burst.
	perNodeBW := nam.Spec.BWGBs / float64(p.Nodes)
	return p.StateGBNode/perNodeBW + nam.Spec.LatencyUS*1e-6
}

// CompareCheckpointTargets returns the stall per checkpoint of the plan
// written to the SSSM directly and through the NAM. NAM capacity must
// hold one full checkpoint (double-buffered drains are assumed); an error
// is returned otherwise — the sizing constraint ref [12] discusses.
func CompareCheckpointTargets(p CheckpointPlan, fs *SSSM, nam *NAM) (sssmStall, namStall float64, err error) {
	if err := p.Validate(); err != nil {
		return 0, 0, err
	}
	if fs == nil || fs.Spec.OSTs <= 0 || fs.Spec.OSTBWGBs <= 0 {
		return 0, 0, fmt.Errorf("storage: SSSM target has no usable bandwidth")
	}
	if nam == nil || nam.Spec.BWGBs <= 0 || nam.Spec.CapacityGB <= 0 {
		return 0, 0, fmt.Errorf("storage: NAM target has no usable bandwidth or capacity")
	}
	if p.TotalGB() > nam.Spec.CapacityGB {
		return 0, 0, fmt.Errorf(
			"storage: checkpoint of %.0f GB exceeds NAM capacity %.0f GB", p.TotalGB(), nam.Spec.CapacityGB)
	}
	// Background drain feasibility: the NAM must empty one checkpoint into
	// the SSSM within the compute interval, or the next burst blocks.
	drain := fs.ReadTime(p.TotalGB(), p.StripePerJob, 1)
	namStall = p.NAMCheckpointTime(nam)
	if drain > p.IntervalSec {
		// Drain-limited: the application absorbs the leftover.
		namStall += drain - p.IntervalSec
	}
	return p.SSSMCheckpointTime(fs), namStall, nil
}

// Checkpoint-interval selection. With checkpoint stall δ and system MTBF
// M, checkpointing too often wastes time in stalls and too rarely wastes
// time re-executing lost work; the classic first-order optimum is Young's
// τ = sqrt(2δM), refined by Daly's higher-order expansion. These are the
// analytic companions to the measured recovery costs internal/ft reports:
// cmd/msa-ft joins the two into an MTBF-vs-overhead study.

// DalyInterval returns Daly's higher-order refinement of Young's optimum:
//
//	τ = sqrt(2δM)·[1 + 1/3·sqrt(δ/2M) + 1/9·(δ/2M)] − δ   for δ < 2M
//	τ = M                                                  otherwise
//
// For small δ/M it converges to Young's value; for checkpoint costs
// comparable to the MTBF it degrades gracefully instead of exceeding M.
func DalyInterval(ckptSec, mtbfSec float64) float64 {
	if ckptSec <= 0 || mtbfSec <= 0 {
		panic(fmt.Sprintf("storage: DalyInterval needs positive inputs, got δ=%g M=%g", ckptSec, mtbfSec))
	}
	if ckptSec >= 2*mtbfSec {
		return mtbfSec
	}
	x := ckptSec / (2 * mtbfSec)
	return math.Sqrt(2*ckptSec*mtbfSec)*(1+math.Sqrt(x)/3+x/9) - ckptSec
}

// ExpectedWaste returns the expected fraction of wall time lost to fault
// tolerance when checkpointing every intervalSec of compute: the stall
// share δ/τ, the expected rework after a failure τ/(2M), and the restart
// cost R/M. First-order model, valid for τ ≪ M.
func ExpectedWaste(intervalSec, ckptSec, restartSec, mtbfSec float64) float64 {
	if intervalSec <= 0 || mtbfSec <= 0 || ckptSec < 0 || restartSec < 0 {
		panic(fmt.Sprintf("storage: ExpectedWaste needs positive interval/MTBF, got τ=%g M=%g δ=%g R=%g",
			intervalSec, mtbfSec, ckptSec, restartSec))
	}
	return ckptSec/intervalSec + intervalSec/(2*mtbfSec) + restartSec/mtbfSec
}
