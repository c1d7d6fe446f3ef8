package ft

import (
	"fmt"

	"repro/internal/msa"
	"repro/internal/storage"
)

// Module-aware checkpoint placement: joins the supervisor's *measured*
// costs (checkpoint stall δ from Report.CheckpointDurations, restart cost
// R from Failure.Recovery) with the *analytic* SSSM-vs-NAM stall model in
// internal/storage, then picks the Young/Daly-optimal interval per target.
// This is the quantitative version of the placement argument in the paper's
// MSA design (ref [12]): the NAM exists to absorb checkpoint bursts at
// memory speed, and whether that matters depends on MTBF and state size.

// TargetAdvice is the placement evaluation for one storage target.
type TargetAdvice struct {
	Target string // "sssm-direct" or "via-nam"
	// StallSec is the modelled per-checkpoint application stall (δ).
	StallSec float64
	// IntervalSec is Daly's optimal compute interval for that δ at the
	// given MTBF, and IntervalSteps its conversion at the measured pace.
	IntervalSec   float64
	IntervalSteps int
	// WasteFrac is the first-order expected fraction of wall time lost to
	// fault tolerance at the optimal interval (stalls + rework + restart).
	WasteFrac float64
}

// PlacementAdvice compares the available targets for one (job, system,
// MTBF) point.
type PlacementAdvice struct {
	SSSM *TargetAdvice // nil when the system has no SSSM module
	NAM  *TargetAdvice // nil when the system has no NAM module
	// Best points at the lower-waste target of the two.
	Best *TargetAdvice
}

// AdviseCheckpointPlacement evaluates where a job with the given
// checkpoint plan should place its coordinated checkpoints on `sys`, and
// how often, for a given MTBF and restart cost.
//
//   - plan sizes the checkpoint traffic (nodes, GB/node, stripe width);
//     its IntervalSec seeds the model but the advice recomputes the
//     optimum per target.
//   - stepSec is the measured training step time (Report gives
//     wall-per-step), used to convert the optimal interval to steps.
//   - restartSec is the measured recovery cost (Failure.Recovery).
func AdviseCheckpointPlacement(sys *msa.System, plan storage.CheckpointPlan, mtbfSec, restartSec, stepSec float64) (*PlacementAdvice, error) {
	if sys == nil {
		return nil, fmt.Errorf("ft: nil system")
	}
	if mtbfSec <= 0 || stepSec <= 0 || restartSec < 0 {
		return nil, fmt.Errorf("ft: need positive MTBF and step time (got M=%g, step=%g, R=%g)", mtbfSec, stepSec, restartSec)
	}
	fsSpec, namSpec := sys.CheckpointTargets()
	if fsSpec == nil && namSpec == nil {
		return nil, fmt.Errorf("ft: system %q has neither an SSSM nor a NAM module — nowhere to checkpoint", sys.Name)
	}
	adv := &PlacementAdvice{}
	mk := func(target string, stall float64) *TargetAdvice {
		interval := storage.DalyInterval(stall, mtbfSec)
		return &TargetAdvice{
			Target:        target,
			StallSec:      stall,
			IntervalSec:   interval,
			IntervalSteps: int(interval/stepSec + 0.5),
			WasteFrac:     storage.ExpectedWaste(interval, stall, restartSec, mtbfSec),
		}
	}
	if fsSpec != nil {
		fs := storage.NewSSSM(*fsSpec)
		adv.SSSM = mk("sssm-direct", plan.SSSMCheckpointTime(fs))
		if namSpec != nil {
			// The full comparison honours NAM capacity and drain limits.
			_, viaNAM, err := storage.CompareCheckpointTargets(plan, fs, storage.NewNAM(*namSpec))
			if err == nil {
				adv.NAM = mk("via-nam", viaNAM)
			}
			// A capacity/drain error just means the NAM is not a viable
			// target for this plan; the SSSM advice stands alone.
		}
	} else {
		// NAM only: burst time without a drain target behind it.
		adv.NAM = mk("via-nam", plan.NAMCheckpointTime(storage.NewNAM(*namSpec)))
	}
	adv.Best = adv.SSSM
	if adv.NAM != nil && (adv.Best == nil || adv.NAM.WasteFrac < adv.Best.WasteFrac) {
		adv.Best = adv.NAM
	}
	return adv, nil
}
