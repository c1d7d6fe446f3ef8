package data

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// ICU channel indices of the synthetic MIMIC-III stand-in. The channels
// mirror the vitals the ARDS study consumes: heart rate, SpO₂,
// respiratory rate, mean arterial pressure, FiO₂ and PaO₂ (whose ratio is
// the Berlin-definition P/F criterion, §IV-B).
const (
	ChHeartRate = iota
	ChSpO2
	ChRespRate
	ChMAP
	ChFiO2
	ChPaO2
	ICUChannels
)

// ICUChannelNames maps channel indices to names.
var ICUChannelNames = [ICUChannels]string{"HR", "SpO2", "RR", "MAP", "FiO2", "PaO2"}

// ARDSThreshold is the Berlin-definition P/F cutoff in mmHg: onset is a
// prolonged PaO₂/FiO₂ ratio below 300.
const ARDSThreshold = 300.0

// ICUConfig controls the synthetic patient generator.
type ICUConfig struct {
	Patients int
	Steps    int // hourly samples per stay; default 48
	// ARDSFraction is the share of patients who develop ARDS (the real
	// incidence is 1-2% of MV ICU patients; experiments oversample).
	ARDSFraction float64
	Seed         int64
}

// icuMissingRate is the per-observation MCAR missingness probability;
// sensor-dropout runs are added on top.
const icuMissingRate = 0.15

// ICUDataset holds generated stays.
//
//	X    (N, T, ICUChannels) — standardized vitals, 0 where missing
//	Mask (N, T, ICUChannels) — 1 where observed
//	Full (N, T, ICUChannels) — ground truth without missingness
//	Onset[i] — first step of sustained P/F < 300, or -1
type ICUDataset struct {
	X, Mask, Full *tensor.Tensor
	Onset         []int
}

// channel dynamics: baseline, std of the AR(1) noise, and coupling to the
// latent severity s ∈ [0,1].
var icuDynamics = [ICUChannels]struct {
	base, noise, severityGain float64
}{
	ChHeartRate: {80, 4, 40},   // tachycardia with severity
	ChSpO2:      {97, 0.8, -9}, // desaturation
	ChRespRate:  {16, 1.5, 14}, // tachypnea
	ChMAP:       {85, 5, -25},  // hypotension
	ChFiO2:      {0.21, 0.01, 0.5},
	ChPaO2:      {95, 5, -45},
}

// GenICU produces the synthetic cohort. Each patient follows a latent
// severity process: stable for non-ARDS patients, a sigmoid ramp starting
// at a random onset time for ARDS patients. Vitals are AR(1) around
// severity-coupled means; FiO₂ rises as clinicians respond. P/F ratio is
// computed from the generated PaO₂/FiO₂ and the label is the first step
// of a 4-hour sustained ratio below the Berlin threshold.
func GenICU(cfg ICUConfig) *ICUDataset {
	if cfg.Steps == 0 {
		cfg.Steps = 48
	}
	if cfg.ARDSFraction == 0 {
		cfg.ARDSFraction = 0.3
	}
	if cfg.Patients <= 0 {
		panic("data: Patients must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n, T := cfg.Patients, cfg.Steps
	x := tensor.New(n, T, ICUChannels)
	mask := tensor.New(n, T, ICUChannels)
	full := tensor.New(n, T, ICUChannels)
	onset := make([]int, n)

	for i := 0; i < n; i++ {
		isARDS := rng.Float64() < cfg.ARDSFraction
		rampStart := T // never
		if isARDS {
			rampStart = 6 + rng.Intn(T/2)
		}
		// AR(1) state per channel.
		state := make([]float64, ICUChannels)
		onset[i] = -1
		lowRun := 0
		for t := 0; t < T; t++ {
			severity := 0.0
			if isARDS {
				severity = 1 / (1 + math.Exp(-(float64(t-rampStart))/3))
			}
			for ch := 0; ch < ICUChannels; ch++ {
				d := icuDynamics[ch]
				target := d.base + d.severityGain*severity
				state[ch] = 0.7*state[ch] + 0.3*(target-d.base) + rng.NormFloat64()*d.noise
				full.Set(d.base+state[ch], i, t, ch)
			}
			// Physiological floor/ceiling.
			clampChannel(full, i, t, ChSpO2, 60, 100)
			clampChannel(full, i, t, ChFiO2, 0.21, 1.0)
			clampChannel(full, i, t, ChPaO2, 30, 140)

			pf := full.At(i, t, ChPaO2) / full.At(i, t, ChFiO2)
			if pf < ARDSThreshold {
				lowRun++
				if lowRun >= 4 && onset[i] < 0 {
					onset[i] = t - 3
				}
			} else {
				lowRun = 0
			}
		}
		// Missingness: MCAR plus sensor-dropout runs.
		for ch := 0; ch < ICUChannels; ch++ {
			dropUntil := -1
			for t := 0; t < T; t++ {
				missing := rng.Float64() < icuMissingRate
				if rng.Float64() < 0.01 {
					dropUntil = t + 2 + rng.Intn(4)
				}
				if t <= dropUntil {
					missing = true
				}
				if !missing {
					mask.Set(1, i, t, ch)
				}
			}
		}
	}
	// Standardize using observed values, then zero the missing entries.
	standardizeICU(full, x, mask)
	return &ICUDataset{X: x, Mask: mask, Full: full, Onset: onset}
}

func clampChannel(tns *tensor.Tensor, i, t, ch int, lo, hi float64) {
	v := tns.At(i, t, ch)
	if v < lo {
		tns.Set(lo, i, t, ch)
	} else if v > hi {
		tns.Set(hi, i, t, ch)
	}
}

// standardizeICU writes the z-scored full data into x (zeroing missing
// entries), using per-channel statistics computed over all values.
func standardizeICU(full, x, mask *tensor.Tensor) {
	n, T, c := full.Dim(0), full.Dim(1), full.Dim(2)
	for ch := 0; ch < c; ch++ {
		var sum, sumSq float64
		cnt := float64(n * T)
		for i := 0; i < n; i++ {
			for t := 0; t < T; t++ {
				v := full.At(i, t, ch)
				sum += v
				sumSq += v * v
			}
		}
		mean := sum / cnt
		std := math.Sqrt(math.Max(sumSq/cnt-mean*mean, 1e-9))
		for i := 0; i < n; i++ {
			for t := 0; t < T; t++ {
				z := (full.At(i, t, ch) - mean) / std
				full.Set(z, i, t, ch)
				if mask.At(i, t, ch) > 0 {
					x.Set(z, i, t, ch)
				}
			}
		}
	}
}

// ImputationTask carves an imputation problem out of a dataset for a
// single channel: additional observed entries are hidden at rate
// hideRate; the model sees X with those entries zeroed, plus one
// observation-indicator channel per vital (the standard masking-channel
// encoding for clinical time series, cf. GRU-D [39]), and must predict
// the hidden values. EvalMask marks exactly the hidden positions.
type ImputationTask struct {
	Input    *tensor.Tensor // (N, T, 2·ICUChannels): values ++ indicators
	Target   *tensor.Tensor // (N, T, 1) ground truth for the channel
	EvalMask *tensor.Tensor // (N, T, 1), 1 at hidden positions
	Channel  int
}

// MakeImputationTask hides observed values of the given channel.
func (d *ICUDataset) MakeImputationTask(channel int, hideRate float64, seed int64) *ImputationTask {
	rng := rand.New(rand.NewSource(seed))
	n, T := d.X.Dim(0), d.X.Dim(1)
	c := ICUChannels
	input := tensor.New(n, T, 2*c)
	target := tensor.New(n, T, 1)
	evalMask := tensor.New(n, T, 1)
	for i := 0; i < n; i++ {
		for t := 0; t < T; t++ {
			target.Set(d.Full.At(i, t, channel), i, t, 0)
			hidden := d.Mask.At(i, t, channel) > 0 && rng.Float64() < hideRate
			if hidden {
				evalMask.Set(1, i, t, 0)
			}
			for ch := 0; ch < c; ch++ {
				observed := d.Mask.At(i, t, ch) > 0 && !(ch == channel && hidden)
				if observed {
					input.Set(d.X.At(i, t, ch), i, t, ch)
					input.Set(1, i, t, c+ch)
				}
			}
		}
	}
	return &ImputationTask{Input: input, Target: target, EvalMask: evalMask, Channel: channel}
}

// ForwardFillBaseline imputes hidden values by carrying the last observed
// value forward (0 before the first observation): the classical clinical
// baseline the DL models must beat. Observation status is read from the
// task's indicator channels.
func (task *ImputationTask) ForwardFillBaseline() *tensor.Tensor {
	n, T := task.Input.Dim(0), task.Input.Dim(1)
	out := tensor.New(n, T, 1)
	ch := task.Channel
	ind := ICUChannels + ch
	for i := 0; i < n; i++ {
		last := 0.0
		for t := 0; t < T; t++ {
			if task.Input.At(i, t, ind) > 0 {
				last = task.Input.At(i, t, ch)
			}
			out.Set(last, i, t, 0)
		}
	}
	return out
}

// EarlyWarningWindows builds the ARDS early-warning classification task
// (§IV-B's stated goal: "an algorithmic approach that provides early
// warning"): sliding windows of `window` steps (values plus observation
// indicators, shape (M, window, 2·ICUChannels)) labeled 1 when ARDS onset
// occurs within the next `lead` steps after the window ends. Windows that
// end at or after a patient's onset are excluded (the condition is
// already manifest), as are windows too close to the stay end to know the
// outcome.
func (d *ICUDataset) EarlyWarningWindows(window, lead, stride int) (*tensor.Tensor, []int) {
	if window < 1 || lead < 1 || stride < 1 {
		panic("data: window, lead and stride must be positive")
	}
	n, T, c := d.X.Dim(0), d.X.Dim(1), ICUChannels
	type win struct {
		patient, end int
		label        int
	}
	var wins []win
	for i := 0; i < n; i++ {
		onset := d.Onset[i]
		for end := window; end+lead <= T; end += stride {
			if onset >= 0 && onset < end {
				break // onset already happened: no early warning possible
			}
			label := 0
			if onset >= end && onset < end+lead {
				label = 1
			}
			wins = append(wins, win{patient: i, end: end, label: label})
		}
	}
	x := tensor.New(len(wins), window, 2*c)
	labels := make([]int, len(wins))
	for w, ww := range wins {
		labels[w] = ww.label
		for t := 0; t < window; t++ {
			src := ww.end - window + t
			for ch := 0; ch < c; ch++ {
				x.Set(d.X.At(ww.patient, src, ch), w, t, ch)
				x.Set(d.Mask.At(ww.patient, src, ch), w, t, c+ch)
			}
		}
	}
	return x, labels
}

// MAEOn computes mean absolute error of predictions at hidden positions.
func (task *ImputationTask) MAEOn(pred *tensor.Tensor) float64 {
	var sum, cnt float64
	n, T := pred.Dim(0), pred.Dim(1)
	for i := 0; i < n; i++ {
		for t := 0; t < T; t++ {
			if task.EvalMask.At(i, t, 0) > 0 {
				sum += math.Abs(pred.At(i, t, 0) - task.Target.At(i, t, 0))
				cnt++
			}
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / cnt
}
