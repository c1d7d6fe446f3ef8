package data

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestGenMultispectralShapes(t *testing.T) {
	d := GenMultispectral(MultispectralConfig{Samples: 10, Seed: 1})
	s := d.X.Shape()
	if s[0] != 10 || s[1] != 4 || s[2] != 16 || s[3] != 16 {
		t.Fatalf("X shape %v", s)
	}
	if d.Y.Dim(0) != 10 || d.Y.Dim(1) != 8 {
		t.Fatalf("Y shape %v", d.Y.Shape())
	}
}

func TestMultispectralLabelsMultiHot(t *testing.T) {
	d := GenMultispectral(MultispectralConfig{Samples: 50, Seed: 2, MaxLabels: 3})
	for i := 0; i < 50; i++ {
		active := 0
		for c := 0; c < d.Classes; c++ {
			v := d.Y.At(i, c)
			if v != 0 && v != 1 {
				t.Fatalf("label not 0/1: %f", v)
			}
			if v == 1 {
				active++
			}
		}
		if active < 1 || active > 3 {
			t.Fatalf("sample %d has %d labels", i, active)
		}
	}
}

func TestMultispectralDeterministicBySeed(t *testing.T) {
	a := GenMultispectral(MultispectralConfig{Samples: 5, Seed: 3})
	b := GenMultispectral(MultispectralConfig{Samples: 5, Seed: 3})
	c := GenMultispectral(MultispectralConfig{Samples: 5, Seed: 4})
	for i, v := range a.X.Data() {
		if b.X.Data()[i] != v {
			t.Fatal("same seed must reproduce data")
		}
	}
	same := true
	for i, v := range a.X.Data() {
		if c.X.Data()[i] != v {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestMultispectralClassesSeparable(t *testing.T) {
	// Nearest-centroid classification on band means must beat chance by a
	// wide margin — otherwise the generator carries no signal for the
	// learning experiments.
	d := GenMultispectral(MultispectralConfig{Samples: 200, Seed: 5, MaxLabels: 1, Noise: 0.2})
	flat, labels := d.FlattenFeatures()
	dim := flat.Dim(1)
	centroids := make([][]float64, d.Classes)
	counts := make([]int, d.Classes)
	for c := range centroids {
		centroids[c] = make([]float64, dim)
	}
	for i := 0; i < 100; i++ {
		l := labels[i]
		counts[l]++
		for j := 0; j < dim; j++ {
			centroids[l][j] += flat.At(i, j)
		}
	}
	for c := range centroids {
		if counts[c] > 0 {
			for j := range centroids[c] {
				centroids[c][j] /= float64(counts[c])
			}
		}
	}
	correct := 0
	for i := 100; i < 200; i++ {
		best, bestD := -1, math.Inf(1)
		for c := range centroids {
			if counts[c] == 0 {
				continue
			}
			dist := 0.0
			for j := 0; j < dim; j++ {
				dd := flat.At(i, j) - centroids[c][j]
				dist += dd * dd
			}
			if dist < bestD {
				bestD, best = dist, c
			}
		}
		if best == labels[i] {
			correct++
		}
	}
	acc := float64(correct) / 100
	if acc < 0.4 { // chance is 1/8
		t.Fatalf("generator not separable: nearest-centroid acc %f", acc)
	}
}

func TestGenMultispectralPanicsOnZeroSamples(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GenMultispectral(MultispectralConfig{})
}

func TestGenCXRShapesAndBalance(t *testing.T) {
	d := GenCXR(CXRConfig{Samples: 30, Seed: 1})
	s := d.X.Shape()
	if s[0] != 30 || s[1] != 1 || s[2] != 32 || s[3] != 32 {
		t.Fatalf("CXR shape %v", s)
	}
	counts := map[int]int{}
	for _, l := range d.Labels {
		counts[l]++
	}
	if counts[CXRNormal] != 10 || counts[CXRPneumonia] != 10 || counts[CXRCovid] != 10 {
		t.Fatalf("class balance: %v", counts)
	}
	oh := d.OneHotLabels()
	if oh.Dim(1) != CXRClasses || oh.At(0, d.Labels[0]) != 1 {
		t.Fatal("one-hot labels wrong")
	}
}

func TestCXRClassesCarrySignal(t *testing.T) {
	// COVID images are bilateral: both lung halves gain opacity, while
	// pneumonia concentrates in one. Check mean intensity asymmetry.
	d := GenCXR(CXRConfig{Samples: 150, Seed: 2})
	s := 32
	asym := make(map[int][]float64)
	for i, l := range d.Labels {
		img := d.X.Data()[i*s*s : (i+1)*s*s]
		var left, right float64
		for py := 0; py < s; py++ {
			for px := 0; px < s; px++ {
				if px < s/2 {
					left += img[py*s+px]
				} else {
					right += img[py*s+px]
				}
			}
		}
		asym[l] = append(asym[l], math.Abs(left-right))
	}
	mean := func(v []float64) float64 {
		t := 0.0
		for _, x := range v {
			t += x
		}
		return t / float64(len(v))
	}
	if mean(asym[CXRPneumonia]) <= mean(asym[CXRCovid]) {
		t.Fatalf("pneumonia should be more asymmetric than covid: %f vs %f",
			mean(asym[CXRPneumonia]), mean(asym[CXRCovid]))
	}
	// Total opacity: covid and pneumonia exceed normal.
	tot := make(map[int]float64)
	for i, l := range d.Labels {
		img := d.X.Data()[i*s*s : (i+1)*s*s]
		for _, v := range img {
			tot[l] += v
		}
	}
	if tot[CXRCovid] <= tot[CXRNormal] || tot[CXRPneumonia] <= tot[CXRNormal] {
		t.Fatal("pathological classes must add opacity")
	}
}

func TestGenICUShapes(t *testing.T) {
	d := GenICU(ICUConfig{Patients: 20, Seed: 1})
	s := d.X.Shape()
	if s[0] != 20 || s[1] != 48 || s[2] != ICUChannels {
		t.Fatalf("ICU X shape %v", s)
	}
	if len(d.Onset) != 20 {
		t.Fatal("onset labels missing")
	}
}

func TestICUMissingnessMatchesMask(t *testing.T) {
	d := GenICU(ICUConfig{Patients: 10, Seed: 2})
	n, T := 10, 48
	missing, total := 0, 0
	for i := 0; i < n; i++ {
		for t0 := 0; t0 < T; t0++ {
			for ch := 0; ch < ICUChannels; ch++ {
				total++
				if d.Mask.At(i, t0, ch) == 0 {
					missing++
					if d.X.At(i, t0, ch) != 0 {
						t.Fatal("missing entries must be zeroed in X")
					}
				}
			}
		}
	}
	frac := float64(missing) / float64(total)
	if frac < icuMissingRate-0.1 || frac > icuMissingRate+0.2 {
		t.Fatalf("missing fraction %f implausible for rate %g", frac, icuMissingRate)
	}
}

func TestICUStandardized(t *testing.T) {
	d := GenICU(ICUConfig{Patients: 40, Seed: 3})
	// Full data is z-scored per channel: overall mean ~0, std ~1.
	n, T := 40, 48
	for ch := 0; ch < ICUChannels; ch++ {
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			for t0 := 0; t0 < T; t0++ {
				v := d.Full.At(i, t0, ch)
				sum += v
				sumSq += v * v
			}
		}
		cnt := float64(n * T)
		mean := sum / cnt
		std := math.Sqrt(sumSq/cnt - mean*mean)
		if math.Abs(mean) > 0.01 || math.Abs(std-1) > 0.01 {
			t.Fatalf("channel %s not standardized: mean %f std %f", ICUChannelNames[ch], mean, std)
		}
	}
}

func TestICUARDSPatientsExist(t *testing.T) {
	d := GenICU(ICUConfig{Patients: 100, Seed: 4, ARDSFraction: 0.5})
	withOnset := 0
	for _, o := range d.Onset {
		if o >= 0 {
			withOnset++
			if o >= 48 {
				t.Fatalf("onset %d out of range", o)
			}
		}
	}
	if withOnset < 20 || withOnset > 80 {
		t.Fatalf("ARDS onset count %d implausible for fraction 0.5", withOnset)
	}
}

func TestImputationTask(t *testing.T) {
	d := GenICU(ICUConfig{Patients: 10, Seed: 5})
	task := d.MakeImputationTask(ChPaO2, 0.3, 6)
	hidden := 0
	n, T := 10, 48
	for i := 0; i < n; i++ {
		for t0 := 0; t0 < T; t0++ {
			if task.EvalMask.At(i, t0, 0) > 0 {
				hidden++
				if task.Input.At(i, t0, ChPaO2) != 0 {
					t.Fatal("hidden entries must be zeroed in input")
				}
				if d.Mask.At(i, t0, ChPaO2) == 0 {
					t.Fatal("only observed entries may be hidden")
				}
			}
		}
	}
	if hidden == 0 {
		t.Fatal("no entries hidden")
	}
	// Perfect prediction gives MAE 0; ground truth gives 0.
	if task.MAEOn(task.Target) != 0 {
		t.Fatal("MAE of ground truth must be 0")
	}
	// Forward fill produces a finite, positive error.
	ff := task.ForwardFillBaseline()
	mae := task.MAEOn(ff)
	if mae <= 0 || math.IsNaN(mae) {
		t.Fatalf("forward-fill MAE %f", mae)
	}
}

// TestMAEOnZeroAlloc: scoring an imputation reads three tensors element
// by element through At, which allocates nothing, so neither does MAEOn.
func TestMAEOnZeroAlloc(t *testing.T) {
	d := GenICU(ICUConfig{Patients: 20, Seed: 5})
	task := d.MakeImputationTask(ChPaO2, 0.25, 6)
	pred := task.ForwardFillBaseline()
	if allocs := testing.AllocsPerRun(10, func() { task.MAEOn(pred) }); allocs != 0 {
		t.Fatalf("MAEOn allocates %.1f per call, want 0", allocs)
	}
}

func TestTrainValSplit(t *testing.T) {
	s := TrainValSplit(100, 0.2, 1)
	if len(s.Val) != 20 || len(s.Train) != 80 {
		t.Fatalf("split sizes %d/%d", len(s.Train), len(s.Val))
	}
	all := append(append([]int(nil), s.Train...), s.Val...)
	sort.Ints(all)
	for i, v := range all {
		if v != i {
			t.Fatal("split is not a partition")
		}
	}
}

func TestTrainValSplitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TrainValSplit(10, 1.0, 1)
}

func TestSelectRowsAndLabels(t *testing.T) {
	d := GenCXR(CXRConfig{Samples: 6, Seed: 7})
	sub := SelectRows(d.X, []int{4, 0})
	if sub.Dim(0) != 2 {
		t.Fatal("SelectRows shape")
	}
	s := 32 * 32
	for j := 0; j < s; j++ {
		if sub.Data()[j] != d.X.Data()[4*s+j] {
			t.Fatal("SelectRows copied wrong row")
		}
	}
	l := SelectLabels(d.Labels, []int{4, 0})
	if l[0] != d.Labels[4] || l[1] != d.Labels[0] {
		t.Fatal("SelectLabels")
	}
}

// Property: generated ICU stays never contain NaN/Inf and masks are 0/1.
func TestICUWellFormedProperty(t *testing.T) {
	f := func(seed int64) bool {
		d := GenICU(ICUConfig{Patients: 5, Steps: 24, Seed: seed})
		for _, v := range d.X.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		for _, v := range d.Mask.Data() {
			if v != 0 && v != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestEarlyWarningWindows(t *testing.T) {
	d := GenICU(ICUConfig{Patients: 30, Steps: 40, Seed: 12, ARDSFraction: 0.5})
	x, labels := d.EarlyWarningWindows(8, 6, 2)
	if x.Dim(0) != len(labels) || x.Dim(1) != 8 || x.Dim(2) != 2*ICUChannels {
		t.Fatalf("window shapes: %v, %d labels", x.Shape(), len(labels))
	}
	pos := 0
	for _, l := range labels {
		if l != 0 && l != 1 {
			t.Fatalf("label %d", l)
		}
		pos += l
	}
	if pos == 0 {
		t.Fatal("no positive windows despite 50% ARDS fraction")
	}
	if pos*2 > len(labels) {
		t.Fatalf("positives should be a minority: %d of %d", pos, len(labels))
	}
	// Indicator channels are 0/1.
	for i := 0; i < x.Size(); i++ {
		_ = i
	}
	for w := 0; w < x.Dim(0); w++ {
		for tt := 0; tt < 8; tt++ {
			for ch := ICUChannels; ch < 2*ICUChannels; ch++ {
				v := x.At(w, tt, ch)
				if v != 0 && v != 1 {
					t.Fatalf("indicator %f", v)
				}
			}
		}
	}
}

func TestEarlyWarningExcludesPostOnsetWindows(t *testing.T) {
	d := GenICU(ICUConfig{Patients: 40, Steps: 40, Seed: 13, ARDSFraction: 1.0})
	// With every patient developing ARDS, every window ends before its
	// patient's onset — verify via reconstruction: a window labeled 0 from
	// a patient with onset must end at least `lead` before onset... we
	// can't recover patient ids, so assert the aggregate: far fewer
	// windows than the no-ARDS case, since onset truncates each series.
	xA, _ := d.EarlyWarningWindows(8, 6, 2)
	dNone := GenICU(ICUConfig{Patients: 40, Steps: 40, Seed: 13, ARDSFraction: 0.0001})
	xN, _ := dNone.EarlyWarningWindows(8, 6, 2)
	if xA.Dim(0) >= xN.Dim(0) {
		t.Fatalf("onset truncation should reduce window count: %d vs %d", xA.Dim(0), xN.Dim(0))
	}
}

func TestEarlyWarningPanics(t *testing.T) {
	d := GenICU(ICUConfig{Patients: 2, Steps: 20, Seed: 14})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.EarlyWarningWindows(0, 6, 1)
}
