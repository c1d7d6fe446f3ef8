package main

import (
	"bufio"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/tensor"
)

// quantile returns the q-quantile (0..1) of vals by linear interpolation
// between order statistics; 0 for an empty sample.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// quartiles returns (q1, q3) the way Python's statistics.quantiles(v, n=4)
// does (exclusive method), which is what the acceptance protocol uses for
// the run-to-run spread. Fewer than two values give (v, v).
func quartiles(vals []float64) (q1, q3 float64) {
	n := len(vals)
	if n < 2 {
		return median(vals), median(vals)
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points, exclusive method
		pos := float64(k*(n+1))/4 - 1
		lo := int(math.Floor(pos))
		if lo < 0 {
			return s[0]
		}
		if lo >= n-1 {
			return s[n-1]
		}
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vals []float64) float64 {
	m := median(vals)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return math.Abs((q3 - q1) / m)
}

// peakRSSMB reads this process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// hostInfo is recorded with every result file; -agree refuses to compare
// results whose host shape differs.
type hostInfo struct {
	NProc         int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	CPUModel      string `json:"cpu_model"`
	GoVersion     string `json:"go_version"`
	KernelWorkers int    `json:"tensor_workers"`
	Commit        string `json:"commit"`
}

func readHost() hostInfo {
	h := hostInfo{
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		KernelWorkers: tensor.Workers(),
		CPUModel:      "unknown",
		Commit:        "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	// The driver's checkout is not a git repository; the commit is then
	// simply unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}
