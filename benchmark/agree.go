package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// agreeFiles compares result set B against A under the end-to-end bounds
// (e2eDefs, which bench_test.go pins to BENCHMARK.json) and prints one row
// per (workload, end-to-end metric):
//
//	same        B's median is no worse than A's by more than the bound
//	worse       it is
//	unresolved  the spread of either set is wider than the bound, so the
//	            sets cannot tell
//
// It refuses sets taken on different host shapes or seeds, and reports
// false unless every row is "same".
func agreeFiles(w io.Writer, pathA, pathB string) (bool, error) {
	var a, b resultSet
	if err := readJSON(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return false, err
	}
	ha, hb := a.Host, b.Host
	if ha.NProc != hb.NProc || ha.GOMAXPROCS != hb.GOMAXPROCS || ha.CPUModel != hb.CPUModel || a.Seed != b.Seed {
		return false, fmt.Errorf("refusing to compare: A is %d cpus/GOMAXPROCS %d/%q/seed %d, B is %d/%d/%q/seed %d",
			ha.NProc, ha.GOMAXPROCS, ha.CPUModel, a.Seed, hb.NProc, hb.GOMAXPROCS, hb.CPUModel, b.Seed)
	}
	all := true
	fmt.Fprintf(w, "%-14s %-18s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "change", "spread", "bound", "verdict")
	for _, wl := range workloadNames() {
		for _, m := range e2eDefs {
			va, vb := a.Runs[wl][m.name], b.Runs[wl][m.name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-14s %-18s missing from a result set\n", wl, m.name)
				all = false
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma // share by which B is worse than A
			if m.better == "higher" {
				worse = (ma - mb) / ma
			}
			sp := max(spread(va), spread(vb))
			verdict := "same"
			switch {
			case sp > m.bound:
				verdict = "unresolved"
			case worse > m.bound:
				verdict = "worse"
			}
			all = all && verdict == "same"
			fmt.Fprintf(w, "%-14s %-18s %12.5g %12.5g %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				wl, m.name, ma, mb, 100*worse, 100*sp, 100*m.bound, verdict)
		}
	}
	return all, nil
}
