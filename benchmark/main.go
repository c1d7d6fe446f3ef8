// Command benchmark is the repository's referee: six workloads over the
// training and serving stacks, end-to-end numbers from an untraced run and
// per-layer numbers from a traced run whose spans are recorded from this
// directory's own files. See README.md for the workloads, the metrics and
// how they interact; BENCHMARK.json at the repository root is the contract.
//
//	bash benchmark/run.sh                      # every workload, both runs, as a table
//	bash benchmark/run.sh -workload gru-impute # one run, last stdout line is JSON
//	bash benchmark/run.sh -repeat 3 -out A.json
//	bash benchmark/run.sh -agree A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/nn"
)

// setupSamples is how many times a run sets the workload up, so that
// setup_s has several samples per process like every other timing.
func setupSamples(smoke bool) int {
	if smoke {
		return 2
	}
	return 5
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	outDir   string
}

// workloadNames lists the workloads in BENCHMARK.json's order.
func workloadNames() []string {
	var names []string
	for _, s := range trainSpecs {
		names = append(names, s.name)
	}
	for _, s := range serveSpecs {
		names = append(names, s.name)
	}
	return names
}

// runWorkload executes one workload in this process.
func runWorkload(o options) (*result, error) {
	for _, s := range trainSpecs {
		if s.name == o.workload {
			if o.smoke {
				s = s.smokeScale()
			}
			return runTraining(s, o), nil
		}
	}
	for _, s := range serveSpecs {
		if s.name == o.workload {
			return runServing(s, o)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
}

// smokeScale shrinks a training workload to a few steps with a target any
// model meets, for the test suite.
func (s *trainSpec) smokeScale() *trainSpec {
	c := *s
	c.warmup, c.segSteps, c.jobSegs = 1, 2, 2
	if c.batch > 0 {
		c.batch = 4
	}
	c.target = 0
	if c.lowerBetter {
		c.target = 1e9
	}
	return &c
}

func runTraining(s *trainSpec, o options) *result {
	res := newResult()
	ro := runOpts{seed: o.seed, smoke: o.smoke, outDir: o.outDir}
	if !o.trace {
		var setups []float64
		ro.setupOnly = true
		for i := 0; i < setupSamples(o.smoke)-1; i++ {
			setups = append(setups, s.run(ro).setup.Seconds())
		}
		ro.setupOnly, ro.seconds, ro.finishJob = false, o.seconds, true
		out := s.run(ro)
		setups = append(setups, out.setup.Seconds())
		checkTraining(res, out, o.seed)
		trainE2E(res, out)
		res.timing("setup_s", setups, false)
		return res
	}

	// Traced run: a short bare phase gives the throughput the traced
	// phase is compared with; the spans come from the second phase.
	ro.seconds = 0.3 * o.seconds
	bare := s.run(ro)
	ts := newTraceSet()
	ro.ts, ro.seconds, ro.finishJob = ts, 0.7*o.seconds, true
	out := s.run(ro)
	checkTraining(res, out, o.seed)
	vecElems := nn.NumParams(out.td.build().Params()) // the optimizer's sweep length
	// Allocations are counted in the bare phase: the span lists of the
	// traced phase allocate as they grow.
	out.mallocs, out.mallocSteps = bare.mallocs, bare.mallocSteps
	trainLayers(res, out, runProbes(out.layers, vecElems))
	if b := fastRate(bare); b > 0 {
		res.metrics["trace.overhead_frac"] = 1 - fastRate(out)/b
	}
	if s.name == "resnet-ddp" && !o.smoke {
		// The same per-rank batch on one rank: how much of two ranks'
		// ideal throughput the two-rank run reaches.
		ro.ts, ro.ranks, ro.seconds, ro.finishJob = nil, 1, 0.15*o.seconds, false
		if one := fastRate(s.run(ro)); one > 0 {
			res.metrics["distdl.scaling_eff"] = fastRate(bare) / (float64(s.ranks) * one)
		}
	}
	if err := ts.write(o.outDir, s.name); err != nil {
		res.op(false, "%v", err)
	}
	return res
}

func runServing(s *serveSpec, o options) (*result, error) {
	res := newResult()
	var setups []float64
	var ts *traceSet
	var bareCap float64
	if o.trace {
		// A short bare phase first: its closed-loop capacity is what the
		// traced phase is compared with.
		r, err := s.setUp(o.seed, o.smoke, nil, o.outDir)
		if err != nil {
			return nil, err
		}
		if err := r.computeExpected(); err != nil {
			r.close()
			return nil, err
		}
		r.measure(o.seed, 0.3*o.seconds)
		tmp := newResult()
		serveE2E(tmp, r)
		bareCap = tmp.metrics["throughput_per_s"]
		r.close()
		ts = newTraceSet()
	} else {
		for i := 0; i < setupSamples(o.smoke)-1; i++ {
			r, err := s.setUp(o.seed, o.smoke, nil, o.outDir)
			if err != nil {
				return nil, err
			}
			setups = append(setups, r.setup.Seconds())
			r.close()
		}
	}
	r, err := s.setUp(o.seed, o.smoke, ts, o.outDir)
	if err != nil {
		return nil, err
	}
	defer r.close()
	setups = append(setups, r.setup.Seconds())
	if err := r.computeExpected(); err != nil {
		return nil, err
	}
	r.reqTrack = ts.track("%s/requests", s.name)
	seconds := o.seconds
	if o.trace {
		seconds = 0.7 * o.seconds
	}
	r.measure(o.seed, seconds)
	checkServing(res, r)
	if !o.trace {
		serveE2E(res, r)
		res.timing("setup_s", setups, false)
		return res, nil
	}
	tmp := newResult()
	serveE2E(tmp, r)
	if bareCap > 0 {
		res.metrics["trace.overhead_frac"] = 1 - tmp.metrics["throughput_per_s"]/bareCap
	}
	r.probes(res, o.smoke)
	serveLayers(res, r, runProbes(r.layers, 1<<16))
	if err := ts.write(o.outDir, s.name); err != nil {
		res.op(false, "%v", err)
	}
	return res, nil
}

// ---- output ----

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// lastLine is the one JSON object the driver reads from the last line of
// standard output.
type lastLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func report(o options, res *result) lastLine {
	defs := e2eDefs
	if o.trace {
		defs = layerDefs
	}
	out := lastLine{Correct: res.failed == 0 && res.attempted > 0, Attempted: max(res.attempted, 1),
		Failed: res.failed, Metrics: map[string]metricJSON{}}
	fmt.Printf("# %s seed %d seconds %g trace %v\n", o.workload, o.seed, o.seconds, o.trace)
	for _, d := range defs {
		v := res.metrics[d.name]
		out.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		fmt.Printf("%-32s %14.6g %-8s %s\n", d.name, v, d.unit, res.extra[d.name])
	}
	fmt.Printf("%-32s %14d of %d\n", "failed", res.failed, res.attempted)
	for _, n := range res.notes {
		fmt.Println("FAILED:", n)
	}
	return out
}

// findRoot locates the checkout root (the directory holding
// BENCHMARK.json) from the working directory, which is the root under
// run.sh and benchmark/ under `go run -C benchmark .`.
func findRoot() string {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
	}
	return "."
}

func main() {
	var o options
	var trace, repeat int
	var scale, outFile string
	var agree bool
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process and end with the result JSON line")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the input generators")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.StringVar(&scale, "scale", "full", "full or smoke (tiny sizes, for tests)")
	flag.IntVar(&repeat, "repeat", 1, "without -workload: repeat every workload this many times")
	flag.StringVar(&outFile, "out", "", "without -workload: write the result set to this file")
	flag.BoolVar(&agree, "agree", false, "compare the two result files given as arguments under the end-to-end bounds")
	flag.Parse()
	o.trace, o.smoke = trace != 0, scale == "smoke"
	root := findRoot()
	o.outDir = filepath.Join(root, "benchmark", "out")

	switch {
	case agree:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -agree A.json B.json")
			os.Exit(2)
		}
		ok, err := agreeFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
	case o.workload != "":
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		res, err := runWorkload(o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if !o.trace {
			res.metrics["peak_rss_mb"] = peakRSSMB()
		}
		line, _ := json.Marshal(report(o, res)) // plain numbers and strings cannot fail to encode
		fmt.Println(string(line))
		if res.failed > 0 {
			os.Exit(1)
		}
	default:
		if err := runAll(o, scale, repeat, outFile); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
}

// ---- all workloads, one process each ----

// resultSet is the file -repeat writes and -agree reads: for every
// workload and metric, one value per repetition.
type resultSet struct {
	Host    hostInfo                        `json:"host"`
	Seed    int64                           `json:"seed"`
	Seconds float64                         `json:"seconds"`
	Runs    map[string]map[string][]float64 `json:"runs"`
	Units   map[string]string               `json:"units"`
	Failed  map[string]int64                `json:"failed"`
}

// runAll re-executes this binary once per workload and run kind, so every
// run starts with cold pools and a fresh heap and peak RSS is per workload.
func runAll(o options, scale string, repeat int, outFile string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Host: readHost(), Seed: o.seed, Seconds: o.seconds,
		Runs: map[string]map[string][]float64{}, Units: map[string]string{}, Failed: map[string]int64{}}
	fmt.Printf("host: %d cpus, GOMAXPROCS %d, %s, %s, tensor workers %d, commit %s\n", set.Host.NProc,
		set.Host.GOMAXPROCS, set.Host.CPUModel, set.Host.GoVersion, set.Host.KernelWorkers, set.Host.Commit)
	for rep := 0; rep < repeat; rep++ {
		for _, w := range workloadNames() {
			if set.Runs[w] == nil {
				set.Runs[w] = map[string][]float64{}
			}
			for _, tr := range []int{0, 1} {
				secs := o.seconds
				if tr == 1 {
					secs *= 0.6 // the traced run is the shorter one
				}
				cmd := exec.Command(self, "-workload", w, "-seed", fmt.Sprint(o.seed),
					"-seconds", fmt.Sprint(secs), "-trace", fmt.Sprint(tr), "-scale", scale)
				cmd.Stderr = os.Stderr
				start := time.Now()
				stdout, runErr := cmd.Output()
				lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
				var ll lastLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &ll); err != nil {
					return fmt.Errorf("%s (trace %d): no result line (%v): %w", w, tr, runErr, err)
				}
				fmt.Printf("\n== %s  trace %d  rep %d  (%.1fs, %d of %d failed)\n", w, tr, rep+1,
					time.Since(start).Seconds(), ll.Failed, ll.Attempted)
				fmt.Println(strings.Join(lines[1:len(lines)-1], "\n"))
				set.Failed[w] += ll.Failed
				for name, m := range ll.Metrics {
					set.Runs[w][name] = append(set.Runs[w][name], m.Value)
					set.Units[name] = m.Unit
				}
			}
		}
	}
	printSummary(set)
	if outFile != "" {
		if err := writeJSON(outFile, set); err != nil {
			return err
		}
	}
	for w, n := range set.Failed {
		if n > 0 {
			return fmt.Errorf("%s: %d operations failed", w, n)
		}
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func printSummary(set resultSet) {
	fmt.Printf("\n== end-to-end medians over %d repetition(s)\n", len(set.Runs["gru-impute"]["setup_s"]))
	fmt.Printf("%-18s", "metric")
	for _, w := range workloadNames() {
		fmt.Printf(" %14s", w)
	}
	fmt.Println()
	for _, d := range e2eDefs {
		fmt.Printf("%-18s", d.name)
		for _, w := range workloadNames() {
			fmt.Printf(" %14.5g", median(set.Runs[w][d.name]))
		}
		fmt.Printf("  %s\n", d.unit)
	}
	var fails []string
	for w, n := range set.Failed {
		fails = append(fails, fmt.Sprintf("%s=%d", w, n))
	}
	sort.Strings(fails)
	fmt.Println("failed operations:", strings.Join(fails, " "))
}
