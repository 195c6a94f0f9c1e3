// Command dsmbench is the repository's end-to-end benchmark. It runs
// one named workload through the public surface of the experiment
// pipeline — simulate → threshold sweep → tuning hook → assemble →
// encode, and for the coordinator service submit → served report —
// checks every output for correctness, and prints each metric with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 96, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (tracing off);
// with -trace 1 the run instead decomposes the workload's plan into
// direct calls into each layer and reports per-layer metrics. Normally
// started through run.sh, which builds this binary and the worker
// binary first (see README.md).
//
//	dsmbench -workload paper-panel -seed 1 -seconds 15 -trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"dsmphase/internal/harness"
	"dsmphase/internal/workloads"
)

func main() {
	if spec := os.Getenv(setupProbeEnv); spec != "" {
		os.Exit(setupProbe(spec, os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one benchmark run.
type options struct {
	workload    string
	seed        uint64
	seconds     float64
	trace       bool
	buildDir    string // scratch space inside the checkout (coordinator data, spans)
	experiments string // the worker binary the coordinator execs
	repin       string // write the seed's pins to this file instead of checking them
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dsmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o     options
		trace int
	)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 15, "how long the timed region measures")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: traced per-layer run")
	fs.StringVar(&o.buildDir, "build-dir", ".bench_build", "scratch directory for coordinator state and span dumps")
	fs.StringVar(&o.experiments, "experiments", "", "worker binary (cmd/experiments) for the served workload")
	fs.StringVar(&o.repin, "repin", "", "with -trace 1: write this seed's report digests and counters into the pins file at this path")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "dsmbench: -trace must be 0 or 1")
		return 2
	}
	o.trace = trace == 1
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "dsmbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "dsmbench: -seconds must be positive")
		return 2
	}
	if o.repin != "" && !o.trace {
		fmt.Fprintln(stderr, "dsmbench: -repin needs -trace 1 (the traced run collects every pinned counter)")
		return 2
	}
	if w.served && o.experiments == "" {
		fmt.Fprintln(stderr, "dsmbench: the served workload needs -experiments (the worker binary)")
		return 2
	}
	if err := os.MkdirAll(o.buildDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "dsmbench:", err)
		return 1
	}

	prov := provenanceFor(o)
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(stdout, "provenance %s\n", pj)

	res, err := runWorkload(w, o, defaultScale)
	if err != nil {
		fmt.Fprintln(stderr, "dsmbench:", err)
		return 1
	}
	printResult(stdout, res)
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// runWorkload dispatches one workload in the requested mode, bracketed
// by a host calibration.
func runWorkload(w workload, o options, sc scale) (*result, error) {
	w = w.scaled(sc)
	before, err := calibrate()
	if err != nil {
		return nil, err
	}
	var res *result
	switch {
	case w.served:
		res, err = runServed(w, o, sc, o.trace)
	case o.trace:
		res, err = runTraced(w, o, sc)
	default:
		res, err = runInProcess(w, o, sc)
	}
	if err != nil {
		return nil, err
	}
	after, err := calibrate()
	if err != nil {
		return nil, err
	}
	res.note("host calibration: a fixed lu test-size 2P simulation took %.3f ms before the run, %.3f ms after (median of 3)", before, after)
	return res, nil
}

// calibrate times a fixed, seed-independent simulation. The host's
// speed drifts between runs (figures on a shared 2-core VM moved by up
// to 1.6x within minutes, CPU time with them); the calibration printed
// beside a result says how fast the host was at the time.
func calibrate() (float64, error) {
	rc := harness.RunConfig{Workload: "lu", Size: workloads.SizeTest, Procs: 2, IntervalInstructions: 20000, Seed: 1}
	var ts []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		if _, _, err := harness.Simulate(rc); err != nil {
			return 0, fmt.Errorf("calibration: %w", err)
		}
		ts = append(ts, ms(time.Since(t)))
	}
	return median(ts), nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: the final stdout line, plus sample
// counts and notes printed in the table above it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	samples map[string]int
	notes   []string
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]metric{}, samples: map[string]int{}}
}

// set records a metric; n is its sample count (0 for counts and
// single measurements).
func (r *result) set(name string, v float64, unit string, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	if n > 0 {
		r.samples[name] = n
	}
}

// fail records one failed operation and its reason. Every correctness
// mismatch goes through here, so it both fails the run and counts.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	r.Correct = false
	r.notes = append(r.notes, "FAIL "+fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// printResult writes the human-readable table, then the JSON line.
func printResult(w io.Writer, r *result) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	rate := 0.0
	if r.Attempted > 0 {
		rate = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%-32s %14d %s\n", "attempted", r.Attempted, "ops")
	fmt.Fprintf(w, "%-32s %14d %s\n", "failed", r.Failed, "ops")
	fmt.Fprintf(w, "%-32s %14.4f %s\n", "error_rate", rate, "ratio")
	for _, n := range names {
		m := r.Metrics[n]
		line := fmt.Sprintf("%-32s %14.6g %s", n, m.Value, m.Unit)
		if s := r.samples[n]; s > 0 {
			line += fmt.Sprintf(" (n=%d)", s)
		}
		fmt.Fprintln(w, line)
	}
	b, _ := json.Marshal(r)
	fmt.Fprintln(w, string(b))
}

// provenance identifies the host and settings a result came from, so
// figures from different machines are never compared silently.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	Parallel   int     `json:"engine_parallel"`
	Workers    int     `json:"coordinator_workers"`
	WorkerPar  int     `json:"worker_parallel"`
}

func provenanceFor(o options) provenance {
	return provenance{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Parallel: engineParallel,
		Workers: coordinatorWorkers, WorkerPar: workerParallel,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// spansPath is where a traced run dumps its spans.
func spansPath(o options) string {
	return filepath.Join(o.buildDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
}

// setupProbeEnv makes the binary a set-up probe when set to
// "<workload> <seed> <test>": the process compiles the workload's grids,
// prints "ready" and exits. An in-process workload's setup_s is the
// time from starting a probe to its "ready" line — process start
// through grid compile, as a user of the library pays it.
const setupProbeEnv = "DSMBENCH_SETUP_PROBE"

func setupProbe(spec string, stdout, stderr io.Writer) int {
	var (
		name string
		seed uint64
		test bool
	)
	if _, err := fmt.Sscanf(spec, "%s %d %t", &name, &seed, &test); err != nil {
		fmt.Fprintf(stderr, "dsmbench: bad %s %q: %v\n", setupProbeEnv, spec, err)
		return 2
	}
	w, ok := workloadByName(name)
	if !ok {
		fmt.Fprintf(stderr, "dsmbench: unknown workload %q\n", name)
		return 2
	}
	if _, err := w.scaled(scale{test: test}).compile(seed); err != nil {
		fmt.Fprintln(stderr, "dsmbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, "ready")
	return 0
}

// probeSetup starts one set-up probe of this binary and times it to
// its "ready" line.
func probeSetup(w workload, seed uint64, test bool) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s %d %t", setupProbeEnv, w.name, seed, test))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(out).ReadString('\n')
	d := time.Since(t)
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	if rerr != nil || line != "ready\n" {
		return 0, fmt.Errorf("set-up probe printed %q: %v", line, rerr)
	}
	return d.Seconds(), nil
}
