package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"dsmphase/internal/harness"
)

// experimentsBin is the worker binary the served smoke's coordinator
// execs, built once for the package.
var experimentsBin string

func TestMain(m *testing.M) {
	if spec := os.Getenv(setupProbeEnv); spec != "" {
		os.Exit(setupProbe(spec, os.Stdout, os.Stderr))
	}
	dir, err := os.MkdirTemp("", "dsmbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	experimentsBin = filepath.Join(dir, "experiments")
	cmd := exec.Command("go", "build", "-o", experimentsBin, "dsmphase/cmd/experiments")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building the worker binary:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// testScale shrinks every workload to seconds and skips the pins (they
// hold the full-size reports).
var testScale = scale{test: true, setupProbes: 2, minIters: 1, hitBatch: 2, setups: 1, misses: 2, hits: 3}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkMetrics reads the metric lists BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []declared) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b.EndToEnd, b.PerLayer
}

// TestWorkloadSmoke runs every workload at test size, untraced and
// traced, and requires every declared metric to print with its unit
// in a final line the benchmark contract accepts.
func TestWorkloadSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, w := range workloadDefs {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				o := options{workload: w.name, seed: 3, seconds: 0.1, trace: traced,
					buildDir: t.TempDir(), experiments: experimentsBin}
				res, err := runWorkload(w, o, testScale)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				printResult(&out, res)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("run not clean:\n%s", out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not JSON: %v", err)
				}
				if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
					t.Fatalf("last line keys: %s", lines[len(lines)-1])
				}
				var metrics map[string]metric
				if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
					t.Fatal(err)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(metrics), len(want))
				}
				for _, d := range want {
					m, ok := metrics[d.Name]
					if !ok {
						t.Errorf("metric %s missing", d.Name)
						continue
					}
					if m.Unit != d.Unit {
						t.Errorf("metric %s unit %q, declared %q", d.Name, m.Unit, d.Unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
			})
		}
	}
}

// TestTracedMatchesUntraced: the traced layer-by-layer decomposition
// renders the same bytes, and counts the same simulated work, as the
// engine.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, w := range workloadDefs {
		if w.served {
			continue
		}
		w = w.scaled(testScale)
		grids, err := w.compile(5)
		if err != nil {
			t.Fatal(err)
		}
		l, tr := newLayers(), newTracer()
		var engine [][]harness.CellResult
		for _, g := range grids {
			traced, _, err := l.traceGrid(tr, g)
			if err != nil {
				t.Fatal(err)
			}
			results := g.run(engineParallel)
			direct, err := g.render(results)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(traced, direct) {
				t.Errorf("%s/%s: traced report differs from the engine's", w.name, g.Name)
			}
			engine = append(engine, results)
		}
		if l.instrs == 0 || l.coh.Loads == 0 || l.runNS == 0 {
			t.Errorf("%s: traced run recorded no machine work", w.name)
		}
		// Untraced runs pin the summary counters the traced run counts.
		traced := l.counters()
		for k, v := range summaryCounters(engine) {
			if traced[k] != v {
				t.Errorf("%s: %s = %v untraced, %v traced", w.name, k, v, traced[k])
			}
		}
	}
}

// TestPinsTrip: a flipped report byte or a moved counter fails the
// digest gate; the genuine bytes pass it.
func TestPinsTrip(t *testing.T) {
	w, _ := workloadByName("ivy-sharing")
	w = w.scaled(testScale)
	grids, err := w.compile(1)
	if err != nil {
		t.Fatal(err)
	}
	results := grids[0].run(engineParallel)
	report, err := grids[0].render(results)
	if err != nil {
		t.Fatal(err)
	}
	counters := summaryCounters([][]harness.CellResult{results})
	ps := &pinSet{Seed: 1, Workloads: map[string]workloadPins{w.name: {
		Reports:  map[string]string{grids[0].Name: digest(report)},
		Counters: counters,
	}}}

	check := func(b []byte, c map[string]float64) *result {
		res := newResult()
		checkPins(res, ps, w.name, 1, grids, [][]byte{b}, c)
		return res
	}
	if res := check(report, counters); !res.Correct {
		t.Fatalf("genuine report fails its pins: %v", res.notes)
	}
	flipped := append([]byte(nil), report...)
	flipped[len(flipped)/2] ^= 1
	if res := check(flipped, counters); res.Correct || res.Failed != 1 {
		t.Errorf("flipped byte: correct=%v failed=%d, want a single failure", res.Correct, res.Failed)
	}
	moved := map[string]float64{}
	for k, v := range counters {
		moved[k] = v
	}
	moved["machine.instrs"]++
	if res := check(report, moved); res.Correct {
		t.Error("a moved counter passed the pins")
	}
	res := newResult()
	checkPins(res, ps, w.name, 2, grids, [][]byte{flipped}, counters)
	if !res.Correct {
		t.Error("pins applied at an unpinned seed")
	}
}

// TestPinsCoverInProcessWorkloads: the committed pins hold every grid
// report and every counter of each in-process workload.
func TestPinsCoverInProcessWorkloads(t *testing.T) {
	if embeddedPins.Seed != 1 {
		t.Fatalf("pins seed %d, want the default seed 1", embeddedPins.Seed)
	}
	want := newLayers().counters()
	for _, w := range workloadDefs {
		if w.served {
			continue
		}
		wp, ok := embeddedPins.Workloads[w.name]
		if !ok {
			t.Errorf("no pins for %s", w.name)
			continue
		}
		for _, g := range w.grids {
			if len(wp.Reports[g]) != 64 {
				t.Errorf("%s: no report digest for grid %s", w.name, g)
			}
		}
		for k := range want {
			if _, ok := wp.Counters[k]; !ok {
				t.Errorf("%s: counter %s not pinned", w.name, k)
			}
		}
	}
}

// TestBadFlagsFail: usage errors exit non-zero without a result line.
func TestBadFlagsFail(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "paper-panel", "-trace", "2"},
		{"-workload", "served"}, // no worker binary
	} {
		var out bytes.Buffer
		if code := run(args, &out, &bytes.Buffer{}); code == 0 || strings.Contains(out.String(), `"metrics"`) {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
