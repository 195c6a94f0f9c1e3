package harness

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"dsmphase/internal/core"
	"dsmphase/internal/stats"
	"dsmphase/internal/workloads"
)

// quickRun returns a small but non-trivial simulation for sweep tests.
func quickRun(t *testing.T, app string, procs int) RunConfig {
	t.Helper()
	return RunConfig{
		Workload:             app,
		Size:                 workloads.SizeTest,
		Procs:                procs,
		IntervalInstructions: 10_000,
		Seed:                 1,
	}
}

// runCurve simulates one configuration and sweeps one detector over it.
func runCurve(t testing.TB, rc RunConfig, kind core.DetectorKind) CurveResult {
	t.Helper()
	m, sum, err := Simulate(rc)
	if err != nil {
		t.Fatal(err)
	}
	return SweepMachine(m, rc, kind, sum)
}

// serialCurves is the hand-rolled serial reference for a figure grid:
// for each (app, procs) pair, in the Spec's app-major order, simulate
// once at the test size and seed 1, then sweep every kind over that
// identical execution.
func serialCurves(t testing.TB, apps []string, procs []int, kinds []core.DetectorKind, interval uint64) []CurveResult {
	t.Helper()
	var out []CurveResult
	for _, app := range apps {
		for _, n := range procs {
			rc := RunConfig{
				Workload:             app,
				Size:                 workloads.SizeTest,
				Procs:                n,
				IntervalInstructions: interval / uint64(n),
				Seed:                 1,
			}
			m, sum, err := Simulate(rc)
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range kinds {
				out = append(out, SweepMachine(m, rc, kind, sum))
			}
		}
	}
	return out
}

// figureSpec is the Spec form of serialCurves' grid.
func figureSpec(interval uint64, apps []string, procs []int, kinds ...core.DetectorKind) *Spec {
	return NewSpec(
		WithApps(apps...),
		WithProcs(procs...),
		WithDetectors(kinds...),
		WithSize(workloads.SizeTest),
		WithInterval(interval),
		WithSeed(1),
	)
}

func TestSimulateUnknownWorkload(t *testing.T) {
	if _, _, err := Simulate(RunConfig{Workload: "nope", Procs: 2}); err == nil {
		t.Error("expected error for unknown workload")
	}
}

func TestSimulateProducesRecords(t *testing.T) {
	m, sum, err := Simulate(quickRun(t, "lu", 2))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Intervals == 0 {
		t.Fatal("no intervals")
	}
	byProc := m.RecordsByProc()
	if len(byProc) != 2 {
		t.Fatalf("records for %d procs", len(byProc))
	}
}

func TestSweepProducesPointPerThresholdSetting(t *testing.T) {
	m, _, err := Simulate(quickRun(t, "lu", 2))
	if err != nil {
		t.Fatal(err)
	}
	sc := SweepConfig{
		Kind:          core.DetectorBBV,
		TableSize:     32,
		BBVThresholds: []float64{0.01, 0.1, 1.0},
	}
	pts := Sweep(m.RecordsByProc(), sc)
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3", len(pts))
	}
	// Larger thresholds cannot yield more phases.
	if pts[0].Phases < pts[2].Phases {
		t.Errorf("phases should not increase with threshold: %v vs %v", pts[0].Phases, pts[2].Phases)
	}
	for _, p := range pts {
		if p.Phases < 1 {
			t.Errorf("phases %v < 1", p.Phases)
		}
		if p.CoV < 0 {
			t.Errorf("negative CoV %v", p.CoV)
		}
	}
}

func TestSweepHugeThresholdSinglePhase(t *testing.T) {
	m, _, err := Simulate(quickRun(t, "equake", 2))
	if err != nil {
		t.Fatal(err)
	}
	pts := Sweep(m.RecordsByProc(), SweepConfig{
		Kind:          core.DetectorBBV,
		BBVThresholds: []float64{2.0},
	})
	if len(pts) != 1 || pts[0].Phases != 1 {
		t.Errorf("threshold 2.0 must put everything in one phase: %+v", pts)
	}
}

func TestSweepZeroThresholdManyPhasesLowCoV(t *testing.T) {
	m, _, err := Simulate(quickRun(t, "fmm", 2))
	if err != nil {
		t.Fatal(err)
	}
	lo := Sweep(m.RecordsByProc(), SweepConfig{Kind: core.DetectorBBV, BBVThresholds: []float64{1e-9}})
	hi := Sweep(m.RecordsByProc(), SweepConfig{Kind: core.DetectorBBV, BBVThresholds: []float64{2}})
	if lo[0].Phases <= hi[0].Phases {
		t.Errorf("tiny threshold should yield more phases: %v vs %v", lo[0].Phases, hi[0].Phases)
	}
	if lo[0].CoV > hi[0].CoV {
		t.Errorf("tiny threshold should yield lower CoV: %v vs %v", lo[0].CoV, hi[0].CoV)
	}
}

func TestDefaultSweepShapes(t *testing.T) {
	bbv := DefaultSweep(core.DetectorBBV, 6)
	if len(bbv.BBVThresholds) != 200 {
		t.Errorf("BBV sweep has %d thresholds, want the paper's 200", len(bbv.BBVThresholds))
	}
	ddv := DefaultSweep(core.DetectorBBVDDV, 6)
	if len(ddv.BBVThresholds)*len(ddv.DDSThresholds) < 200 {
		t.Errorf("DDV grid too small: %d×%d", len(ddv.BBVThresholds), len(ddv.DDSThresholds))
	}
	dds := DefaultSweep(core.DetectorDDS, 6)
	if len(dds.DDSThresholds) != 200 {
		t.Errorf("DDS sweep has %d thresholds", len(dds.DDSThresholds))
	}
}

func TestSimulateSweepEndToEnd(t *testing.T) {
	c := runCurve(t, quickRun(t, "art", 2), core.DetectorBBV)
	if len(c.Curve.Points) == 0 {
		t.Fatal("empty curve")
	}
	if c.Label() != "art 2P BBV" {
		t.Errorf("label = %q", c.Label())
	}
	// Envelope is monotone: increasing phases, decreasing CoV.
	pts := c.Curve.Points
	for i := 1; i < len(pts); i++ {
		if pts[i].Phases <= pts[i-1].Phases || pts[i].CoV >= pts[i-1].CoV {
			t.Errorf("envelope not monotone at %d: %+v -> %+v", i, pts[i-1], pts[i])
		}
	}
}

func TestSweepDeterministic(t *testing.T) {
	run := func() []stats.CurvePoint {
		m, _, err := Simulate(quickRun(t, "lu", 4))
		if err != nil {
			t.Fatal(err)
		}
		return Sweep(m.RecordsByProc(), SweepConfig{
			Kind:          core.DetectorBBVDDV,
			BBVThresholds: []float64{0.05, 0.5},
			DDSThresholds: []float64{0.01, 0.1},
		})
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Error("sweep must be deterministic")
	}
}

func TestWriteCurveAndFigure(t *testing.T) {
	c := runCurve(t, quickRun(t, "lu", 2), core.DetectorBBV)
	var buf bytes.Buffer
	if err := WriteFigure(&buf, "Fig test", []CurveResult{c}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig test", "lu 2P BBV", "phases", "cov"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCompareHelpers(t *testing.T) {
	bbv := CurveResult{Curve: stats.Curve{Points: []stats.CurvePoint{
		{Phases: 5, CoV: 0.4}, {Phases: 25, CoV: 0.29},
	}}}
	ddv := CurveResult{Curve: stats.Curve{Points: []stats.CurvePoint{
		{Phases: 5, CoV: 0.2}, {Phases: 11, CoV: 0.15},
	}}}
	b, d := CompareAtPhases(bbv, ddv, 25)
	if b != 0.29 || d != 0.15 {
		t.Errorf("CompareAtPhases = (%v, %v)", b, d)
	}
	bp, dp := CompareAtCoV(bbv, ddv, 0.29)
	if bp != 25 || dp != 5 {
		t.Errorf("CompareAtCoV = (%v, %v)", bp, dp)
	}
}

func TestFigure2SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("figure run in -short mode")
	}
	g, err := BuildGrid("figure2", GridParams{
		Apps:     []string{"lu"},
		Size:     workloads.SizeTest,
		Interval: 40_000,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := g.Spec.Run(Options{})
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	res := rep.Curves()
	if len(res) != 3 {
		t.Fatalf("got %d curves, want 3", len(res))
	}
	for i, procs := range []int{2, 8, 32} {
		if res[i].Procs != procs {
			t.Errorf("curve %d at %dP, want the paper's %dP", i, res[i].Procs, procs)
		}
	}
	for _, c := range res {
		if c.Detector != core.DetectorBBV {
			t.Errorf("unexpected detector %v", c.Detector)
		}
		if len(c.Curve.Points) == 0 {
			t.Errorf("%s: empty curve", c.Label())
		}
	}
}

func TestFigure4DDVNotWorse(t *testing.T) {
	if testing.Short() {
		t.Skip("figure run in -short mode")
	}
	rep := figureSpec(40_000, []string{"lu"}, []int{4}, core.DetectorBBV, core.DetectorBBVDDV).Run(Options{})
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	res := rep.Curves()
	if len(res) != 2 {
		t.Fatalf("got %d curves, want 2 (BBV and BBV+DDV)", len(res))
	}
	bbv, ddv := res[0], res[1]
	if bbv.Detector != core.DetectorBBV || ddv.Detector != core.DetectorBBVDDV {
		t.Fatalf("unexpected detector order: %v, %v", bbv.Detector, ddv.Detector)
	}
	// The two-threshold detector has strictly more freedom, so its best
	// CoV at a generous phase budget must not be worse.
	budget := 16.0
	b, d := CompareAtPhases(bbv, ddv, budget)
	if !math.IsInf(b, 1) && d > b*1.05 {
		t.Errorf("BBV+DDV (%v) worse than BBV (%v) at %v phases", d, b, budget)
	}
}
