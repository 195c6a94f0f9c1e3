package harness

import (
	"reflect"
	"sync/atomic"
	"testing"

	"dsmphase/internal/core"
	"dsmphase/internal/machine"
	"dsmphase/internal/workloads"
)

// stripWall zeroes the per-cell wall-clock timings, the one CellResult
// field that legitimately differs between identical runs.
func stripWall(rs []CellResult) []CellResult {
	out := append([]CellResult(nil), rs...)
	for i := range out {
		out[i].Wall = 0
	}
	return out
}

// TestRunnerMatchesSerial is the engine's core determinism contract:
// for a fixed seed the parallel runner's Figure 2 and Figure 4 results
// are identical to the serial path at every worker count.
func TestRunnerMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs in -short mode")
	}
	for _, fig := range []struct {
		name  string
		procs []int
		kinds []core.DetectorKind
	}{
		{"figure2", []int{2, 4}, []core.DetectorKind{core.DetectorBBV}},
		{"figure4", []int{4}, []core.DetectorKind{core.DetectorBBV, core.DetectorBBVDDV}},
	} {
		t.Run(fig.name, func(t *testing.T) {
			plan := figureSpec(40_000, []string{"lu", "fmm"}, fig.procs, fig.kinds...).Plan()
			serial := stripWall(RunPlan(plan, Options{Parallel: 1}))
			for _, workers := range []int{2, 3, 8} {
				parallel := stripWall(RunPlan(plan, Options{Parallel: workers}))
				if !reflect.DeepEqual(serial, parallel) {
					t.Errorf("results at %d workers differ from serial", workers)
				}
			}
		})
	}
}

// TestFigureMatchesLegacySerialPath pins the engine-backed Spec to the
// pre-engine behavior: simulate each pair once, sweep each kind.
func TestFigureMatchesLegacySerialPath(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs in -short mode")
	}
	kinds := []core.DetectorKind{core.DetectorBBV, core.DetectorBBVDDV}
	rep := figureSpec(40_000, []string{"lu"}, []int{4}, kinds...).Run(Options{Parallel: 4})
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	want := serialCurves(t, []string{"lu"}, []int{4}, kinds, 40_000)
	if !reflect.DeepEqual(rep.Curves(), want) {
		t.Error("engine-backed Spec differs from the hand-rolled serial path")
	}
}

// TestRunnerIsolatesFailingCell checks per-cell error isolation: a
// diverging cell reports its error without sinking sibling cells.
func TestRunnerIsolatesFailingCell(t *testing.T) {
	rc := RunConfig{
		Workload:             "lu",
		Size:                 workloads.SizeTest,
		Procs:                2,
		IntervalInstructions: 10_000,
		Seed:                 1,
	}
	bad := rc
	bad.Workload = "no-such-workload"
	plan := NewPlan().
		Add(rc, core.DetectorBBV).
		Add(bad, core.DetectorBBV).
		Add(rc, core.DetectorBBVDDV)
	results := RunPlan(plan, Options{Parallel: 3})
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	if results[1].Err == nil {
		t.Error("failing cell reported no error")
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Errorf("sibling cell %d sunk by failing cell: %v", i, results[i].Err)
		}
		if len(results[i].Curve.Curve.Points) == 0 {
			t.Errorf("sibling cell %d has an empty curve", i)
		}
	}
	if err := FirstError(results); err == nil {
		t.Error("FirstError missed the failure")
	}
	if got := len(Curves(results)); got != 2 {
		t.Errorf("Curves kept %d results, want 2", got)
	}
}

// TestRunnerSharesSimulations checks the memoizing record cache: cells
// that agree on the simulation half run the machine exactly once.
func TestRunnerSharesSimulations(t *testing.T) {
	var sims atomic.Int32
	rc := RunConfig{
		Workload:             "lu",
		Size:                 workloads.SizeTest,
		Procs:                2,
		IntervalInstructions: 10_000,
		Seed:                 1,
		Tweak:                func(*machine.Config) { sims.Add(1) },
	}
	plan := NewPlan().
		AddCell(Cell{Run: rc, Kind: core.DetectorBBV, TweakKey: "count"}).
		AddCell(Cell{Run: rc, Kind: core.DetectorBBVDDV, TweakKey: "count"}).
		AddCell(Cell{Run: rc, Kind: core.DetectorWSS, TweakKey: "count"})
	if got := plan.Simulations(); got != 1 {
		t.Errorf("plan predicts %d simulations, want 1", got)
	}
	results := RunPlan(plan, Options{Parallel: 3})
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	if got := sims.Load(); got != 1 {
		t.Errorf("machine simulated %d times, want 1 (record cache)", got)
	}
}

// TestRunnerDoesNotShareUnkeyedTweaks checks the cache's safety valve:
// a non-nil Tweak without a TweakKey must never be deduplicated, since
// the cache cannot compare function effects.
func TestRunnerDoesNotShareUnkeyedTweaks(t *testing.T) {
	var sims atomic.Int32
	rc := RunConfig{
		Workload:             "lu",
		Size:                 workloads.SizeTest,
		Procs:                2,
		IntervalInstructions: 10_000,
		Seed:                 1,
		Tweak:                func(*machine.Config) { sims.Add(1) },
	}
	plan := NewPlan().Add(rc, core.DetectorBBV).Add(rc, core.DetectorBBVDDV)
	if got := plan.Simulations(); got != 2 {
		t.Errorf("plan predicts %d simulations, want 2", got)
	}
	if err := FirstError(RunPlan(plan, Options{Parallel: 2})); err != nil {
		t.Fatal(err)
	}
	if got := sims.Load(); got != 2 {
		t.Errorf("unkeyed tweaked cells shared a simulation (%d runs, want 2)", got)
	}
}

// TestRunnerProgress checks that the progress callback fires once per
// cell with a monotone done counter and stable total.
func TestRunnerProgress(t *testing.T) {
	rc := RunConfig{
		Workload:             "lu",
		Size:                 workloads.SizeTest,
		Procs:                2,
		IntervalInstructions: 10_000,
		Seed:                 1,
	}
	plan := NewPlan().Add(rc, core.DetectorBBV, core.DetectorBBVDDV, core.DetectorWSS)
	var calls []int
	RunPlan(plan, Options{
		Parallel: 2,
		Progress: func(done, total int, r CellResult) {
			if total != plan.Len() {
				t.Errorf("total = %d, want %d", total, plan.Len())
			}
			calls = append(calls, done)
		},
	})
	if len(calls) != plan.Len() {
		t.Fatalf("progress fired %d times, want %d", len(calls), plan.Len())
	}
	for i, d := range calls {
		if d != i+1 {
			t.Errorf("done sequence %v not monotone 1..n", calls)
			break
		}
	}
}

// TestDeriveSeed checks the per-cell seeding helper: stable across
// calls, and distinct across every coordinate.
func TestDeriveSeed(t *testing.T) {
	base := DeriveSeed(1, "lu", 8, 0)
	if base != DeriveSeed(1, "lu", 8, 0) {
		t.Error("DeriveSeed is not deterministic")
	}
	variants := map[string]uint64{
		"base seed": DeriveSeed(2, "lu", 8, 0),
		"workload":  DeriveSeed(1, "fmm", 8, 0),
		"procs":     DeriveSeed(1, "lu", 16, 0),
		"replicate": DeriveSeed(1, "lu", 8, 1),
	}
	for name, v := range variants {
		if v == base {
			t.Errorf("changing %s did not change the derived seed", name)
		}
	}
}

// TestRunnerDefaultWorkerCount checks that Parallel <= 0 still runs
// every cell (the GOMAXPROCS default path).
func TestRunnerDefaultWorkerCount(t *testing.T) {
	rc := RunConfig{
		Workload:             "fmm",
		Size:                 workloads.SizeTest,
		Procs:                2,
		IntervalInstructions: 10_000,
		Seed:                 1,
	}
	results := RunPlan(NewPlan().Add(rc, core.DetectorBBV), Options{})
	if len(results) != 1 || results[0].Err != nil {
		t.Fatalf("default-worker run failed: %+v", results)
	}
	if len(results[0].Curve.Curve.Points) == 0 {
		t.Error("empty curve from default-worker run")
	}
}
