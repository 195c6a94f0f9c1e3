package harness

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"

	"dsmphase/internal/core"
	"dsmphase/internal/machine"
	"dsmphase/internal/workloads"
)

// quickSpecOpts are the shared fast-run options for Spec tests.
func quickSpecOpts() []Option {
	return []Option{
		WithApps("lu"),
		WithProcs(2),
		WithSize(workloads.SizeTest),
		WithInterval(20_000),
		WithSeed(1),
	}
}

// stripReportWalls zeroes every wall-clock field of a report so
// determinism comparisons see only the reproducible outcome.
func stripReportWalls(r *Report) *Report {
	out := *r
	out.Wall = 0
	out.Configs = append([]ConfigResult(nil), r.Configs...)
	for i := range out.Configs {
		out.Configs[i].Wall = 0
		out.Configs[i].Results = stripWall(out.Configs[i].Results)
	}
	return &out
}

// TestSpecGridEnumeration checks the grid arithmetic: configurations
// multiply out variants × apps × procs × detectors, cells add the
// replicate axis, and the record cache collapses detectors onto shared
// simulations per (variant, app, procs, replicate) point.
func TestSpecGridEnumeration(t *testing.T) {
	s := NewSpec(
		WithApps("lu", "fmm"),
		WithProcs(2, 4),
		WithDetectors(core.DetectorBBV, core.DetectorBBVDDV),
		WithReplicates(3),
		WithTweak("uniform-distance", "uniformD", func(c *machine.Config) { c.UniformDistance = true }),
	)
	wantConfigs := 2 * 2 * 2 * 2 // variants × apps × procs × kinds
	if got := len(s.Configurations()); got != wantConfigs {
		t.Errorf("configurations = %d, want %d", got, wantConfigs)
	}
	plan := s.Plan()
	if got, want := plan.Len(), wantConfigs*3; got != want {
		t.Errorf("cells = %d, want %d", got, want)
	}
	// Detectors share simulations; variants, replicates and grid points
	// do not: 2 variants × 2 apps × 2 procs × 3 replicates.
	if got, want := plan.Simulations(), 2*2*2*3; got != want {
		t.Errorf("simulations = %d, want %d (detector sweeps must share)", got, want)
	}
}

// TestSpecReplicateSeeds checks the seeding discipline: replicate 0
// runs the base seed (legacy identity), later replicates derive
// distinct order-free seeds.
func TestSpecReplicateSeeds(t *testing.T) {
	s := NewSpec(append(quickSpecOpts(), WithReplicates(3))...)
	cells := s.Plan().Cells()
	if cells[0].Run.Seed != 1 {
		t.Errorf("replicate 0 seed = %d, want the base seed", cells[0].Run.Seed)
	}
	seen := map[uint64]bool{}
	for _, c := range cells {
		if seen[c.Run.Seed] {
			t.Errorf("duplicate replicate seed %d", c.Run.Seed)
		}
		seen[c.Run.Seed] = true
	}
	if want := DeriveSeed(1, "lu", 2, 2); cells[2].Run.Seed != want {
		t.Errorf("replicate 2 seed = %d, want DeriveSeed's %d", cells[2].Run.Seed, want)
	}
}

// TestSpecReportParallelMatchesSerial is the acceptance check for the
// redesigned surface: a multi-replicate report is identical (timings
// aside) at every worker count.
func TestSpecReportParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated figure runs")
	}
	s := NewSpec(append(quickSpecOpts(),
		WithDetectors(core.DetectorBBV, core.DetectorBBVDDV),
		WithReplicates(3),
	)...)
	serial := stripReportWalls(s.Run(Options{Parallel: 1}))
	for _, workers := range []int{2, 4, 8} {
		parallel := stripReportWalls(s.Run(Options{Parallel: workers}))
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("report at %d workers differs from serial", workers)
		}
	}
}

// TestSpecBandPermutationInvariance checks that a configuration's band
// does not depend on where the configuration sits in the grid: seeds
// hash coordinates (DeriveSeed), not enumeration indices.
func TestSpecBandPermutationInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated figure runs")
	}
	build := func(apps ...string) *Spec {
		return NewSpec(
			WithApps(apps...),
			WithProcs(2),
			WithSize(workloads.SizeTest),
			WithInterval(20_000),
			WithSeed(1),
			WithReplicates(2),
		)
	}
	find := func(r *Report, app string) *ConfigResult {
		for i := range r.Configs {
			if r.Configs[i].Config.App == app {
				return &r.Configs[i]
			}
		}
		t.Fatalf("config for %s missing", app)
		return nil
	}
	a := build("lu", "fmm").Run(Options{Parallel: 4})
	b := build("fmm", "lu").Run(Options{Parallel: 4})
	for _, app := range []string{"lu", "fmm"} {
		ca, cb := find(a, app), find(b, app)
		if !reflect.DeepEqual(ca.Band, cb.Band) {
			t.Errorf("%s band depends on enumeration order", app)
		}
		if !reflect.DeepEqual(ca.Curves, cb.Curves) {
			t.Errorf("%s curves depend on enumeration order", app)
		}
	}
}

// TestSpecBandWidth checks the aggregation itself: a multi-replicate
// band records every finite replicate at its points, bounds the mean
// within [Lo, Hi], widens somewhere for a seed-sensitive workload
// (fmm's streams vary with the seed; lu's do not), and a one-replicate
// band is degenerate (zero width).
func TestSpecBandWidth(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated figure runs")
	}
	multi := NewSpec(
		WithApps("fmm"),
		WithProcs(2),
		WithSize(workloads.SizeTest),
		WithInterval(20_000),
		WithSeed(1),
		WithReplicates(3),
	).Run(Options{Parallel: 4})
	band := multi.Configs[0].Band
	if len(band.Points) == 0 {
		t.Fatal("empty band from a healthy run")
	}
	sawFull, sawWidth := false, false
	for _, p := range band.Points {
		if p.Lo > p.Mean || p.Mean > p.Hi {
			t.Errorf("band point %+v not ordered", p)
		}
		if p.N > 3 || p.N < 1 {
			t.Errorf("band point N = %d out of range", p.N)
		}
		if p.N == 3 {
			sawFull = true
		}
		if p.Hi > p.Lo {
			sawWidth = true
		}
	}
	if !sawFull {
		t.Error("no band point saw all three replicates")
	}
	if !sawWidth {
		t.Error("every band point has zero width; replicate seeds had no effect")
	}
	single := NewSpec(quickSpecOpts()...).Run(Options{Parallel: 1})
	for _, p := range single.Configs[0].Band.Points {
		if p.Lo != p.Mean || p.Hi != p.Mean || p.N != 1 {
			t.Errorf("one-replicate band not degenerate: %+v", p)
		}
	}
}

// TestSpecLegacyByteIdentity pins the one-replicate contract: a Spec
// rendered by the text encoder is byte-identical to the hand-rolled
// serial figure path (simulate each pair once, sweep each kind, print
// with WriteFigure).
func TestSpecLegacyByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs")
	}
	for _, tc := range []struct {
		name  string
		procs []int
		kinds []core.DetectorKind
	}{
		{"figure2", []int{2, 4}, []core.DetectorKind{core.DetectorBBV}},
		{"figure4", []int{4}, []core.DetectorKind{core.DetectorBBV, core.DetectorBBVDDV}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want bytes.Buffer
			curves := serialCurves(t, []string{"lu"}, tc.procs, tc.kinds, 20_000)
			if err := WriteFigure(&want, tc.name, curves); err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			rep := figureSpec(20_000, []string{"lu"}, tc.procs, tc.kinds...).Run(Options{Parallel: 4})
			if err := (TextEncoder{Title: tc.name}).Encode(&got, rep); err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Errorf("replicates=1 Spec text output differs from the serial figure table:\n--- serial ---\n%s\n--- spec ---\n%s",
					want.String(), got.String())
			}
		})
	}
}

// TestSpecAblationGrid runs a named ablation grid end to end: the
// contention and distance tweaks share simulations across detector
// sweeps via TweakKey, and the markdown scorecard reports every
// variant against the baseline.
func TestSpecAblationGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation grid runs")
	}
	s := NewSpec(
		WithApps("lu"),
		WithProcs(2),
		WithDetectors(core.DetectorBBV, core.DetectorBBVDDV),
		WithSize(workloads.SizeTest),
		WithInterval(20_000),
		WithSeed(1),
		WithTweak("no-contention", "dds-no-contention",
			func(c *machine.Config) { c.DDS.IgnoreContention = true }),
		WithTweak("uniform-distance", "uniformD",
			func(c *machine.Config) { c.UniformDistance = true }),
	)
	// 3 variants × 1 app × 1 procs, detectors shared per variant.
	if got, want := s.Plan().Simulations(), 3; got != want {
		t.Fatalf("simulations = %d, want %d (TweakKey must share across detectors)", got, want)
	}
	rep := s.Run(Options{Parallel: 4})
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := (MarkdownEncoder{Title: "Contention & distance ablation"}).Encode(&buf, rep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"## Contention & distance ablation",
		"| baseline | lu | 2 | BBV+DDV |",
		"| no-contention | lu | 2 | BBV+DDV |",
		"| uniform-distance | lu | 2 | BBV+DDV |",
		"| variant | app | procs | detector |",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("scorecard missing %q:\n%s", want, out)
		}
	}
}

// TestSpecIsolatesFailingConfig checks the per-configuration error
// path: an unknown workload fails its own configuration and leaves the
// sibling configurations with full bands.
func TestSpecIsolatesFailingConfig(t *testing.T) {
	rep := NewSpec(
		WithApps("lu", "no-such-workload"),
		WithProcs(2),
		WithSize(workloads.SizeTest),
		WithInterval(10_000),
		WithReplicates(2),
	).Run(Options{Parallel: 4})
	if rep.FirstError() == nil {
		t.Fatal("missing error from unknown workload")
	}
	var good, bad *ConfigResult
	for i := range rep.Configs {
		switch rep.Configs[i].Config.App {
		case "lu":
			good = &rep.Configs[i]
		case "no-such-workload":
			bad = &rep.Configs[i]
		}
	}
	if bad.Err() == nil || len(bad.Curves) != 0 || len(bad.Band.Points) != 0 {
		t.Errorf("failing config not fully failed: %+v", bad)
	}
	if good.Err() != nil || len(good.Curves) != 2 || len(good.Band.Points) == 0 {
		t.Errorf("sibling config damaged by failure: err=%v curves=%d", good.Err(), len(good.Curves))
	}
}

// TestSpecWithoutBaseline checks that an all-variant grid drops the
// implicit baseline row.
func TestSpecWithoutBaseline(t *testing.T) {
	s := NewSpec(
		WithApps("lu"),
		WithTweak("uniform-distance", "uniformD", func(c *machine.Config) { c.UniformDistance = true }),
		WithoutBaseline(),
	)
	cfgs := s.Configurations()
	if len(cfgs) != 1 || cfgs[0].Variant.Name != "uniform-distance" {
		t.Errorf("WithoutBaseline kept %+v", cfgs)
	}
}

// TestResolveApps checks the panel aliases used by -apps flags.
func TestResolveApps(t *testing.T) {
	paper := []string{"fmm", "lu", "equake", "art"}
	if got := ResolveApps(nil); !reflect.DeepEqual(got, paper) {
		t.Errorf("empty resolves to %v, want the paper panel", got)
	}
	if got := ResolveApps([]string{"extended"}); !reflect.DeepEqual(got,
		[]string{"fmm", "lu", "equake", "art", "ocean", "radix", "barnes", "water"}) {
		t.Errorf("extended panel = %v", got)
	}
	explicit := []string{"lu", "ocean"}
	if got := ResolveApps(explicit); !reflect.DeepEqual(got, explicit) {
		t.Errorf("explicit list rewritten to %v", got)
	}
	// Aliases expand inside mixed lists, order-preserving and deduped.
	if got := ResolveApps([]string{"adversarial", "lu"}); !reflect.DeepEqual(got,
		[]string{"fsstencil", "pagethrash", "lu"}) {
		t.Errorf("mixed alias list = %v", got)
	}
	if got := ResolveApps([]string{"lu", "paper"}); !reflect.DeepEqual(got,
		[]string{"lu", "fmm", "equake", "art"}) {
		t.Errorf("alias overlapping an explicit app = %v", got)
	}
	if _, ok := AppsPanel("galactic"); ok {
		t.Error("unknown panel accepted")
	}
}

// TestExtendedPanelCoVBehavior validates the kernels the extended
// panel exposes beyond the paper four: each must produce finite,
// phase-sensitive CoV curves (more than one operating point, finite
// CoV everywhere, and some detected CPI variation), not just register.
func TestExtendedPanelCoVBehavior(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs")
	}
	for _, app := range []string{"ocean", "radix", "barnes", "water"} {
		app := app
		t.Run(app, func(t *testing.T) {
			rc := RunConfig{
				Workload:             app,
				Size:                 workloads.SizeTest,
				Procs:                4,
				IntervalInstructions: 10_000,
				Seed:                 1,
			}
			c := runCurve(t, rc, core.DetectorBBV)
			if len(c.Curve.Points) < 2 {
				t.Fatalf("curve has %d points; need a real threshold trade-off", len(c.Curve.Points))
			}
			var maxCoV float64
			for _, p := range c.Curve.Points {
				if math.IsNaN(p.CoV) || math.IsInf(p.CoV, 0) || p.CoV < 0 {
					t.Fatalf("non-finite CoV point %+v", p)
				}
				if math.IsNaN(p.Phases) || p.Phases < 1 {
					t.Fatalf("degenerate phase count %+v", p)
				}
				if p.CoV > maxCoV {
					maxCoV = p.CoV
				}
			}
			if maxCoV == 0 {
				t.Error("flat CoV curve: the workload produced no phase-visible CPI variation")
			}
			// Phase sensitivity: coarse thresholds must trade CoV for
			// fewer phases — the curve spans more than one phase count.
			first, last := c.Curve.Points[0], c.Curve.Points[len(c.Curve.Points)-1]
			if first.Phases == last.Phases {
				t.Errorf("curve spans a single phase count (%v)", first.Phases)
			}
		})
	}
}

// TestETAEstimator checks the progress ETA arithmetic.
func TestETAEstimator(t *testing.T) {
	e := &ETA{start: time.Now().Add(-10 * time.Second)}
	elapsed, remaining := e.Observe(2, 6)
	if elapsed < 10*time.Second {
		t.Errorf("elapsed = %v, want ≥ 10s", elapsed)
	}
	// 2 cells took ~10s; 4 remain → ~20s.
	if remaining < 19*time.Second || remaining > 21*time.Second {
		t.Errorf("remaining = %v, want ~20s", remaining)
	}
	if _, rem := e.Observe(6, 6); rem != 0 {
		t.Errorf("completed run estimates %v remaining", rem)
	}
	if _, rem := e.Observe(0, 6); rem != 0 {
		t.Errorf("zero-progress estimate %v, want 0", rem)
	}
}
