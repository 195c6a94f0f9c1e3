package harness

import (
	"fmt"
	"io"
	"sort"

	"dsmphase/internal/coherence"
	"dsmphase/internal/core"
	"dsmphase/internal/machine"
	"dsmphase/internal/network"
	"dsmphase/internal/workloads"
)

// The named grid registry. The report's experiment grids — figure2,
// figure4, the DDS-design ablation and the adaptive-tuning scorecard —
// used to be private to cmd/experiments, which meant only that binary
// could enumerate them. The coordinator service needs the identical
// Specs on its side of the wire (it validates worker artifacts against
// the merge-side plan fingerprint), so the registry lives here and
// both the CLI and the service build grids through it: same name, same
// parameters, same fingerprint, byte-identical reports.

// GridParams are the Spec parameters every named grid shares — the
// wire-serializable subset of the Spec surface a job submission can
// carry. The zero value resolves to the CLI defaults (small inputs,
// the paper application panel, seed 1, one replicate, directory
// coherence).
type GridParams struct {
	// Size is the workload input scale.
	Size workloads.Size
	// Apps lists applications or a single panel alias; empty resolves
	// to the paper panel.
	Apps []string
	// Protocols sweeps coherence backends; empty keeps the directory
	// default.
	Protocols []coherence.Kind
	// Interval is the total sampling interval (0 = the reduced 300k
	// default).
	Interval uint64
	// Seed is the workload base seed.
	Seed uint64
	// Replicates is the seeds-per-configuration count (<1 treated as 1).
	Replicates int
}

// options compiles the shared parameters into Spec options.
func (gp GridParams) options() []Option {
	return []Option{
		WithApps(gp.Apps...),
		WithSize(gp.Size),
		WithInterval(gp.Interval),
		WithSeed(gp.Seed),
		WithReplicates(gp.Replicates),
		WithProtocols(gp.Protocols...),
	}
}

// NamedGrid is one registry entry: a grid name bound to its compiled
// Spec. Tuning marks grids that run the online adaptive-tuning driver
// and render with the TuningReport encoder family instead of the
// Report one. That plain-vs-tuning decision is made here, by Hook,
// Render and Key, and nowhere else: callers produce plan-ordered
// results (a local run, a shard merge, a served artifact) and hand
// them back to the grid.
type NamedGrid struct {
	Name   string
	Tuning bool
	Spec   *Spec
}

// Hook returns the engine hook the grid's cells need: the validated
// adaptive-tuning driver (Spec.TuningHook) for tuning grids, nil
// otherwise. A shard worker installs it so every cell carries the
// payload the merge side assembles.
func (g NamedGrid) Hook() (CellHook, error) {
	if !g.Tuning {
		return nil, nil
	}
	return g.Spec.TuningHook()
}

// Render assembles plan-ordered results (as RunPlan, Spec.RunShard(0,
// 1) or MergeShards return them) with the grid's report family and
// encodes them in the named format. The format is resolved before any
// assembly, so an unknown name fails fast.
func (g NamedGrid) Render(w io.Writer, format, title string, results []CellResult) error {
	enc, tenc, err := newEncoders(format, title)
	if err != nil {
		return err
	}
	if !g.Tuning {
		return enc.Encode(w, g.Spec.Assemble(results))
	}
	rep, err := g.Spec.AssembleTuning(results)
	if err != nil {
		return err
	}
	return tenc.Encode(w, rep)
}

// Key is the grid's result-cache key: the grid name, the plan's
// fingerprint, and — because MergeShards validates them separately from
// the fingerprint — a hash of a tuning grid's axes. Two grids share a
// key exactly when their reports share bytes.
func (g NamedGrid) Key() string {
	key := g.Name + "-" + g.Spec.Plan().Fingerprint()
	if g.Tuning {
		key += fmt.Sprintf("-t%016x", specTuningAxes(g.Spec).hash())
	}
	return key
}

// gridBuilders maps grid names to their Spec constructors.
var gridBuilders = map[string]struct {
	tuning bool
	build  func(GridParams) *Spec
}{
	// Figure 2: baseline BBV degradation across node counts.
	"figure2": {build: func(gp GridParams) *Spec {
		return NewSpec(append(gp.options(),
			WithProcs(2, 8, 32),
			WithDetectors(core.DetectorBBV),
		)...)
	}},
	// Figure 4: BBV vs BBV+DDV on identical executions.
	"figure4": {build: func(gp GridParams) *Spec {
		return NewSpec(append(gp.options(),
			WithProcs(8, 32),
			WithDetectors(core.DetectorBBV, core.DetectorBBVDDV),
		)...)
	}},
	// The DDS-design ablation: each variant disables one ingredient of
	// the data distribution scalar or swaps the network topology, all
	// TweakKey-cached so every detector sweep of a variant shares one
	// simulation.
	"ablation": {build: func(gp GridParams) *Spec {
		return NewSpec(append(gp.options(),
			WithProcs(8),
			WithDetectors(core.DetectorBBVDDV),
			WithTweak("no-contention", "dds-no-contention",
				func(c *machine.Config) { c.DDS.IgnoreContention = true }),
			WithTweak("uniform-distance", "uniform-distance",
				func(c *machine.Config) { c.UniformDistance = true }),
			WithTweak("mesh-2d", "mesh-2d",
				func(c *machine.Config) { c.Topology = network.KindMesh2D }),
		)...)
	}},
	// The adaptive-tuning grid: detector × predictor × controller closed
	// loop on live simulations, rendered as a win-rate scorecard.
	"tuning": {tuning: true, build: func(gp GridParams) *Spec {
		return NewSpec(append(gp.options(),
			WithDetectors(core.DetectorBBV, core.DetectorBBVDDV),
		)...)
	}},
}

// GridNames returns the registered grid names, sorted.
func GridNames() []string {
	names := make([]string, 0, len(gridBuilders))
	for n := range gridBuilders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// BuildGrid compiles the named grid under the given parameters. The
// same (name, params) pair always yields the same plan fingerprint, on
// every machine — the property the shard merge and the coordinator's
// result cache both key on.
func BuildGrid(name string, gp GridParams) (NamedGrid, error) {
	b, ok := gridBuilders[name]
	if !ok {
		return NamedGrid{}, fmt.Errorf("harness: unknown grid %q (want one of %v)", name, GridNames())
	}
	return NamedGrid{Name: name, Tuning: b.tuning, Spec: b.build(gp)}, nil
}
