// Command covcurve regenerates the paper's CoV-curve figures.
//
//	covcurve -figure 2                # baseline BBV at 2/8/32P, all apps
//	covcurve -figure 4                # BBV vs BBV+DDV at 8/32P, all apps
//	covcurve -apps lu -procs 8,32 -detector both -size small
//	covcurve -figure 4 -replicates 5  # mean ± 95% CI bands across seeds
//	covcurve -figure 4 -format csv    # csv / json / markdown encoders
//	covcurve -figure 4 -size full -interval 3000000   # paper scale
//
// The figures are the registry grids "figure2" and "figure4"
// (harness.BuildGrid), so their axes are fixed there and -procs applies
// only in custom mode (-figure 0). To shard a figure across machines,
// use `experiments -grids figure2|figure4 -shard i/n` and `-merge`.
// Experiments are declared as Spec grids over the sharded engine and
// rendered by a Report encoder. The default text format prints one
// block per curve ("phases cov thBBV thDDS" rows, suitable for
// plotting; the paper's y axis is logarithmic), or per-configuration
// band tables (phases, mean, lo95, hi95, n) when -replicates exceeds 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"dsmphase"
	"dsmphase/internal/plot"
)

func main() {
	var (
		figure     = flag.Int("figure", 0, "paper figure to regenerate: 2 or 4 (0 = custom)")
		apps       = flag.String("apps", "", "comma-separated workloads, or a panel alias: paper, extended")
		procsArg   = flag.String("procs", "", "comma-separated node counts (custom mode only; default 8)")
		sizeArg    = flag.String("size", "small", "input scale: test, small or full")
		interval   = flag.Uint64("interval", 0, "total sampling interval in instructions (split across nodes; 0 = 300k reduced-input default; paper: 3000000)")
		detector   = flag.String("detector", "", "bbv, ddv, dds, wss, both or all (custom mode)")
		seed       = flag.Uint64("seed", 1, "workload base seed")
		replicates = flag.Int("replicates", 1, "seeds per configuration (>1 emits 95% CI bands)")
		format     = flag.String("format", "text", "report encoder: text, csv, json or markdown")
		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0), "engine worker pool size")
		progress   = flag.Bool("progress", false, "report per-cell progress and ETA on stderr")
		compare    = flag.Bool("compare", false, "also print BBV vs BBV+DDV comparisons at 10/25 phases (text format)")
		asciiPlt   = flag.Bool("plot", false, "render ASCII charts (one panel per application, log y; text format, replicates=1)")
	)
	flag.Parse()

	size, err := dsmphase.ParseSize(*sizeArg)
	if err != nil {
		fatal(err)
	}
	procs, err := parseProcs(*procsArg)
	if err != nil {
		fatal(err)
	}
	opts := dsmphase.EngineOptions{Parallel: *parallel}
	if *progress {
		opts.Progress = dsmphase.ProgressPrinter(os.Stderr)
	}

	gp := dsmphase.GridParams{
		Size:       size,
		Apps:       splitList(*apps),
		Interval:   *interval,
		Seed:       *seed,
		Replicates: *replicates,
	}
	var spec *dsmphase.Spec
	var title string
	// strict mode (the figures) aborts on any cell error, so a figure is
	// complete or absent; custom mode isolates failures.
	strict := false
	switch *figure {
	case 2, 4:
		if len(procs) > 0 {
			fatal(fmt.Errorf("-procs applies only in custom mode (-figure 0); figure %d fixes its node counts", *figure))
		}
		g, err := dsmphase.BuildGrid(fmt.Sprintf("figure%d", *figure), gp)
		if err != nil {
			fatal(err)
		}
		spec, strict = g.Spec, true
		title = "Figure 2: baseline BBV CoV curves"
		if *figure == 4 {
			title = "Figure 4: BBV vs BBV+DDV CoV curves"
		}
	case 0:
		title = "Custom CoV curves"
		kinds, err := parseDetector(*detector)
		if err != nil {
			fatal(err)
		}
		if len(procs) == 0 {
			procs = []int{8}
		}
		spec = dsmphase.NewSpec(
			dsmphase.WithApps(gp.Apps...),
			dsmphase.WithSize(size),
			dsmphase.WithInterval(*interval),
			dsmphase.WithSeed(*seed),
			dsmphase.WithReplicates(*replicates),
			dsmphase.WithProcs(procs...),
			dsmphase.WithDetectors(kinds...),
		)
	default:
		fatal(fmt.Errorf("unknown figure %d (the paper has figures 2 and 4)", *figure))
	}

	enc, err := dsmphase.NewEncoder(*format, title)
	if err != nil {
		fatal(err)
	}
	rep := spec.Run(opts)
	if strict {
		if err := rep.FirstError(); err != nil {
			fatal(err)
		}
	} else {
		for _, r := range rep.CellResults() {
			if r.Err != nil {
				fmt.Fprintf(os.Stderr, "covcurve: skipping %s: %v\n", r.Cell.Label(), r.Err)
			}
		}
	}
	if err := enc.Encode(os.Stdout, rep); err != nil {
		fatal(err)
	}
	if *format != "text" {
		return // panels and comparisons are text-format companions
	}
	// rep.Replicates is the clamped count (the Spec treats n < 1 as 1),
	// so -replicates 0 still gets the single-seed companions.
	results := rep.Curves()
	if *asciiPlt && rep.Replicates == 1 {
		printPanels(results)
	}
	// The prose-style comparisons are per-seed; band runs carry their
	// uncertainty in the table itself.
	if (*compare || *figure == 4) && rep.Replicates == 1 {
		printComparisons(results)
	}
}

// printPanels renders one ASCII chart per application, with one series
// per (procs, detector) curve — the paper's panel layout.
func printPanels(results []dsmphase.CurveResult) {
	var apps []string
	seen := map[string]bool{}
	for _, c := range results {
		if !seen[c.App] {
			seen[c.App] = true
			apps = append(apps, c.App)
		}
	}
	for _, app := range apps {
		chart := plot.New(60, 14).LogY().
			Title(fmt.Sprintf("%s CoV curves", app)).
			Labels("# of phases", "identifier CoV of CPI")
		for _, c := range results {
			if c.App != app {
				continue
			}
			pts := make([]plot.Point, 0, len(c.Curve.Points))
			for _, p := range c.Curve.Points {
				pts = append(pts, plot.Point{X: p.Phases, Y: p.CoV})
			}
			chart.Add(fmt.Sprintf("%dP %s", c.Procs, c.Detector), pts)
		}
		fmt.Println(chart.Render())
	}
}

func parseDetector(s string) ([]dsmphase.DetectorKind, error) {
	switch s {
	case "", "both":
		return []dsmphase.DetectorKind{dsmphase.DetectorBBV, dsmphase.DetectorBBVDDV}, nil
	case "bbv":
		return []dsmphase.DetectorKind{dsmphase.DetectorBBV}, nil
	case "ddv":
		return []dsmphase.DetectorKind{dsmphase.DetectorBBVDDV}, nil
	case "dds":
		return []dsmphase.DetectorKind{dsmphase.DetectorDDS}, nil
	case "wss":
		return []dsmphase.DetectorKind{dsmphase.DetectorWSS}, nil
	case "all":
		return []dsmphase.DetectorKind{
			dsmphase.DetectorWSS, dsmphase.DetectorBBV,
			dsmphase.DetectorDDS, dsmphase.DetectorBBVDDV,
		}, nil
	default:
		return nil, fmt.Errorf("unknown detector %q (want bbv, ddv, dds, wss, both or all)", s)
	}
}

// printComparisons prints the prose-style comparisons of the paper
// ("at 25 phases, the DDV reduces CoV from X to Y") for every BBV /
// BBV+DDV pair sharing an (app, procs) configuration.
func printComparisons(results []dsmphase.CurveResult) {
	type key struct {
		app   string
		procs int
	}
	bbv := map[key]dsmphase.CurveResult{}
	ddv := map[key]dsmphase.CurveResult{}
	var order []key
	for _, c := range results {
		k := key{c.App, c.Procs}
		switch c.Detector {
		case dsmphase.DetectorBBV:
			bbv[k] = c
			order = append(order, k)
		case dsmphase.DetectorBBVDDV:
			ddv[k] = c
		}
	}
	fmt.Println("== BBV vs BBV+DDV comparisons ==")
	fmt.Printf("%-10s %-6s %-14s %-14s %-14s %-14s\n",
		"app", "procs", "CoV@10(BBV)", "CoV@10(DDV)", "CoV@25(BBV)", "CoV@25(DDV)")
	for _, k := range order {
		b, okB := bbv[k]
		d, okD := ddv[k]
		if !okB || !okD {
			continue
		}
		b10, d10 := dsmphase.CompareAtPhases(b, d, 10)
		b25, d25 := dsmphase.CompareAtPhases(b, d, 25)
		fmt.Printf("%-10s %-6d %-14.4f %-14.4f %-14.4f %-14.4f\n", k.app, k.procs, b10, d10, b25, d25)
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func parseProcs(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad processor count %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "covcurve:", err)
	os.Exit(1)
}
