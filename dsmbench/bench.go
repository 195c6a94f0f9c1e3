package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dsmphase/internal/coherence"
	"dsmphase/internal/harness"
	"dsmphase/internal/workloads"
)

// The thread budget: every figure is taken on the same two-way load,
// so results from hosts with more cores stay comparable.
const (
	engineParallel     = 2 // in-process engine worker pool
	coordinatorWorkers = 2 // served: local worker processes
	workerParallel     = 1 // served: -parallel of each worker
)

// workload is one named benchmark input: the registry grids it renders
// and the parameters they share. The seed is filled in per run.
type workload struct {
	name   string
	grids  []string
	params harness.GridParams
	served bool
	// testApps replaces the application panel when a test shrinks the
	// workload to seconds.
	testApps []string
}

// The workloads, each chosen to stress a different layer; README.md
// records the measured dominant-layer share of each.
var workloadDefs = []workload{
	{
		// The paper panel through the default figures: machine.Run
		// dominates, the 32P cells set the tail.
		name:     "paper-panel",
		grids:    []string{"figure2", "figure4"},
		params:   harness.GridParams{Size: workloads.SizeTest},
		testApps: []string{"lu"},
	},
	{
		// Short intervals multiply recorded signatures per simulated
		// instruction, so the threshold sweep dominates; also covers the
		// tuning hook and replicate CI bands.
		name:     "sweep-dense",
		grids:    []string{"figure4", "tuning"},
		params:   harness.GridParams{Size: workloads.SizeTest, Apps: []string{"lu", "fmm"}, Interval: 20000, Replicates: 2},
		testApps: []string{"lu"},
	},
	{
		// The machine under page-granular IVY coherence and
		// write-sharing / page-thrash traffic instead of the paper
		// panel's directory reads.
		name:  "ivy-sharing",
		grids: []string{"figure2"},
		params: harness.GridParams{
			Size:      workloads.SizeTest,
			Apps:      []string{"extended", "adversarial"},
			Protocols: []coherence.Kind{coherence.KindIVY},
		},
		testApps: []string{"lu", "pagethrash"},
	},
	{
		// The coordinator service: process exec, shard artifacts,
		// checksums, merge and the result cache.
		name:   "served",
		grids:  []string{"figure2"},
		params: harness.GridParams{Size: workloads.SizeTest, Apps: []string{"lu", "fmm"}, Interval: 40000},
		served: true,
	},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloadDefs {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scale holds the run-size knobs; tests shrink them to seconds.
type scale struct {
	test        bool    // shrink in-process grids to test size
	setupProbes int     // in-process: set-up probe processes timed for setup_s
	minIters    int     // in-process: minimum timed report iterations
	hitBatch    int     // in-process: minimum cache-hit analogues after each iteration
	setups      int     // served: coordinator set-ups timed for setup_s
	misses      int     // served: minimum cache-miss jobs
	hits        int     // served: minimum cache-hit resubmissions
	missShare   float64 // served: share of -seconds spent on cache misses
	hitShare    float64 // in-process: cache-hit analogues take this share of each iteration's report time
	warmup      int     // in-process: untimed re-deliveries before the timed ones
	pins        *pinSet // nil skips the pinned-digest check
}

var defaultScale = scale{setupProbes: 31, minIters: 5, hitBatch: 10, setups: 7, misses: 20, hits: 1000, missShare: 0.55, hitShare: 0.15, warmup: 20, pins: embeddedPins}

// scaled applies a test scale's shrinking.
func (w workload) scaled(sc scale) workload {
	if !sc.test || w.served {
		return w
	}
	w.params.Size = workloads.SizeTest
	w.params.Interval = 40000
	w.params.Replicates = 1
	w.params.Apps = w.testApps
	return w
}

// compiled is one grid ready to run: its plan, engine hook and encoder.
type compiled struct {
	harness.NamedGrid
	plan *harness.Plan
	hook harness.CellHook
	enc  harness.Encoder
	tenc harness.TuningEncoder
}

// compile builds the workload's grids for a seed — the set-up every
// in-process run pays before its first simulation.
func (w workload) compile(seed uint64) ([]*compiled, error) {
	gp := w.params
	gp.Seed = seed
	var out []*compiled
	for _, name := range w.grids {
		g, err := harness.BuildGrid(name, gp)
		if err != nil {
			return nil, err
		}
		c := &compiled{NamedGrid: g, plan: g.Spec.Plan()}
		if g.Tuning {
			if c.hook, err = g.Spec.TuningHook(); err != nil {
				return nil, err
			}
			if c.tenc, err = harness.NewTuningEncoder("markdown", name); err != nil {
				return nil, err
			}
		} else if c.enc, err = harness.NewEncoder("markdown", name); err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// run executes the grid on the engine: Spec.Run's and RunTuning's body,
// kept apart from aggregation so the cell results stay available.
func (g *compiled) run(parallel int) []harness.CellResult {
	return harness.RunPlan(g.plan, harness.Options{Parallel: parallel, Hook: g.hook})
}

func (g *compiled) assemble(results []harness.CellResult) (any, error) {
	if g.Tuning {
		return g.Spec.AssembleTuning(results)
	}
	return g.Spec.Assemble(results), nil
}

func (g *compiled) encode(rep any) ([]byte, error) {
	var buf bytes.Buffer
	var err error
	switch r := rep.(type) {
	case *harness.TuningReport:
		err = g.tenc.Encode(&buf, r)
	case *harness.Report:
		err = g.enc.Encode(&buf, r)
	default:
		err = fmt.Errorf("unexpected report type %T", rep)
	}
	return buf.Bytes(), err
}

func (g *compiled) render(results []harness.CellResult) ([]byte, error) {
	rep, err := g.assemble(results)
	if err != nil {
		return nil, err
	}
	return g.encode(rep)
}

// artifact serializes a grid's results as the one-shard artifact the
// coordinator caches and serves from.
func (g *compiled) artifact(results []harness.CellResult) ([]byte, error) {
	sg, err := harness.NewShardGrid(g.Name, g.Spec, results, g.Tuning, false)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = harness.WriteShardArtifact(&buf, &harness.ShardArtifact{
		Format: harness.ShardFormat, Shard: 0, Of: 1, Grids: []harness.ShardGrid{sg},
	})
	return buf.Bytes(), err
}

// redeliver renders a report from artifact bytes: decode, merge,
// assemble, encode — the coordinator's cache-hit path without HTTP.
func (g *compiled) redeliver(art []byte) ([]byte, error) {
	a, err := harness.ReadShardArtifact(bytes.NewReader(art))
	if err != nil {
		return nil, err
	}
	results, err := harness.MergeShards(g.Spec, g.Name, []*harness.ShardArtifact{a})
	if err != nil {
		return nil, err
	}
	return g.render(results)
}

// simKey identifies a cell's simulation the way the record cache does
// (the grids here carry no machine tweaks).
func simKey(c harness.Cell) string {
	r := c.Run
	return fmt.Sprintf("%s/%d/%dP/%d/%d/%d", r.Workload, r.Size, r.Procs, r.IntervalInstructions, r.Seed, r.Protocol)
}

// summaryCounters sums the whole-run summaries of each simulation the
// engine ran — one per distinct simulation of each grid, since the
// record cache lives for one grid's run — as the traced run counts
// them: the simulated counts pinned at the default seed.
func summaryCounters(all [][]harness.CellResult) map[string]float64 {
	out := map[string]float64{"machine.instrs": 0, "machine.intervals": 0, "machine.cycles": 0}
	for _, results := range all {
		seen := map[string]bool{}
		for _, r := range results {
			k := simKey(r.Cell)
			if r.Err != nil || seen[k] {
				continue
			}
			seen[k] = true
			s := r.Curve.Summary
			out["machine.instrs"] += float64(s.Instructions)
			out["machine.intervals"] += float64(s.Intervals)
			out["machine.cycles"] += s.Cycles
		}
	}
	return out
}

// renderAll runs every grid on the engine and renders its report.
func renderAll(grids []*compiled) ([][]harness.CellResult, [][]byte, error) {
	all := make([][]harness.CellResult, len(grids))
	out := make([][]byte, len(grids))
	for i, g := range grids {
		all[i] = g.run(engineParallel)
		var err error
		if out[i], err = g.render(all[i]); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", g.Name, err)
		}
	}
	return all, out, nil
}

// runInProcess is the untraced run of an in-process workload.
func runInProcess(w workload, o options, sc scale) (*result, error) {
	res := newResult()

	// Set-up: process start through grid compile, in fresh probe
	// processes; then this process compiles its own copy.
	var setups []float64
	for i := 0; i < sc.setupProbes; i++ {
		d, err := probeSetup(w, o.seed, sc.test)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}
	grids, err := w.compile(o.seed)
	if err != nil {
		return nil, err
	}

	// Warm-up, untimed: one full iteration renders the reference bytes
	// and the artifacts the cache-hit analogue serves from, and lets the
	// heap grow to its working size.
	firstResults, firstBytes, err := renderAll(grids)
	if err != nil {
		return nil, err
	}
	arts := make([][]byte, len(grids))
	for i, g := range grids {
		if arts[i], err = g.artifact(firstResults[i]); err != nil {
			return nil, fmt.Errorf("%s artifact: %w", g.Name, err)
		}
	}
	redeliverAll := func() ([][]byte, error) {
		out := make([][]byte, len(grids))
		for i, g := range grids {
			b, err := g.redeliver(arts[i])
			if err != nil {
				return nil, fmt.Errorf("%s redeliver: %w", g.Name, err)
			}
			out[i] = b
		}
		return out, nil
	}
	for k := 0; k < sc.warmup; k++ {
		if _, err := redeliverAll(); err != nil {
			return nil, err
		}
	}

	// Timed region. Each iteration renders every report, then the
	// served form of the same results (serialize each grid's artifact,
	// render from it), then a batch of cache-hit analogues re-rendered
	// from the warm-up's artifacts, so the hit samples spread over the
	// whole run. Each phase starts from a collected heap: when the
	// collector runs inside a phase then depends on that phase's own
	// allocation, not on what the phase before it left behind.
	var (
		reportS, servedS, cpuS []float64
		busy                   []float64
		hits                   []float64
	)
	start := time.Now()
	for iter := 0; ; iter++ {
		runtime.GC()
		c0 := cpuSeconds(syscall.RUSAGE_SELF)
		t := time.Now()
		all, out, err := renderAll(grids)
		if err != nil {
			return nil, err
		}
		d := time.Since(t)
		cpuS = append(cpuS, cpuSeconds(syscall.RUSAGE_SELF)-c0)
		reportS = append(reportS, d.Seconds())

		td := time.Now()
		for i, g := range grids {
			art, err := g.artifact(all[i])
			if err != nil {
				return nil, fmt.Errorf("%s artifact: %w", g.Name, err)
			}
			b, err := g.redeliver(art)
			if err != nil {
				return nil, fmt.Errorf("%s redeliver: %w", g.Name, err)
			}
			if !bytes.Equal(b, out[i]) {
				res.fail("%s: report rendered from the artifact differs from the direct report", g.Name)
			}
		}
		servedS = append(servedS, d.Seconds()+time.Since(td).Seconds())

		var cellWall time.Duration
		for i, results := range all {
			res.Attempted += len(results)
			for _, r := range results {
				cellWall += r.Wall
				if r.Err != nil {
					res.fail("%s cell %s: %v", grids[i].Name, r.Cell.Label(), r.Err)
				}
			}
			if !bytes.Equal(out[i], firstBytes[i]) {
				res.fail("%s: iteration %d rendered different bytes than the warm-up", grids[i].Name, iter)
			}
		}
		busy = append(busy, cellWall.Seconds()/(d.Seconds()*engineParallel))

		runtime.GC()
		th := time.Now()
		for k := 0; k < sc.hitBatch || time.Since(th).Seconds() < sc.hitShare*d.Seconds(); k++ {
			t := time.Now()
			b, err := redeliverAll()
			if err != nil {
				return nil, err
			}
			hits = append(hits, ms(time.Since(t)))
			if k == 0 {
				for i := range b {
					if !bytes.Equal(b[i], firstBytes[i]) {
						res.fail("%s: re-delivered report differs", grids[i].Name)
					}
				}
			}
		}

		elapsed := time.Since(start).Seconds()
		if iter+1 >= sc.minIters && elapsed+elapsed/float64(iter+1) > o.seconds {
			break
		}
	}
	rss := peakRSSMB()

	checkPins(res, sc.pins, w.name, o.seed, grids, firstBytes, summaryCounters(firstResults))

	res.set("setup_s", median(setups), "s", len(setups))
	res.set("report_s", median(reportS), "s", len(reportS))
	res.set("served_s", median(servedS), "s", len(servedS))
	res.set("served_hit_ms", mean(hits), "ms", len(hits))
	res.set("cpu_s", median(cpuS), "s", len(cpuS))
	res.set("peak_rss_mb", rss, "MB", 0)
	res.note("served_hit_ms median %.6g ms, p95 %.6g ms (n=%d; the metric is the mean: collector cycles make per-delivery latency bimodal)", median(hits), percentile(hits, 95), len(hits))
	res.note("busy_ratio %.4f (sum of cell wall / (report_s x %d workers), median of %d)", median(busy), engineParallel, len(busy))
	for i, g := range grids {
		res.note("report %s sha256 %s (%d bytes)", g.Name, digest(firstBytes[i]), len(firstBytes[i]))
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// cpuSeconds returns user+sys CPU of the process (RUSAGE_SELF) or of
// its reaped children (RUSAGE_CHILDREN).
func cpuSeconds(who int) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
