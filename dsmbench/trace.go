package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"dsmphase/internal/coherence"
	"dsmphase/internal/core"
	"dsmphase/internal/harness"
	"dsmphase/internal/isa"
	"dsmphase/internal/machine"
	"dsmphase/internal/network"
	"dsmphase/internal/workloads"
)

// The traced run. It executes a workload's plans serially by calling
// each layer directly, in the engine's order —
// workloads.ByName(..).Threads → machine.New → (*Machine).Run →
// harness.SweepMachine → Spec.TuningHook() → Assemble/AssembleTuning →
// encoder — with detector cells sharing one simulation as the record
// cache does. Every call is a span; counts and runtime.MemStats deltas
// are taken at the same boundaries. Spans live in memory and are
// written out once the run ends.

// span is one timed call into a layer.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"` // -1 for roots
	Grid   string `json:"grid,omitempty"`
	Cell   int    `json:"cell"` // plan index; -1 for grid-level spans
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes"`

	alloc0 uint64
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	ms    runtime.MemStats
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name, grid string, cell int) {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	runtime.ReadMemStats(&t.ms)
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Name: name, Parent: parent, Grid: grid, Cell: cell,
		Start: int64(time.Since(t.t0)), alloc0: t.ms.TotalAlloc,
	})
	t.stack = append(t.stack, id)
}

// end closes the innermost open span and returns it.
func (t *tracer) end() *span {
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	runtime.ReadMemStats(&t.ms)
	s.Alloc = t.ms.TotalAlloc - s.alloc0
	return s
}

// selfTimes sums each span name's duration minus the part its children
// cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] += s.dur() - child[i]
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers accumulates the per-layer counts of a traced run.
type layers struct {
	newNS, runNS, machAlloc      float64
	runNSByProcs, instrsByProcs  map[int]float64
	instrs, intervals, cycles    float64
	coh                          coherence.Stats
	net                          network.Stats
	sweepNS                      map[core.DetectorKind]float64
	classifyWork, sweepAlloc     float64
	hookNS, assembleNS, encodeNS float64
	genNS, genInstrs             float64
}

func newLayers() *layers {
	return &layers{
		runNSByProcs:  map[int]float64{},
		instrsByProcs: map[int]float64{},
		sweepNS:       map[core.DetectorKind]float64{},
	}
}

// counters returns the simulated counts the pins hold.
func (l *layers) counters() map[string]float64 {
	return map[string]float64{
		"machine.instrs":             l.instrs,
		"machine.intervals":          l.intervals,
		"machine.cycles":             l.cycles,
		"coherence.loads":            float64(l.coh.Loads),
		"coherence.stores":           float64(l.coh.Stores),
		"coherence.l1_hits":          float64(l.coh.L1Hits),
		"coherence.l2_hits":          float64(l.coh.L2Hits),
		"coherence.remote_trips":     float64(l.coh.RemoteTrips),
		"coherence.invalidations":    float64(l.coh.Invalidations + l.coh.PageInvalidations),
		"coherence.page_transfers":   float64(l.coh.PageTransfers),
		"network.messages":           float64(l.net.Messages),
		"network.queue_cycles":       float64(l.net.QueueCycles),
		"workloads.instrs_generated": l.genInstrs,
	}
}

// tracedSim is one simulation shared by the cells that sweep it.
type tracedSim struct {
	ran  bool
	m    *machine.Machine
	sum  machine.Summary
	err  error
	refs int
}

// simulate mirrors harness.Simulate, one span per layer call.
func (l *layers) simulate(t *tracer, grid string, cell int, rc harness.RunConfig) (*machine.Machine, machine.Summary, error) {
	t.begin("workloads.threads", grid, cell)
	w, err := workloads.ByName(rc.Workload)
	var threads []isa.Thread
	if err == nil {
		threads = w.Threads(rc.Procs, rc.Size, rc.Seed)
	}
	t.end()
	if err != nil {
		return nil, machine.Summary{}, err
	}
	cfg := machine.DefaultConfig(rc.Procs)
	if rc.IntervalInstructions > 0 {
		cfg.IntervalInstructions = rc.IntervalInstructions
	}
	cfg.Protocol = rc.Protocol
	if rc.Tweak != nil {
		rc.Tweak(&cfg)
	}
	t.begin("machine.new", grid, cell)
	m := machine.New(cfg, threads)
	sn := t.end()
	t.begin("machine.run", grid, cell)
	sum, err := m.Run()
	sr := t.end()
	if err != nil {
		return nil, machine.Summary{}, fmt.Errorf("harness: %s/%dP: %w", rc.Workload, rc.Procs, err)
	}
	l.newNS += float64(sn.dur())
	l.runNS += float64(sr.dur())
	l.machAlloc += float64(sn.Alloc + sr.Alloc)
	l.runNSByProcs[rc.Procs] += float64(sr.dur())
	l.instrsByProcs[rc.Procs] += float64(sum.Instructions)
	l.instrs += float64(sum.Instructions)
	l.intervals += float64(sum.Intervals)
	l.cycles += sum.Cycles
	addCoherence(&l.coh, m.Protocol().Stats())
	ns := m.Network().Stats()
	l.net.Messages += ns.Messages
	l.net.QueueCycles += ns.QueueCycles
	return m, sum, nil
}

func addCoherence(dst *coherence.Stats, s coherence.Stats) {
	dst.Loads += s.Loads
	dst.Stores += s.Stores
	dst.L1Hits += s.L1Hits
	dst.L2Hits += s.L2Hits
	dst.RemoteTrips += s.RemoteTrips
	dst.Invalidations += s.Invalidations
	dst.PageInvalidations += s.PageInvalidations
	dst.PageTransfers += s.PageTransfers
}

// sweepPoints is the number of threshold settings SweepMachine
// classifies each recorded interval at.
func sweepPoints(kind core.DetectorKind, m *machine.Machine) int {
	sc := harness.DefaultSweep(kind, 1+float64(m.Network().Diameter()))
	dds := len(sc.DDSThresholds)
	if kind == core.DetectorBBV || kind == core.DetectorWSS || dds == 0 {
		dds = 1
	}
	return len(sc.BBVThresholds) * dds
}

// traceGrid runs one grid's plan serially through the layers and
// returns its rendered report and cell results.
func (l *layers) traceGrid(t *tracer, g *compiled) ([]byte, []harness.CellResult, error) {
	t.begin("grid", g.Name, -1)
	defer t.end()
	cells := g.plan.Cells()
	sims := map[string]*tracedSim{}
	for _, c := range cells {
		k := simKey(c)
		if sims[k] == nil {
			sims[k] = &tracedSim{}
		}
		sims[k].refs++
	}
	results := make([]harness.CellResult, len(cells))
	for i, c := range cells {
		t.begin("cell", g.Name, i)
		start := time.Now()
		s := sims[simKey(c)]
		if !s.ran {
			s.m, s.sum, s.err = l.simulate(t, g.Name, i, c.Run)
			s.ran = true
		}
		res := harness.CellResult{Index: i, Cell: c}
		if s.err != nil {
			res.Err = s.err
		} else {
			t.begin("harness.sweep."+c.Kind.String(), g.Name, i)
			res.Curve = harness.SweepMachine(s.m, c.Run, c.Kind, s.sum)
			sp := t.end()
			l.sweepNS[c.Kind] += float64(sp.dur())
			l.sweepAlloc += float64(sp.Alloc)
			work := 0
			for _, recs := range s.m.RecordsByProc() {
				work += len(recs)
			}
			l.classifyWork += float64(work * sweepPoints(c.Kind, s.m))
			if g.hook != nil {
				t.begin("harness.hook", g.Name, i)
				res.Extra = g.hook(c, s.m, res.Curve, s.sum)
				l.hookNS += float64(t.end().dur())
			}
		}
		if s.refs--; s.refs == 0 {
			s.m = nil // the record cache's release: the last sweep drops the machine
		}
		res.Wall = time.Since(start)
		t.end()
		results[i] = res
	}
	t.begin("harness.assemble", g.Name, -1)
	rep, err := g.assemble(results)
	l.assembleNS += float64(t.end().dur())
	if err != nil {
		return nil, nil, err
	}
	t.begin("harness.encode", g.Name, -1)
	b, err := g.encode(rep)
	l.encodeNS += float64(t.end().dur())
	return b, results, err
}

// traceGeneration drains every distinct simulation's threads through
// an isa.Emitter outside the machine: instruction generation alone.
func (l *layers) traceGeneration(t *tracer, grids []*compiled) error {
	seen := map[string]bool{}
	for _, g := range grids {
		for i, c := range g.plan.Cells() {
			k := simKey(c)
			if seen[k] {
				continue
			}
			seen[k] = true
			w, err := workloads.ByName(c.Run.Workload)
			if err != nil {
				return err
			}
			t.begin("workloads.gen", g.Name, i)
			e := isa.NewEmitter(4096)
			n := 0
			for _, th := range w.Threads(c.Run.Procs, c.Run.Size, c.Run.Seed) {
				for {
					e.Reset()
					if !th.NextBatch(e) {
						break
					}
					n += e.Len()
				}
			}
			l.genNS += float64(t.end().dur())
			l.genInstrs += float64(n)
		}
	}
	return nil
}

// tracedRun is the outcome of decomposing one set of grids.
type tracedRun struct {
	layers    *layers
	tracer    *tracer
	reports   [][]byte
	tracedS   float64 // the traced pipeline, generation pass excluded
	untracedS float64 // the same grids untraced at Parallel 1
	busyRatio float64 // untraced Parallel-2 run: Σ cell wall / (wall × 2)
	shared    int     // cells served by another cell's simulation
	decodeMS  float64 // ReadShardArtifact on the grids' artifacts
	cells     int
}

// traceGrids runs the traced decomposition, then the same grids
// untraced at Parallel 1 (the tracing-overhead baseline) and at the
// engine's Parallel 2 (the busy ratio). All three must render the same
// bytes.
func traceGrids(res *result, grids []*compiled) (*tracedRun, error) {
	tr := &tracedRun{layers: newLayers(), tracer: newTracer()}
	t0 := time.Now()
	var all [][]harness.CellResult
	for _, g := range grids {
		b, results, err := tr.layers.traceGrid(tr.tracer, g)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", g.Name, err)
		}
		tr.reports = append(tr.reports, b)
		all = append(all, results)
		tr.cells += len(results)
		tr.shared += g.plan.Len() - g.plan.Simulations()
		for _, r := range results {
			if r.Err != nil {
				res.fail("%s cell %s: %v", g.Name, r.Cell.Label(), r.Err)
			}
		}
	}
	tr.tracedS = time.Since(t0).Seconds()
	if err := tr.layers.traceGeneration(tr.tracer, grids); err != nil {
		return nil, err
	}

	for _, parallel := range []int{1, engineParallel} {
		start := time.Now()
		var wall time.Duration
		for i, g := range grids {
			results := g.run(parallel)
			for _, r := range results {
				wall += r.Wall
			}
			b, err := g.render(results)
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(b, tr.reports[i]) {
				res.fail("%s: traced report differs from the untraced Parallel-%d report", g.Name, parallel)
			}
		}
		d := time.Since(start).Seconds()
		if parallel == 1 {
			tr.untracedS = d
		} else {
			tr.busyRatio = wall.Seconds() / (d * float64(parallel))
		}
	}

	var decode []float64
	for i, g := range grids {
		art, err := g.artifact(all[i])
		if err != nil {
			return nil, err
		}
		for k := 0; k < 5; k++ {
			t := time.Now()
			if _, err := harness.ReadShardArtifact(bytes.NewReader(art)); err != nil {
				return nil, err
			}
			if k >= len(decode) {
				decode = append(decode, 0)
			}
			decode[k] += ms(time.Since(t))
		}
	}
	tr.decodeMS = median(decode)
	return tr, nil
}

// setLayerMetrics reports the per-layer metrics of a traced run. The
// service.* metrics are set by the served workload; the in-process
// workloads do not exercise that layer and report them as 0.
func setLayerMetrics(res *result, tr *tracedRun) {
	l := tr.layers
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	memOps := float64(l.coh.Loads + l.coh.Stores)
	res.set("workloads.gen_ns_per_instr", div(l.genNS, l.genInstrs), "ns", 0)
	res.set("machine.run_s", l.runNS/1e9, "s", 0)
	res.set("machine.new_ms", l.newNS/1e6, "ms", 0)
	for _, p := range []int{2, 8, 32} {
		res.set(fmt.Sprintf("machine.minstr_s.p%d", p), div(l.instrsByProcs[p]/1e6, l.runNSByProcs[p]/1e9), "Minstr/s", 0)
	}
	res.set("machine.ns_per_mem_op", div(l.runNS, memOps), "ns", 0)
	res.set("machine.alloc_mb", l.machAlloc/(1<<20), "MB", 0)
	res.set("machine.instrs", l.instrs, "count", 0)
	res.set("machine.intervals", l.intervals, "count", 0)
	res.set("coherence.loads", float64(l.coh.Loads), "count", 0)
	res.set("coherence.stores", float64(l.coh.Stores), "count", 0)
	res.set("coherence.remote_trips", float64(l.coh.RemoteTrips), "count", 0)
	res.set("coherence.invalidations", float64(l.coh.Invalidations+l.coh.PageInvalidations), "count", 0)
	res.set("coherence.page_transfers", float64(l.coh.PageTransfers), "count", 0)
	res.set("cache.l1_hit_ratio", div(float64(l.coh.L1Hits), memOps), "ratio", 0)
	res.set("cache.l2_hit_ratio", div(float64(l.coh.L2Hits), memOps-float64(l.coh.L1Hits)), "ratio", 0)
	res.set("network.messages", float64(l.net.Messages), "count", 0)
	res.set("network.queue_cycles", float64(l.net.QueueCycles), "cycles", 0)
	res.set("harness.sweep_s.bbv", l.sweepNS[core.DetectorBBV]/1e9, "s", 0)
	res.set("harness.sweep_s.bbvddv", l.sweepNS[core.DetectorBBVDDV]/1e9, "s", 0)
	sweep := 0.0
	for _, ns := range l.sweepNS {
		sweep += ns
	}
	res.set("core.ns_per_classify", div(sweep, l.classifyWork), "ns", 0)
	res.set("harness.sweep_alloc_mb", l.sweepAlloc/(1<<20), "MB", 0)
	res.set("harness.hook_ms", l.hookNS/1e6, "ms", 0)
	res.set("harness.assemble_ms", l.assembleNS/1e6, "ms", 0)
	res.set("harness.encode_ms", l.encodeNS/1e6, "ms", 0)
	res.set("harness.busy_ratio", tr.busyRatio, "ratio", 0)
	res.set("harness.record_cache_shared", float64(tr.shared), "count", 0)
	res.set("harness.artifact_decode_ms", tr.decodeMS, "ms", 5)
	res.set("trace.traced_s", tr.tracedS, "s", 0)
	res.set("trace.untraced_s", tr.untracedS, "s", 0)
	res.set("trace.overhead_ratio", div(tr.tracedS, tr.untracedS), "ratio", 0)
	res.set("trace.machine_share", div(l.runNS/1e9, tr.tracedS), "ratio", 0)
	res.set("trace.sweep_share", div(sweep/1e9, tr.tracedS), "ratio", 0)
	for _, n := range []string{"service.submit_ms", "service.queue_ms", "service.merge_ms", "service.report_ms"} {
		res.set(n, 0, "ms", 0)
	}
	for _, n := range []string{"service.shard_s", "service.dispatch_overhead_s"} {
		res.set(n, 0, "s", 0)
	}
	for _, n := range []string{"service.retries", "service.checksum_failures", "service.cache_hits"} {
		res.set(n, 0, "count", 0)
	}

	self := tr.tracer.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		res.note("self %-26s %10.4f s  %5.1f%% of traced", n, self[n].Seconds(), 100*self[n].Seconds()/tr.tracedS)
	}
}

// runTraced is the traced run of an in-process workload.
func runTraced(w workload, o options, sc scale) (*result, error) {
	res := newResult()
	grids, err := w.compile(o.seed)
	if err != nil {
		return nil, err
	}
	tr, err := traceGrids(res, grids)
	if err != nil {
		return nil, err
	}
	res.Attempted = tr.cells
	counters := tr.layers.counters()
	if o.repin != "" {
		if err := writePins(o.repin, w.name, o.seed, grids, tr.reports, counters); err != nil {
			return nil, err
		}
		res.note("pins: wrote %s entry to %s", w.name, o.repin)
	} else {
		checkPins(res, sc.pins, w.name, o.seed, grids, tr.reports, counters)
	}
	setLayerMetrics(res, tr)
	if err := tr.tracer.write(spansPath(o)); err != nil {
		return nil, err
	}
	res.note("spans: %d written to %s", len(tr.tracer.spans), spansPath(o))
	return res, nil
}
