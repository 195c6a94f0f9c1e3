// Package cpu models the paper's processor core (Table I): a 2 GHz,
// 6-wide out-of-order core with 6 ALUs and 4 FPUs and a 2,048-entry
// gshare branch predictor.
//
// The timing model is throughput-oriented: each committed instruction is
// charged an issue cost limited by commit width and by its functional
// unit class, plus a flat misprediction penalty for wrongly predicted
// branches and the memory-stall cycles the cache/coherence model reports
// for loads and stores. This reproduces the first-order CPI structure —
// which is all the phase detectors observe — without register-level
// detail.
package cpu

import "dsmphase/internal/isa"

// Config describes the core.
type Config struct {
	// ClockHz is the core frequency (Table I: 2 GHz).
	ClockHz float64
	// Width is the fetch/issue/commit width (Table I: 6).
	Width int
	// ALUs and FPUs are the functional unit counts (Table I: 6 and 4).
	ALUs int
	FPUs int
	// MemPorts bounds memory operations issued per cycle.
	MemPorts int
	// MispredictPenalty is the pipeline refill cost of a mispredicted
	// branch, in cycles.
	MispredictPenalty float64
	// LoadStallFactor scales cache-miss latency into commit stall for
	// loads (1.0 = fully exposed; out-of-order overlap would lower it).
	LoadStallFactor float64
	// StoreStallFactor scales miss latency for stores (write buffers hide
	// most of it).
	StoreStallFactor float64
	// GshareEntries is the branch predictor table size (Table I: 2048).
	GshareEntries int
	// GshareHistoryBits is the global history length.
	GshareHistoryBits int
}

// DefaultConfig returns the Table I core parameters.
func DefaultConfig() Config {
	return Config{
		ClockHz:           2e9,
		Width:             6,
		ALUs:              6,
		FPUs:              4,
		MemPorts:          2,
		MispredictPenalty: 14,
		LoadStallFactor:   0.7,
		StoreStallFactor:  0.15,
		GshareEntries:     2048,
		GshareHistoryBits: 11,
	}
}

// Gshare is a 2-bit-counter gshare branch predictor.
type Gshare struct {
	table []uint8
	hist  uint32
	mask  uint32
	bits  uint
	// stats
	lookups     uint64
	mispredicts uint64
}

// NewGshare builds a predictor with the given table size (must be a
// positive power of two) and history length.
func NewGshare(entries int, historyBits int) *Gshare {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("cpu: gshare entries must be a positive power of two")
	}
	if historyBits < 0 || historyBits > 31 {
		panic("cpu: history bits out of range")
	}
	g := &Gshare{
		table: make([]uint8, entries),
		mask:  uint32(entries - 1),
		bits:  uint(historyBits),
	}
	// Initialize counters to weakly taken (2), the usual convention.
	for i := range g.table {
		g.table[i] = 2
	}
	return g
}

func (g *Gshare) index(pc uint32) uint32 {
	return ((pc >> 2) ^ g.hist) & g.mask
}

// Predict returns the predicted direction for the branch at pc without
// updating any state.
func (g *Gshare) Predict(pc uint32) bool {
	return g.table[g.index(pc)] >= 2
}

// Update trains the predictor with the actual outcome and advances the
// global history. It returns true if the prediction was wrong.
func (g *Gshare) Update(pc uint32, taken bool) (mispredicted bool) {
	g.lookups++
	idx := g.index(pc)
	pred := g.table[idx] >= 2
	if taken && g.table[idx] < 3 {
		g.table[idx]++
	} else if !taken && g.table[idx] > 0 {
		g.table[idx]--
	}
	var bit uint32
	if taken {
		bit = 1
	}
	g.hist = ((g.hist << 1) | bit) & ((1 << g.bits) - 1)
	if pred != taken {
		g.mispredicts++
		return true
	}
	return false
}

// Accuracy returns the fraction of correctly predicted branches so far
// (1.0 when no branches have been seen).
func (g *Gshare) Accuracy() float64 {
	if g.lookups == 0 {
		return 1
	}
	return 1 - float64(g.mispredicts)/float64(g.lookups)
}

// Lookups returns the number of predicted branches.
func (g *Gshare) Lookups() uint64 { return g.lookups }

// Mispredicts returns the number of mispredicted branches.
func (g *Gshare) Mispredicts() uint64 { return g.mispredicts }

// Model is one core's timing model: a gshare predictor plus issue-cost
// accounting.
type Model struct {
	cfg    Config
	gshare *Gshare
	// Precomputed issue costs per op class.
	cost [isa.NumOps]float64
}

// NewModel builds a core model.
func NewModel(cfg Config) *Model {
	if cfg.Width <= 0 || cfg.ALUs <= 0 || cfg.FPUs <= 0 || cfg.MemPorts <= 0 {
		panic("cpu: widths and unit counts must be positive")
	}
	m := &Model{cfg: cfg, gshare: NewGshare(cfg.GshareEntries, cfg.GshareHistoryBits)}
	width := float64(cfg.Width)
	lim := func(units int) float64 {
		c := 1 / width
		if u := 1 / float64(units); u > c {
			c = u
		}
		return c
	}
	m.cost[isa.OpInt] = lim(cfg.ALUs)
	m.cost[isa.OpFP] = lim(cfg.FPUs)
	m.cost[isa.OpLoad] = lim(cfg.MemPorts)
	m.cost[isa.OpStore] = lim(cfg.MemPorts)
	m.cost[isa.OpBranch] = lim(cfg.ALUs)
	m.cost[isa.OpSync] = 1 / width
	return m
}

// Config returns the core configuration.
func (m *Model) Config() Config { return m.cfg }

// Gshare exposes the branch predictor (for statistics).
func (m *Model) Gshare() *Gshare { return m.gshare }

// Cost returns the cycles charged for committing in, where memStall is
// the memory-hierarchy latency (in cycles) the access incurred beyond
// the L1 hit time — zero for non-memory instructions and L1 hits.
func (m *Model) Cost(in isa.Inst, memStall float64) float64 {
	c := m.cost[in.Op]
	switch in.Op {
	case isa.OpBranch:
		if m.gshare.Update(in.PC, in.Taken) {
			c += m.cfg.MispredictPenalty
		}
	case isa.OpLoad:
		// float64() rounds each product, so no architecture fuses it (DESIGN.md §9).
		c += float64(memStall * m.cfg.LoadStallFactor)
	case isa.OpStore:
		c += float64(memStall * m.cfg.StoreStallFactor)
	}
	return c
}
