package core

import "math"

// MaxTriangleIntervals caps the per-sequence distance cache of a
// Replayer: a sequence of n ≤ MaxTriangleIntervals intervals keeps its
// n(n−1)/2 pairwise signature distances (16 MB at the cap), a longer one
// computes distances inline on every comparison. Measured on 2-core
// Xeon over real lu/fmm/equake/art streams, the cache sped a default
// sweep up 1.4–2.8× at 2048 intervals but only 0.9–1.5× at 4096, while
// its memory grows quadratically.
const MaxTriangleIntervals = 2048

// Slack bounds the thresholds for which a replay's outcome is valid.
// Every threshold-dependent comparison the replay made — a signature
// distance against thBBV, a DDS difference against thDDS — takes the
// same side for any thBBV in [BLo, BHi) and thDDS in [DLo, DHi), so a
// replay there assigns the same phase IDs.
type Slack struct {
	BLo, BHi float64
	DLo, DHi float64
}

// CoversBBV reports whether every signature-distance comparison of the
// replay takes the same side at thBBV. It is conservative: a NaN
// threshold is never covered.
func (s Slack) CoversBBV(thBBV float64) bool { return s.BLo <= thBBV && thBBV < s.BHi }

// CoversDDS is CoversBBV for the DDS-difference comparisons.
func (s Slack) CoversDDS(thDDS float64) bool { return s.DLo <= thDDS && thDDS < s.DHi }

// replayEntry is one footprint-table row during a replay. It holds the
// index of the recorded interval that allocated it rather than a copy of
// that interval's signature: entries are verbatim copies of earlier
// records and are never updated on a match, so the index is exact.
type replayEntry struct {
	rec     int
	phaseID int
	lastUse uint64
	valid   bool
}

// Replayer replays footprint-table classification over one recorded
// per-processor signature sequence. It is the offline counterpart of
// FootprintTable.Classify (WSSTable.Classify for DetectorWSS) and
// reuses its table, output and distance cache across replays, so
// replaying one sequence at many thresholds allocates nothing per
// replay.
type Replayer struct {
	kind    DetectorKind
	entries []replayEntry
	sigs    []IntervalSignature
	ids     []int
	// tri[i*(i-1)/2+j] is the signature distance of interval i to an
	// earlier interval j, or nil when distances are computed inline.
	tri []float64
}

// NewReplayer returns a replayer for the given detector kind and
// footprint-table size.
func NewReplayer(kind DetectorKind, tableSize int) *Replayer {
	switch kind {
	case DetectorBBV, DetectorBBVDDV, DetectorDDS, DetectorWSS:
	default:
		panic("core: unknown detector kind")
	}
	if tableSize <= 0 {
		panic("core: footprint table size must be positive")
	}
	return &Replayer{kind: kind, entries: make([]replayEntry, tableSize)}
}

// Load points the replayer at a signature sequence. With cache set and
// at most MaxTriangleIntervals intervals it computes every pairwise
// distance once, which pays off when the sequence is replayed at many
// thresholds.
func (r *Replayer) Load(sigs []IntervalSignature, cache bool) {
	r.sigs = sigs
	if r.ids == nil || cap(r.ids) < len(sigs) {
		r.ids = make([]int, len(sigs))
	}
	r.ids = r.ids[:len(sigs)]
	n := len(sigs)
	if !cache || n > MaxTriangleIntervals {
		r.tri = nil
		return
	}
	if cap(r.tri) < n*(n-1)/2 {
		r.tri = make([]float64, 0, n*(n-1)/2)
	}
	r.tri = r.tri[:0]
	for i := range sigs {
		for j := 0; j < i; j++ {
			r.tri = append(r.tri, r.distance(i, j))
		}
	}
}

// distance is the signature distance Classify computes between the
// current interval i and the entry recorded from interval j, with the
// same argument order.
func (r *Replayer) distance(i, j int) float64 {
	if r.kind == DetectorWSS {
		return r.sigs[i].WSS.RelativeDistance(&r.sigs[j].WSS)
	}
	return Manhattan(r.sigs[i].BBV, r.sigs[j].BBV)
}

// Replay classifies the loaded sequence at the given thresholds exactly
// as a fresh FootprintTable (WSSTable for DetectorWSS, with thBBV as the
// relative-distance threshold) would, and returns the phase ID of each
// interval plus the slack of the thresholds. The returned slice is
// reused by the next Load or Replay.
func (r *Replayer) Replay(thBBV, thDDS float64) ([]int, Slack) {
	useDDS := r.kind == DetectorBBVDDV || r.kind == DetectorDDS
	switch {
	case r.kind == DetectorDDS:
		thBBV = 2.0
	case r.kind == DetectorWSS && math.IsNaN(thBBV):
		// WSSTable matches on d <= threshold, which no distance meets
		// when the threshold is NaN; -Inf makes !(d > thBBV) agree.
		thBBV = math.Inf(-1)
	}
	s := Slack{BLo: math.Inf(-1), BHi: math.Inf(1), DLo: math.Inf(-1), DHi: math.Inf(1)}
	for k := range r.entries {
		r.entries[k] = replayEntry{}
	}
	var clock uint64
	nextPhase := 0
	for i := range r.sigs {
		clock++
		var row []float64
		if r.tri != nil {
			row = r.tri[i*(i-1)/2:]
		}
		dds := r.sigs[i].DDS
		bestIdx := -1
		bestDist := math.Inf(1)
		var lruIdx int
		lruUse := uint64(math.MaxUint64)
		for k := range r.entries {
			e := &r.entries[k]
			if !e.valid {
				if lruUse != 0 {
					lruIdx, lruUse = k, 0
				}
				continue
			}
			if e.lastUse < lruUse {
				lruIdx, lruUse = k, e.lastUse
			}
			var d float64
			if row != nil {
				d = row[e.rec]
			} else {
				d = r.distance(i, e.rec)
			}
			// NaN compares false on both sides: it never depends on the
			// threshold and never tightens the slack.
			if d > thBBV {
				s.BHi = min(s.BHi, d)
				continue
			}
			if d > s.BLo {
				s.BLo = d
			}
			if useDDS {
				x := math.Abs(dds - r.sigs[e.rec].DDS)
				if x > thDDS {
					s.DHi = min(s.DHi, x)
					continue
				}
				if x > s.DLo {
					s.DLo = x
				}
			}
			if d < bestDist {
				bestDist, bestIdx = d, k
			}
		}
		if bestIdx >= 0 {
			e := &r.entries[bestIdx]
			e.lastUse = clock
			r.ids[i] = e.phaseID
			continue
		}
		r.entries[lruIdx] = replayEntry{rec: i, phaseID: nextPhase, lastUse: clock, valid: true}
		r.ids[i] = nextPhase
		nextPhase++
	}
	if r.kind == DetectorDDS {
		// The BBV threshold is pinned at 2, so the outcome does not
		// depend on the one passed in.
		s.BLo, s.BHi = math.Inf(-1), math.Inf(1)
	}
	return r.ids, s
}
