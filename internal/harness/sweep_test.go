package harness

import (
	"math"
	"math/rand/v2"
	"testing"

	"dsmphase/internal/core"
	"dsmphase/internal/stats"
)

// sweepReference is the per-point threshold sweep Sweep replaced: every
// (threshold, processor) point classifies from a fresh online table.
// It is the oracle Sweep's memoized replay must reproduce bit for bit.
func sweepReference(recs [][]core.IntervalSignature, sc SweepConfig) []stats.CurvePoint {
	if sc.TableSize <= 0 {
		sc.TableSize = core.DefaultFootprintSize
	}
	dds := sc.DDSThresholds
	if sc.Kind == core.DetectorBBV || sc.Kind == core.DetectorWSS || len(dds) == 0 {
		dds = []float64{0}
	}
	var out []stats.CurvePoint
	cpis := make([][]float64, len(recs))
	for p, rs := range recs {
		cpis[p] = make([]float64, len(rs))
		for i, r := range rs {
			cpis[p][i] = r.CPI()
		}
	}
	for _, tb := range sc.BBVThresholds {
		for _, td := range dds {
			var sumCov, sumPhases float64
			procs := 0
			for p, rs := range recs {
				if len(rs) == 0 {
					continue
				}
				ids := classifyReference(sc.Kind, sc.TableSize, tb, td, rs)
				cov, nPhases := stats.IdentifierCoV(ids, cpis[p])
				sumCov += cov
				sumPhases += float64(nPhases)
				procs++
			}
			if procs == 0 {
				continue
			}
			out = append(out, stats.CurvePoint{
				Phases:       sumPhases / float64(procs),
				CoV:          sumCov / float64(procs),
				Threshold:    tb,
				ThresholdDDS: td,
			})
		}
	}
	return out
}

// classifyReference classifies through the online tables, one fresh
// table per call.
func classifyReference(kind core.DetectorKind, tableSize int, thBBV, thDDS float64, sigs []core.IntervalSignature) []int {
	out := make([]int, len(sigs))
	if kind == core.DetectorWSS {
		table := core.NewWSSTable(tableSize, thBBV)
		for i := range sigs {
			out[i], _ = table.Classify(&sigs[i].WSS)
		}
		return out
	}
	var table *core.FootprintTable
	switch kind {
	case core.DetectorBBV:
		table = core.NewFootprintTable(tableSize, thBBV)
	case core.DetectorBBVDDV:
		table = core.NewFootprintTableDDS(tableSize, thBBV, thDDS)
	case core.DetectorDDS:
		table = core.NewFootprintTableDDS(tableSize, 2.0, thDDS)
	}
	for i, s := range sigs {
		out[i], _ = table.Classify(s.BBV, s.DDS)
	}
	return out
}

// Palettes the case decoder draws from. Dyadic BBV components make
// Manhattan sums exact, so distances tie exactly with the dyadic
// thresholds; the DDS palette repeats values and carries NaN and ±Inf.
var (
	sweepThresholds = []float64{0, 0.125, 0.25, 0.375, 0.5, 0.75, 1, 1.5, 2, 0.1, 0.3, 1.0 / 3, math.Inf(1), math.NaN(), -0.5, 3}
	sweepDDS        = []float64{0, 0.5, 1, 1.5, 2, 0.25, math.NaN(), math.Inf(1), math.Inf(-1), 3, 0.125, 1e-3}
)

// caseReader hands out the bytes of a sweep case, zeros once spent.
type caseReader []byte

func (r *caseReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// decodeSweepCase turns arbitrary bytes into a sweep: a header (detector
// kind, table size 1..64, threshold lists drawn with repetition from a
// palette, in byte order), then up to four processors of up to 99
// intervals each. An interval is either a copy of an earlier one on its
// processor or fresh: a 4-component BBV, a DDS, a two-word working-set
// signature and a CPI.
func decodeSweepCase(data []byte) ([][]core.IntervalSignature, SweepConfig) {
	r := caseReader(data)
	sc := SweepConfig{
		Kind:      core.DetectorKind(r.next() % 4),
		TableSize: r.next()%64 + 1,
	}
	nB, nD := r.next()%7, r.next()%5
	for range nB {
		sc.BBVThresholds = append(sc.BBVThresholds, sweepThresholds[r.next()%len(sweepThresholds)])
	}
	for range nD {
		sc.DDSThresholds = append(sc.DDSThresholds, sweepThresholds[r.next()%len(sweepThresholds)])
	}
	recs := make([][]core.IntervalSignature, r.next()%5)
	for p := range recs {
		n := r.next() % 100
		for i := range n {
			if h := r.next(); h%4 == 0 && i > 0 {
				recs[p] = append(recs[p], recs[p][r.next()%i])
				continue
			}
			s := core.IntervalSignature{Proc: p, Index: i, BBV: make([]float64, 4)}
			for k := range s.BBV {
				s.BBV[k] = float64(r.next()%8) / 8
			}
			s.DDS = sweepDDS[r.next()%len(sweepDDS)]
			s.WSS[0] = uint64(r.next())
			s.WSS[1] = uint64(r.next() % 4)
			s.Instructions = uint64(r.next() % 4)
			s.Cycles = uint64(r.next())
			recs[p] = append(recs[p], s)
		}
	}
	return recs, sc
}

// sweepSeeds are the randomized cases TestSweepMatchesReference runs
// and FuzzSweepMatchesReference starts from: every detector kind at
// table sizes 1, 4 and 64 with random bodies, which yields duplicate
// BBVs, exact threshold ties, equal, NaN and ±Inf DDS values, streams
// longer than the table, and unsorted, duplicated threshold lists.
// Some cases also have no DDS list, no thresholds at all, or an empty
// first processor.
func sweepSeeds() [][]byte {
	rng := rand.New(rand.NewPCG(12, 2006))
	var seeds [][]byte
	for kind := range 4 {
		for _, size := range []int{1, 4, 64} {
			for j := range 12 {
				b := make([]byte, 3000)
				for i := range b {
					b[i] = byte(rng.UintN(256))
				}
				nB, nD := 6, 4
				switch j {
				case 0:
					nD = 0
				case 1:
					nB = 0
				}
				b[0], b[1], b[2], b[3] = byte(kind), byte(size-1), byte(nB), byte(nD)
				if off := 4 + nB + nD; j%3 == 2 {
					b[off], b[off+1] = 4, 0 // four processors, the first empty
				}
				seeds = append(seeds, b)
			}
		}
	}
	return seeds
}

// checkSweepMatchesReference compares every CurvePoint field bit for bit.
func checkSweepMatchesReference(t *testing.T, recs [][]core.IntervalSignature, sc SweepConfig) {
	t.Helper()
	got, want := Sweep(recs, sc), sweepReference(recs, sc)
	if (got == nil) != (want == nil) || len(got) != len(want) {
		t.Fatalf("%v: got %d points (nil %v), want %d (nil %v)", sc.Kind, len(got), got == nil, len(want), want == nil)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := range got {
		g, w := got[i], want[i]
		if !same(g.Phases, w.Phases) || !same(g.CoV, w.CoV) || !same(g.Threshold, w.Threshold) || !same(g.ThresholdDDS, w.ThresholdDDS) {
			t.Fatalf("%v point %d: got %+v, want %+v", sc.Kind, i, g, w)
		}
	}
}

func TestSweepMatchesReference(t *testing.T) {
	evicted, empty := 0, 0
	for _, seed := range sweepSeeds() {
		recs, sc := decodeSweepCase(seed)
		for _, rs := range recs {
			if len(rs) > sc.TableSize {
				evicted++
			}
			if len(rs) == 0 {
				empty++
			}
		}
		checkSweepMatchesReference(t, recs, sc)
	}
	if evicted == 0 || empty == 0 {
		t.Errorf("%d streams outgrew their table and %d processors were empty; want both", evicted, empty)
	}
	// Recorded signatures of a real run, on the paper's threshold grids.
	m, _, err := Simulate(quickRun(t, "lu", 4))
	if err != nil {
		t.Fatal(err)
	}
	maxD := 1 + float64(m.Network().Diameter())
	for _, kind := range []core.DetectorKind{core.DetectorBBV, core.DetectorBBVDDV, core.DetectorDDS, core.DetectorWSS} {
		checkSweepMatchesReference(t, m.RecordsByProc(), DefaultSweep(kind, maxD))
	}
}

func FuzzSweepMatchesReference(f *testing.F) {
	for _, seed := range sweepSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, sc := decodeSweepCase(data)
		checkSweepMatchesReference(t, recs, sc)
	})
}
