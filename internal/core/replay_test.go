package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// onlineIDs classifies sigs through a fresh online table.
func onlineIDs(kind DetectorKind, size int, thBBV, thDDS float64, sigs []IntervalSignature) []int {
	out := make([]int, len(sigs))
	if kind == DetectorWSS {
		t := NewWSSTable(size, thBBV)
		for i := range sigs {
			out[i], _ = t.Classify(&sigs[i].WSS)
		}
		return out
	}
	t := NewDetector(kind, 1, size, thBBV, thDDS).Table
	for i, s := range sigs {
		out[i], _ = t.Classify(s.BBV, s.DDS)
	}
	return out
}

// The replay must match the online tables with and without the distance
// cache, and every threshold pair inside a replay's slack must replay to
// the same phase IDs.
func TestReplayMatchesOnlineTables(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 7))
	dds := []float64{0, 0.5, 1, 0.25, math.NaN(), math.Inf(1), math.Inf(-1)}
	ths := []float64{0, 0.25, 0.5, 1, 2, 0.3, math.NaN(), math.Inf(1)}
	sigs := make([]IntervalSignature, 120)
	for i := range sigs {
		if i > 0 && rng.IntN(4) == 0 {
			sigs[i] = sigs[rng.IntN(i)]
			continue
		}
		s := &sigs[i]
		s.BBV = make([]float64, 4)
		for k := range s.BBV {
			s.BBV[k] = float64(rng.IntN(4)) / 4
		}
		s.DDS = dds[rng.IntN(len(dds))]
		s.WSS[0] = uint64(rng.IntN(64))
	}
	for _, kind := range []DetectorKind{DetectorBBV, DetectorBBVDDV, DetectorDDS, DetectorWSS} {
		for _, size := range []int{1, 3, 32} {
			cached, inline := NewReplayer(kind, size), NewReplayer(kind, size)
			cached.Load(sigs, true)
			inline.Load(sigs, false)
			for _, tb := range ths {
				for _, td := range ths {
					want := onlineIDs(kind, size, tb, td, sigs)
					got, box := cached.Replay(tb, td)
					got = slices.Clone(got)
					if other, _ := inline.Replay(tb, td); !slices.Equal(got, want) || !slices.Equal(other, want) {
						t.Fatalf("%v size %d (%v, %v): cached %v inline %v, online %v", kind, size, tb, td, got, other, want)
					}
					for _, tb2 := range ths {
						for _, td2 := range ths {
							if !box.CoversBBV(tb2) || !box.CoversDDS(td2) {
								continue
							}
							if ids, _ := inline.Replay(tb2, td2); !slices.Equal(ids, got) {
								t.Fatalf("%v size %d: slack of (%v, %v) covers (%v, %v), whose replay differs", kind, size, tb, td, tb2, td2)
							}
						}
					}
				}
			}
		}
	}
}
