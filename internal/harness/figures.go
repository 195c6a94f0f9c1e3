package harness

import "io"

// WriteFigure prints every curve of a figure.
func WriteFigure(w io.Writer, title string, results []CurveResult) error {
	rw := NewRowWriter(w)
	rw.Printf("== %s ==\n\n", title)
	for _, c := range results {
		WriteCurve(rw, c) // rw keeps the first error
	}
	return rw.Err()
}

// CompareAtPhases reports, for a (BBV, BBV+DDV) curve pair, the CoV each
// achieves with at most maxPhases phases — the comparison the paper
// makes in prose ("at 25 phases, DDV reduces CoV from 29% to 15%").
func CompareAtPhases(bbv, ddv CurveResult, maxPhases float64) (bbvCoV, ddvCoV float64) {
	return bbv.Curve.CoVAt(maxPhases), ddv.Curve.CoVAt(maxPhases)
}

// CompareAtCoV reports the phase count (tuning overhead) each detector
// needs to reach the target CoV ("at 29% CoV, DDV reduces phases from 25
// to 11").
func CompareAtCoV(bbv, ddv CurveResult, targetCoV float64) (bbvPhases, ddvPhases float64) {
	return bbv.Curve.PhasesAt(targetCoV), ddv.Curve.PhasesAt(targetCoV)
}
