package dsmphase_test

import (
	"bytes"
	"strings"
	"testing"

	"dsmphase"
)

// The facade tests exercise the public API exactly as a downstream user
// would, end to end.

func quickRC(procs int) dsmphase.RunConfig {
	return dsmphase.RunConfig{
		Workload:             "lu",
		Size:                 dsmphase.SizeTest,
		Procs:                procs,
		IntervalInstructions: 20_000 / uint64(procs),
		Seed:                 1,
	}
}

// runCurve simulates one configuration and sweeps one detector over it.
func runCurve(t *testing.T, rc dsmphase.RunConfig, kind dsmphase.DetectorKind) dsmphase.CurveResult {
	t.Helper()
	m, sum, err := dsmphase.Simulate(rc)
	if err != nil {
		t.Fatal(err)
	}
	return dsmphase.SweepMachine(m, rc, kind, sum)
}

func TestPublicQuickstartFlow(t *testing.T) {
	rc := quickRC(4)
	m, sum, err := dsmphase.Simulate(rc)
	if err != nil {
		t.Fatal(err)
	}
	bbv := dsmphase.SweepMachine(m, rc, dsmphase.DetectorBBV, sum)
	ddv := dsmphase.SweepMachine(m, rc, dsmphase.DetectorBBVDDV, sum)
	var buf bytes.Buffer
	if err := dsmphase.WriteFigure(&buf, "quickstart", []dsmphase.CurveResult{bbv, ddv}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "BBV+DDV") {
		t.Error("output missing the DDV curve")
	}
	b, d := dsmphase.CompareAtPhases(bbv, ddv, 25)
	if d > b*1.1 {
		t.Errorf("public API: DDV (%v) should not be worse than BBV (%v)", d, b)
	}
}

func TestPublicDetectorAPI(t *testing.T) {
	det := dsmphase.NewDetector(dsmphase.DetectorBBVDDV, 32, 32, 0.2, 0.3)
	for i := 0; i < 100; i++ {
		det.Acc.Instruction()
		det.Acc.Branch(0x40)
	}
	p1, matched := det.EndInterval(1.0)
	if matched {
		t.Error("first interval must allocate")
	}
	for i := 0; i < 100; i++ {
		det.Acc.Instruction()
		det.Acc.Branch(0x40)
	}
	p2, matched := det.EndInterval(1.01)
	if !matched || p2 != p1 {
		t.Errorf("repeat interval = (%d, %v), want (%d, true)", p2, matched, p1)
	}
}

func TestPublicWorkloadRegistry(t *testing.T) {
	ws := dsmphase.Workloads()
	if len(ws) != 10 {
		t.Fatalf("got %d workloads, want Table II's four plus the ocean/radix/barnes/water extensions and the two adversarial kernels", len(ws))
	}
	w, err := dsmphase.WorkloadByName("equake")
	if err != nil || w.Name() != "equake" {
		t.Errorf("WorkloadByName = (%v, %v)", w, err)
	}
	sz, err := dsmphase.ParseSize("small")
	if err != nil || sz != dsmphase.SizeSmall {
		t.Errorf("ParseSize = (%v, %v)", sz, err)
	}
}

func TestPublicOverheadModel(t *testing.T) {
	o := dsmphase.PaperOverheadConfig()
	bw := o.BandwidthPerProcessor()
	if bw < 150e3 || bw > 170e3 {
		t.Errorf("overhead bandwidth = %v, want the paper's ~160kB/s", bw)
	}
}

func TestPublicPredictorAndTuning(t *testing.T) {
	m, _, err := dsmphase.Simulate(quickRC(2))
	if err != nil {
		t.Fatal(err)
	}
	recs := m.RecordsByProc()[0]
	ids := dsmphase.ClassifyRecorded(dsmphase.DetectorBBVDDV, 32, 0.2, 0.3, recs)
	acc := dsmphase.PredictorAccuracy(dsmphase.NewMarkovPredictor(), ids)
	if acc < 0 || acc > 1 {
		t.Errorf("accuracy = %v", acc)
	}
	scores := [][]float64{make([]float64, len(ids)), make([]float64, len(ids))}
	for i := range ids {
		scores[0][i], scores[1][i] = 1, 2
	}
	out := dsmphase.ReplayTuning(dsmphase.NewTuningController(2, 1), ids, scores)
	if out.Intervals != len(ids) {
		t.Errorf("replay covered %d intervals, want %d", out.Intervals, len(ids))
	}
}

func TestPublicMachineConfigIsTableI(t *testing.T) {
	cfg := dsmphase.DefaultMachineConfig(8)
	if cfg.CPU.ClockHz != 2e9 || cfg.CPU.Width != 6 {
		t.Error("core parameters deviate from Table I")
	}
	if cfg.L2.SizeBytes != 2<<20 || cfg.L2.Ways != 8 {
		t.Error("L2 parameters deviate from Table I")
	}
	if cfg.IntervalInstructions != 3_000_000/8 {
		t.Errorf("interval = %d, want the paper's 3M/n", cfg.IntervalInstructions)
	}
}
