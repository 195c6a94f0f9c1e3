package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dsmphase"
	"dsmphase/internal/service"
)

// reportAllFlags selects every report section: both figures, the
// overhead estimate, the ablation scorecard and the tuning scorecard,
// at two replicates so the CI columns and interval-aware claims render.
var reportAllFlags = []string{"-size", "test", "-interval", "40000", "-apps", "lu",
	"-replicates", "2", "-ablation", "-tuning"}

// TestReportAllGolden pins the whole report — every section, both
// report families — to testdata/report_all.golden, byte for byte.
func TestReportAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full report run")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "report_all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if err := run(reportAllFlags, &out, &errOut); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("report drifted from testdata/report_all.golden:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// TestJobKeyPinned pins the coordinator's result-cache key of every
// registry grid. A changed key silently orphans every cached result, so
// a change here must be deliberate.
func TestJobKeyPinned(t *testing.T) {
	want := map[string]string{
		"ablation": "ablation-8cfc675eb7325fd8",
		"figure2":  "figure2-4ac030d8bcca372a",
		"figure4":  "figure4-e81e24350a3e97b3",
		"tuning":   "tuning-088d05f2eb2b50ea-t7eba6ecb518e7876",
	}
	gp := dsmphase.GridParams{Size: dsmphase.SizeTest, Apps: []string{"lu"}, Interval: 40000, Seed: 1, Replicates: 2}
	names := dsmphase.GridNames()
	if len(names) != len(want) {
		t.Fatalf("registry grids %v, pinned %d", names, len(want))
	}
	for _, name := range names {
		g, err := dsmphase.BuildGrid(name, gp)
		if err != nil {
			t.Fatal(err)
		}
		if got := service.JobKey(g); got != want[name] {
			t.Errorf("JobKey(%s) = %s, want %s", name, got, want[name])
		}
	}
}

// failWriter accepts limit bytes, then fails every write.
type failWriter struct {
	limit int
}

var errDiskFull = errors.New("no space left on device")

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) > w.limit {
		n := w.limit
		w.limit = 0
		return n, errDiskFull
	}
	w.limit -= len(p)
	return len(p), nil
}

// TestRunReportsWriteError checks a report that cannot be written fails
// the run — for the hand-rendered figure sections as much as for the
// encoder-rendered scorecards — whether the first write fails or one
// partway through.
func TestRunReportsWriteError(t *testing.T) {
	if testing.Short() {
		t.Skip("full report run")
	}
	for _, grids := range []string{"figure2", "figure4", "ablation", "tuning"} {
		for _, limit := range []int{0, 200} {
			var errOut bytes.Buffer
			args := []string{"-size", "test", "-interval", "40000", "-apps", "lu", "-grids", grids}
			err := run(args, &failWriter{limit: limit}, &errOut)
			if !errors.Is(err, errDiskFull) {
				t.Errorf("-grids %s, write fails after %d bytes: run returned %v, want the write error", grids, limit, err)
			}
			if strings.Contains(errOut.String(), "total runtime") {
				t.Errorf("-grids %s: run reported success on stderr after a failed write", grids)
			}
		}
	}
}
