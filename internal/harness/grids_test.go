package harness

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestNamedGridRender checks the grid-level report pipeline: Hook
// installs the tuning driver exactly for tuning grids, and Render
// reproduces the family's own Run/RunTuning + encoder bytes in every
// format of the shared registry.
func TestNamedGridRender(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed grid runs")
	}
	plain := NamedGrid{Name: "plain", Spec: shardSpec()}
	tuning := NamedGrid{Name: "tuning", Tuning: true, Spec: shardTuningSpec()}
	rep := plain.Spec.Run(Options{Parallel: 4})
	trep, err := tuning.Spec.RunTuning(Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string][]byte{
		plain.Name:  encodeAll(t, rep),
		tuning.Name: encodeAllTuning(t, trep),
	}
	for _, g := range []NamedGrid{plain, tuning} {
		hook, err := g.Hook()
		if err != nil {
			t.Fatal(err)
		}
		if (hook != nil) != g.Tuning {
			t.Errorf("%s: Hook() = %v, want a hook exactly for tuning grids", g.Name, hook != nil)
		}
		results := g.Spec.RunShard(0, 1, Options{Parallel: 4, Hook: hook})
		for _, format := range EncoderNames() {
			var buf bytes.Buffer
			if err := g.Render(&buf, format, "shard identity", results); err != nil {
				t.Fatalf("%s %s: %v", g.Name, format, err)
			}
			if !bytes.Equal(buf.Bytes(), want[g.Name][format]) {
				t.Errorf("%s: Render(%s) differs from the family's own encoder:\n--- want ---\n%s\n--- got ---\n%s",
					g.Name, format, want[g.Name][format], buf.Bytes())
			}
		}
		if err := g.Render(&bytes.Buffer{}, "yaml", "", results); err == nil || !strings.Contains(err.Error(), "unknown") {
			t.Errorf("%s: Render with an unknown format returned %v", g.Name, err)
		}
	}
}

// failingWriter accepts limit bytes, then fails every write.
type failingWriter struct{ limit int }

var errWriteFailed = errors.New("write failed")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.limit {
		n := w.limit
		w.limit = 0
		return n, errWriteFailed
	}
	w.limit -= len(p)
	return len(p), nil
}

// TestRowWriter checks the shared line writer's row shapes and that it
// keeps the first write error, skipping every later write.
func TestRowWriter(t *testing.T) {
	var buf bytes.Buffer
	rw := NewRowWriter(&buf)
	rw.CSV("a", 1, 2.5, "")
	rw.MarkdownHeader("x", "y")
	rw.Markdown("—", 7)
	rw.Printf("%d%%\n", 5)
	if want := "a,1,2.5,\n| x | y |\n|---|---|\n| — | 7 |\n5%\n"; buf.String() != want || rw.Err() != nil {
		t.Errorf("rows = %q, err %v; want %q", buf.String(), rw.Err(), want)
	}

	fw := &failingWriter{limit: 4}
	rw = NewRowWriter(fw)
	rw.CSV("abc", "def")
	fw.limit = 1 << 20 // a later write would succeed; it must not happen
	rw.CSV("later")
	rw.Printf("later\n")
	if n, err := rw.Write([]byte("x")); n != 0 || !errors.Is(err, errWriteFailed) {
		t.Errorf("Write after a failure = (%d, %v), want (0, the first error)", n, err)
	}
	if !errors.Is(rw.Err(), errWriteFailed) || fw.limit != 1<<20 {
		t.Errorf("Err = %v, later bytes written = %v", rw.Err(), fw.limit != 1<<20)
	}
}

// TestEncodersReportWriteError checks every encoder of both families
// returns the destination's write error, wherever it strikes.
func TestEncodersReportWriteError(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed golden runs")
	}
	rep, trep := goldenReport(), goldenTuningReport()
	for _, name := range EncoderNames() {
		for _, limit := range []int{0, 100} {
			enc, err := NewEncoder(name, "write error")
			if err != nil {
				t.Fatal(err)
			}
			if err := enc.Encode(&failingWriter{limit: limit}, rep); !errors.Is(err, errWriteFailed) {
				t.Errorf("Report %s encoder, failing after %d bytes: %v", name, limit, err)
			}
			tenc, err := NewTuningEncoder(name, "write error")
			if err != nil {
				t.Fatal(err)
			}
			if err := tenc.Encode(&failingWriter{limit: limit}, trep); !errors.Is(err, errWriteFailed) {
				t.Errorf("TuningReport %s encoder, failing after %d bytes: %v", name, limit, err)
			}
		}
	}
}
