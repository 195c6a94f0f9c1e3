package harness

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"dsmphase/internal/workloads"
)

// The fuzz targets below cover the readers of untrusted bytes: shard
// artifacts and cell streams arrive from workers and disks. Bad input
// must produce an error (or be dropped), never a panic.

// goldenShard returns testdata/shard.golden and the Spec it was written
// from (see TestGoldenShardArtifact), so mutations that keep the plan
// fingerprint reach the merge, the assembly and the encoders.
func goldenShard(f *testing.F) ([]byte, *Spec) {
	f.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "shard.golden"))
	if err != nil {
		f.Fatal(err)
	}
	return data, NewSpec(WithApps("fmm"), WithProcs(2), WithSize(workloads.SizeTest), WithInterval(20_000))
}

// FuzzReadShardArtifact drives an artifact through every stage a merge
// runs: ReadShardArtifact, the per-cell decoders, MergeShards, Assemble
// and AssembleTuning, and every encoder of both families.
func FuzzReadShardArtifact(f *testing.F) {
	data, spec := goldenShard(f)
	f.Add(data)
	// Without its checksum line the artifact skips content validation,
	// so mutations reach the decoders instead of all failing the hash.
	f.Add(regexp.MustCompile(`(?m)^\s*"checksum": "[0-9a-f]+",\n`).ReplaceAll(data, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := ReadShardArtifact(bytes.NewReader(data))
		if err != nil {
			return
		}
		for gi := range a.Grids {
			g := &a.Grids[gi]
			for _, sc := range g.Results {
				_, _ = sc.CellResult()
				_, _ = g.TraceFor(sc.Index)
			}
			results, err := MergeShards(spec, g.Name, []*ShardArtifact{a})
			if err != nil {
				continue
			}
			rep := spec.Assemble(results)
			for _, name := range EncoderNames() {
				enc, err := NewEncoder(name, "fuzz")
				if err != nil {
					t.Fatal(err)
				}
				_ = enc.Encode(io.Discard, rep)
			}
			tr, err := spec.AssembleTuning(results)
			if err != nil {
				continue
			}
			for _, name := range EncoderNames() {
				enc, err := NewTuningEncoder(name, "fuzz")
				if err != nil {
					t.Fatal(err)
				}
				_ = enc.Encode(io.Discard, tr)
			}
		}
	})
}

// FuzzReadCellStream parses arbitrary stream bytes. Beyond never
// panicking, a torn tail — a line cut mid-record after the last intact
// one — must never change what is recovered, and every recovered grid
// must be keyed by its own header.
func FuzzReadCellStream(f *testing.F) {
	data, _ := goldenShard(f)
	a, err := ReadShardArtifact(bytes.NewReader(data))
	if err != nil {
		f.Fatal(err)
	}
	g := a.Grids[0]
	h := CellStreamHeader{Format: CellStreamFormat, Grid: g.Name, Fingerprint: g.Fingerprint, Of: 1, Cells: g.Cells}
	line := func(l streamLine) []byte {
		buf, err := json.Marshal(l)
		if err != nil {
			f.Fatal(err)
		}
		return append(buf, '\n')
	}
	header := line(streamLine{Header: &h})
	cell := line(streamLine{Grid: g.Name, Cell: &g.Results[0]})
	other := h
	other.Fingerprint = "0000000000000000"
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	f.Add(join(header, cell))                             // intact
	f.Add(join(header, cell[:len(cell)/2]))               // torn tail
	f.Add(join(header, header, cell))                     // repeated header: continuation
	f.Add(join(header, line(streamLine{Header: &other}))) // changed header: grid dropped
	f.Add(join(cell, header))                             // cell before its header
	f.Fuzz(func(t *testing.T, data []byte) {
		grids := parseCellStream(data)
		for name, sg := range grids {
			if sg.Header.Grid != name {
				t.Fatalf("grid %q recovered under key %q", sg.Header.Grid, name)
			}
			for _, sc := range sg.Cells {
				_, _ = sc.CellResult()
				_, _ = sc.DecodeTrace()
			}
		}
		torn := append(append(bytes.Clone(data), '\n'), cell[:len(cell)/2]...)
		if got := parseCellStream(torn); !reflect.DeepEqual(got, grids) {
			t.Fatalf("a torn tail changed the recovered stream: %d grids, want %d", len(got), len(grids))
		}
	})
}
