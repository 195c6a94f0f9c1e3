package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
)

// The correctness gate at the default seed: the SHA-256 of every
// rendered report and the simulated counters of every in-process
// workload, pinned in pins.json. Any seed is also checked for
// determinism and against the served/artifact paths; the pins
// additionally catch a change that moves every path together.
//
// After an intentional modelling or format change, re-pin with
//
//	dsmbench -workload <name> -seed 1 -trace 1 -repin dsmbench/pins.json
//
// (run.sh forwards the flags) and rebuild.

//go:embed pins.json
var pinsJSON []byte

// pinSet is the pins file: one entry per in-process workload.
type pinSet struct {
	Seed      uint64                  `json:"seed"`
	Workloads map[string]workloadPins `json:"workloads"`
}

type workloadPins struct {
	// Reports maps grid name to the SHA-256 of its markdown report.
	Reports map[string]string `json:"reports"`
	// Counters holds simulated counts summed over the distinct
	// simulations: machine.* from the run summaries (checked by every
	// run) and coherence/cache/network stats (checked by traced runs).
	Counters map[string]float64 `json:"counters"`
}

// embeddedPins are the committed pins; a malformed file is a build
// defect, caught by the benchmark's tests.
var embeddedPins = mustPins(pinsJSON)

func mustPins(data []byte) *pinSet {
	var ps pinSet
	if err := json.Unmarshal(data, &ps); err != nil {
		panic(fmt.Sprintf("dsmbench: pins.json: %v", err))
	}
	return &ps
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkPins compares a run's reports and counters with the pins when
// the run is at the pinned seed. Each mismatch is a failed operation.
// counters may be a subset of the pinned ones (an untraced run has no
// protocol stats); every counter it does carry must be pinned.
func checkPins(res *result, ps *pinSet, workload string, seed uint64, grids []*compiled, reports [][]byte, counters map[string]float64) {
	if ps == nil || seed != ps.Seed {
		return
	}
	before := res.Failed
	wp, ok := ps.Workloads[workload]
	if !ok {
		res.fail("pins: no pins for workload %s at seed %d", workload, seed)
		return
	}
	for i, g := range grids {
		want, ok := wp.Reports[g.Name]
		if got := digest(reports[i]); !ok || got != want {
			res.fail("pins: %s report sha256 %s, pinned %q", g.Name, got, want)
		}
	}
	for name, got := range counters {
		want, ok := wp.Counters[name]
		if !ok || got != want {
			res.fail("pins: %s = %v, pinned %v (present %v)", name, got, want, ok)
		}
	}
	if res.Failed == before {
		res.note("pins: %d reports and %d counters match the seed-%d pins", len(grids), len(counters), seed)
	}
}

// writePins records a traced run's reports and counters as the pins of
// (workload, seed), keeping the other workloads' entries.
func writePins(path, workload string, seed uint64, grids []*compiled, reports [][]byte, counters map[string]float64) error {
	ps := &pinSet{Seed: seed, Workloads: map[string]workloadPins{}}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, ps); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if ps.Seed != seed {
			return fmt.Errorf("%s pins seed %d, not %d", path, ps.Seed, seed)
		}
	}
	wp := workloadPins{Reports: map[string]string{}, Counters: counters}
	for i, g := range grids {
		wp.Reports[g.Name] = digest(reports[i])
	}
	if ps.Workloads == nil {
		ps.Workloads = map[string]workloadPins{}
	}
	ps.Workloads[workload] = wp
	data, err := json.MarshalIndent(ps, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
