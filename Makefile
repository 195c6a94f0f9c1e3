# Mirrors .github/workflows/ci.yml so CI is reproducible locally:
# `make ci` runs exactly the gates the workflow runs.

GO ?= go

.PHONY: build test vet fmt fmt-check fma-check reader-fuzz-smoke bench bench-json bench-smoke bench-check golden golden-update tuning-smoke shard-smoke service-smoke workload-smoke workload-smoke-update fuzz-smoke sweep-fuzz-smoke coherence-race resilience-race chaos-smoke bench-module ci

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi

# Cross-architecture determinism gate (DESIGN.md §9). Go may fuse x*y+z
# into one fused multiply-add on arm64, ppc64le and s390x (never on
# amd64), which skips the product's rounding and moves result bits. An
# explicit float64(...) conversion forbids the fusion. Cross-compile
# the module for those targets with the compiler's assembly listing and
# fail on any fused mnemonic outside internal/plot, which only renders
# display output. No emulator is needed. The plot sites double as a
# canary: if none shows up, the listing format changed and the gate
# would be blind.
FMA_ARCHES = arm64 ppc64le s390x
FMA_OP = ^[[:space:]]+0x[0-9a-f]+ [0-9]+ \([^)]*\.go:[0-9]+\)[[:space:]]+F(N)?M(ADD|SUB)[SD]?[[:space:]]

fma-check:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && fail=0; \
	for arch in $(FMA_ARCHES); do \
		GOARCH=$$arch $(GO) build -gcflags=-S ./... > "$$tmp" 2>&1 || { cat "$$tmp" >&2; exit 1; }; \
		if ! grep -Eq '$(FMA_OP)' "$$tmp"; then \
			echo "fma-check: $$arch listing shows no fused op at all, not even the allow-listed internal/plot ones" >&2; exit 1; \
		fi; \
		hits=$$(grep -E '$(FMA_OP)' "$$tmp" | grep -v '/internal/plot/' || true); \
		if [ -n "$$hits" ]; then \
			echo "fma-check: fused multiply-add on $$arch:" >&2; echo "$$hits" >&2; fail=1; \
		fi; \
	done; \
	[ $$fail -eq 0 ] && echo "fma-check: no fused multiply-add outside internal/plot on $(FMA_ARCHES)"

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Refresh the "current" run of the perf-trajectory artifact
# (BENCH_baseline.json) from the Table I/II benchmarks. Earlier labeled
# runs — e.g. the pinned pre-optimization numbers — are preserved;
# compare runs with benchstat or by eye. DESIGN.md §10 explains the
# artifact.
#
# Both targets stage go test's output in a temp file so a benchmark
# failure fails the target — a straight pipe would take benchjson's
# exit status and let a partial run slip through.
bench-json:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
	$(GO) test -bench 'BenchmarkTableI|BenchmarkTableII|BenchmarkStep|BenchmarkSweep' -benchtime 1s -run '^$$' . ./internal/machine > "$$tmp" && \
	$(GO) run ./cmd/benchjson -label current -out BENCH_baseline.json < "$$tmp"

# Non-gating perf smoke: the perf-tracked benchmarks must still run and
# their output must still parse into the artifact schema. One iteration
# each — this guards the toolchain, not the numbers.
bench-smoke:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
	$(GO) test -bench 'BenchmarkTableI|BenchmarkStep' -benchtime 1x -run '^$$' . ./internal/machine > "$$tmp" && \
	$(GO) run ./cmd/benchjson -label smoke -out /dev/null < "$$tmp" && \
	echo "bench-smoke: benchmarks run and parse"

# The perf regression gate: re-measure the Table I benchmarks and fail
# on a >10% Minstr/s drop against the committed baseline's "current"
# run. Runs from a different CPU than the baseline's are incomparable,
# so the check downgrades itself to a warning there (see benchjson
# -check) — the gate bites on the machines that refreshed the baseline
# and stays quiet elsewhere.
bench-check:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp" "$$tmp.json"' EXIT && \
	$(GO) test -bench 'BenchmarkTableI' -benchtime 1s -run '^$$' . > "$$tmp" && \
	$(GO) run ./cmd/benchjson -label current -out "$$tmp.json" < "$$tmp" && \
	$(GO) run ./cmd/benchjson -check BENCH_baseline.json "$$tmp.json"

# End-to-end smoke of the coordinator service: start dsmphased on a
# free port with two local workers, submit the figure2 test grid
# through the real client (`experiments -submit`), and require the
# served report to be byte-identical to the direct unsharded run —
# twice, so the second pass also exercises the result cache.
service-smoke:
	@set -e; tmp=$$(mktemp -d); server_pid=""; \
	trap 'if [ -n "$$server_pid" ]; then kill $$server_pid 2>/dev/null || true; fi; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/experiments" ./cmd/experiments; \
	$(GO) build -o "$$tmp/dsmphased" ./cmd/dsmphased; \
	"$$tmp/dsmphased" -listen 127.0.0.1:0 -addr-file "$$tmp/addr" -data "$$tmp/data" -experiments "$$tmp/experiments" 2>"$$tmp/server.log" & server_pid=$$!; \
	i=0; while [ ! -f "$$tmp/addr" ] && [ $$i -lt 100 ]; do sleep 0.1; i=$$((i+1)); done; \
	[ -f "$$tmp/addr" ] || { echo "service-smoke: server did not start" >&2; cat "$$tmp/server.log" >&2; exit 1; }; \
	flags="-size test -interval 40000 -apps lu -grids figure2"; \
	"$$tmp/experiments" $$flags > "$$tmp/direct.md"; \
	"$$tmp/experiments" $$flags -submit "http://$$(cat "$$tmp/addr")" > "$$tmp/served.md"; \
	diff "$$tmp/direct.md" "$$tmp/served.md"; \
	"$$tmp/experiments" $$flags -submit "http://$$(cat "$$tmp/addr")" > "$$tmp/cached.md"; \
	diff "$$tmp/direct.md" "$$tmp/cached.md"; \
	echo "service-smoke: served and cached reports byte-identical to direct run"

# The byte-identity gates: every Report and TuningReport encoder
# against its golden file (the TestGolden pattern covers both
# families, plus the shard artifact), the replicates=1 Spec output
# against a hand-rolled simulate-then-sweep figure loop, shard-set
# merges against the unsharded run (all encoders, tuning included),
# and the
# cmd/experiments report — every section pinned to
# testdata/report_all.golden, the coordinator's cache keys pinned, the
# -tuning scorecard and the shard+merge path across worker counts — all
# under -race.
golden:
	$(GO) test -race -run 'TestGolden|TestSpecLegacyByteIdentity|TestMergeByteIdentity|TestMergeTuningByteIdentity|TestNamedGridRender' ./internal/harness
	$(GO) test -race -run 'TestReportAllGolden|TestJobKeyPinned|TestParallelReportByteIdentical|TestTuningScorecardDeterministic|TestShardMergeByteIdentity' ./cmd/experiments

# Regenerate the golden files (report and tuning encoders, shard
# artifact) after an intentional format change; remember to update
# docs/MERGE_FORMAT.md when the shard schema moves.
golden-update:
	$(GO) test -run 'TestGolden' -update ./internal/harness

# End-to-end smoke of the closed adaptive-tuning loop: the -tuning
# scorecard must render with confidence bands on a real (tiny) grid.
tuning-smoke:
	$(GO) run ./cmd/experiments -size test -interval 40000 -apps lu -replicates 2 -tuning > /dev/null

# End-to-end smoke of cross-machine sharding: run a tiny grid as two
# shards, merge the artifacts, and require the merged report to be
# byte-identical to the unsharded run (docs/MERGE_FORMAT.md's core
# guarantee, exercised through the real CLI).
shard-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	flags="-size test -interval 40000 -apps lu -replicates 2 -tuning"; \
	$(GO) run ./cmd/experiments $$flags > "$$tmp/unsharded.md" && \
	$(GO) run ./cmd/experiments $$flags -shard 0/2 -shard-out "$$tmp/s0.json" && \
	$(GO) run ./cmd/experiments $$flags -shard 1/2 -shard-out "$$tmp/s1.json" && \
	$(GO) run ./cmd/experiments $$flags -merge "$$tmp/s0.json" "$$tmp/s1.json" > "$$tmp/merged.md" && \
	diff "$$tmp/unsharded.md" "$$tmp/merged.md" && \
	echo "shard-smoke: merged report byte-identical"

# End-to-end smoke of the workload-definition front ends: run the
# committed example specs — two DSL files and one ingested trace —
# through the real CLI and require the report to be byte-identical to
# the pinned golden. The DSL compiler, the trace replayer, and the
# dynamic-registration path cannot drift silently.
WORKLOAD_SMOKE_FLAGS = -size test -interval 16000 -grids figure2 \
	-workload-file examples/adversarial_phases/oscillate.wdl \
	-workload-file examples/adversarial_phases/drift.wdl \
	-workload-file examples/trace_ingest/pingpong.wdl \
	-apps oscillate,drift,pingpong

workload-smoke:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
	$(GO) run ./cmd/experiments $(WORKLOAD_SMOKE_FLAGS) > "$$tmp" && \
	diff cmd/experiments/testdata/workload_smoke.golden "$$tmp" && \
	echo "workload-smoke: example-spec report byte-identical to golden"

# Re-pin the workload-smoke golden after an intentional change to the
# example specs or the report format.
workload-smoke-update:
	$(GO) run ./cmd/experiments $(WORKLOAD_SMOKE_FLAGS) > cmd/experiments/testdata/workload_smoke.golden

# Spec-fuzzer smoke: a short fixed-seed, fixed-budget campaign over
# the committed adversarial seeds. Hard invariant violations (compile
# panics, nondeterministic streams, hash instability) fail the gate;
# the campaign must also still find at least one detector-degrading
# spec — the capability the committed examples/fuzz_found corpus was
# born from. DESIGN.md §14 describes the operators and oracles.
fuzz-smoke:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
	$(GO) run ./cmd/wdlfuzz -budget 40 -seed 1 -out "" -fail-on-invariant > "$$tmp" && \
	grep -q '\[detector\]' "$$tmp" || { echo "fuzz-smoke: no detector finding in fixed-seed campaign" >&2; cat "$$tmp" >&2; exit 1; } && \
	echo "fuzz-smoke: campaign clean, detector finding reproduced"

# Threshold-sweep fuzz smoke: ten seconds of coverage-guided fuzzing of
# the memoized sweep against the per-point reference sweep, from the
# seed corpus of TestSweepMatchesReference. Every CurvePoint must match
# bit for bit (DESIGN.md §10, "Threshold sweep").
sweep-fuzz-smoke:
	$(GO) test -run '^$$' -fuzz=FuzzSweepMatchesReference -fuzztime=10s ./internal/harness

# Untrusted-reader fuzz smoke: ten seconds each of coverage-guided
# fuzzing of the shard-artifact reader (through merge, assembly and
# every encoder) and the cell-stream reader (torn tails, repeated or
# changed headers, cells before their header). Neither may panic.
# Minimization is capped so the budget goes to exploring, not to
# shrinking each new input.
reader-fuzz-smoke:
	$(GO) test -run '^$$' -fuzz='^FuzzReadShardArtifact$$' -fuzztime=10s -fuzzminimizetime=200x ./internal/harness
	$(GO) test -run '^$$' -fuzz='^FuzzReadCellStream$$' -fuzztime=10s -fuzzminimizetime=200x ./internal/harness

# The protocol seam's dedicated gate: both coherence backends (the
# conformance suite included) and the machine layer that selects
# between them, under the race detector.
coherence-race:
	$(GO) test -race ./internal/coherence/... ./internal/machine/...

# The resilience seam's dedicated gate: the coordinator and the fault
# plane under the race detector — retries, quarantine, degraded
# synthesis and the chaos campaign all cross goroutines.
resilience-race:
	$(GO) test -race ./internal/service/... ./internal/faults/...

# End-to-end smoke of the fault-injection plane through the real CLI:
# a fixed-seed chaos campaign (recovery schedules must complete
# byte-identical, hostile schedules must degrade marking exactly the
# injured cells, replays must be deterministic, corrupt cache entries
# must be evicted and recomputed). docs/SERVICE.md "Failure model".
chaos-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/experiments" ./cmd/experiments && \
	$(GO) build -o "$$tmp/dsmphased" ./cmd/dsmphased && \
	"$$tmp/dsmphased" -chaos 4 -chaos-seed 1 -data "$$tmp/data" -experiments "$$tmp/experiments" > "$$tmp/chaos.json"

# The benchmark is a nested module (dsmbench/go.mod) that compiles
# against internal packages, and `go build ./...` at the root skips
# nested modules: vet and test it on its own so an API change that
# breaks the benchmark fails here.
bench-module:
	$(GO) -C dsmbench vet ./...
	$(GO) -C dsmbench test ./...

ci: build fmt-check vet fma-check test bench-module coherence-race resilience-race bench bench-check golden tuning-smoke shard-smoke workload-smoke fuzz-smoke sweep-fuzz-smoke reader-fuzz-smoke service-smoke chaos-smoke
