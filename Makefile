# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands; keep the two in sync.

GO ?= go

# Static-analysis tool versions are pinned here so `make static` runs the
# same binaries locally and in CI; bump them deliberately, in one place.
STATICCHECK := honnef.co/go/tools/cmd/staticcheck@2025.1.1
GOVULNCHECK := golang.org/x/vuln/cmd/govulncheck@v1.1.4

.PHONY: build test test-full-replan race lint static bench bench-ci bench-alloc bench-kernels bench-baseline scale-smoke scale-baseline trace-lint fault-lint profile-smoke fuzz matrix matrix-smoke daemon-smoke clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The goldens and the simulator/daemon equivalence checks on the full-rebuild
# scheduling path: SUNFLOW_FULL_REPLAN=1 disables plan-cache reuse, and every
# pinned digest must hold either way. Same as the CI test job's second step.
test-full-replan:
	SUNFLOW_FULL_REPLAN=1 $(GO) test ./internal/sim ./internal/daemon ./internal/circuit -run 'Golden|EngineMatchesSimulator|RecoveryBitIdentical|QuickEngineBookkeeping'

race:
	$(GO) test -race ./...

# The scheduler works in integer-nanosecond ticks: an epsilon time comparison
# must not creep back into the PRT, the intra search, the circuit engine, the
# daemon or the simulator's circuit driver.
EPS_FREE := $$(ls internal/core/*.go internal/circuit/*.go internal/daemon/*.go | grep -v '_test\.go$$') internal/sim/circuit.go

lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...
	@if grep -n -E 'timeEps|TimeEps' $(EPS_FREE); then echo "epsilon time comparisons are not allowed in tick-based code" >&2; exit 1; fi

# Deeper static analysis, same pinned tool versions as the CI static job.
# Both tools download on first use (go run caches the builds).
static:
	$(GO) run $(STATICCHECK) ./...
	$(GO) run $(GOVULNCHECK) ./...

# Print the benchmark timings without gating.
bench:
	$(GO) test -bench . -benchtime 1x -count 3 -run '^$$' .

# What CI runs: benchmark, attach deterministic obs counters, gate ns/op
# against the committed baseline (>25% regression fails). -require-all makes
# a benchmark that exists in the baseline but vanished from the run a hard
# failure — a silently dropped benchmark would otherwise pass the gate.
# -history appends the run to a JSONL trend file (informational deltas only;
# the hard gate stays with -baseline) which the CI bench job uploads as an
# artifact.
bench-ci:
	$(GO) test -bench . -benchtime 1x -count 3 -benchmem -run '^$$' . | $(GO) run ./cmd/benchci -out BENCH_ci.json -baseline BENCH_baseline.json -require-all -history BENCH_history.jsonl

# Allocation gate over the scheduler hot-path microbenchmarks: the intra
# planner, PRT and combinatorial-kernel benchmarks run with -benchmem and
# fail on allocs/op regressions against the committed baseline, mirroring
# the >25% ns/op gate.
bench-alloc:
	$(GO) test -bench 'SunflowIntra|SunflowInter|EngineEvent|PRT_|Solstice_|BvN_|HopcroftKarp_|MaxMinFair_' -benchtime 1x -count 3 -benchmem -run '^$$' . | $(GO) run ./cmd/benchci -out BENCH_alloc.json -baseline BENCH_baseline.json -gate-allocs -tolerance 10

# The combinatorial kernels alone (matching, BvN/Sinkhorn, Solstice slicing,
# max-min water-filling) with allocation counts — the quick loop while
# working on DESIGN.md §8 machinery.
bench-kernels:
	$(GO) test -bench 'Solstice_|BvN_|HopcroftKarp_|MaxMinFair_' -benchtime 1x -count 3 -benchmem -run '^$$' .

# Refresh the committed baseline after an intentional performance change.
bench-baseline:
	$(GO) test -bench . -benchtime 1x -count 3 -benchmem -run '^$$' . | $(GO) run ./cmd/benchci -write-baseline BENCH_baseline.json

# Million-Coflow scale gate (docs/SCALE.md): stream a 100k-Coflow trace to
# disk with tracegen (constant resident memory), run it twice end-to-end
# through the bounded-memory archive path under a peak-RSS budget, and
# require the two order-independent archive digests to be byte-identical.
# A third run sets SUNFLOW_FULL_REPLAN=1 (no incremental schedule reuse) and
# must produce the same digest again — the reference-oracle check at full
# scale.
# Then the SUNFLOW_SCALE benchmark runs once and benchci gates wall time,
# allocs/op and peak RSS against the committed scale baseline. Each 100k
# run takes ~5 minutes; override SCALE_COFLOWS for a quicker local loop
# (the benchmark stays at 100k regardless). Same as the CI scale job.
SCALE_COFLOWS ?= 100000
SCALE_RSS_MB ?= 256
scale-smoke:
	$(GO) build -o bin/tracegen ./cmd/tracegen
	$(GO) build -o bin/sunflow-scale ./cmd/sunflow-scale
	bin/tracegen -ports 150 -coflows $(SCALE_COFLOWS) -horizon 684410.65 -seed 1 -o scale-trace.txt
	bin/sunflow-scale -in scale-trace.txt -max-rss-mb $(SCALE_RSS_MB) -digest-out scale-digest-1.txt
	bin/sunflow-scale -in scale-trace.txt -max-rss-mb $(SCALE_RSS_MB) -digest-out scale-digest-2.txt
	cmp scale-digest-1.txt scale-digest-2.txt
	@echo "scale-smoke: archive digest byte-identical across two runs"
	SUNFLOW_FULL_REPLAN=1 bin/sunflow-scale -in scale-trace.txt -max-rss-mb $(SCALE_RSS_MB) -digest-out scale-digest-full.txt
	cmp scale-digest-1.txt scale-digest-full.txt
	@echo "scale-smoke: incremental and full-replan archive digests byte-identical"
	SUNFLOW_SCALE=1 $(GO) test -bench SunflowInter_100k -benchtime 1x -benchmem -run '^$$' . | $(GO) run ./cmd/benchci -out BENCH_scale.json -baseline BENCH_scale_baseline.json -gate-rss -require-all

# Refresh the committed scale baseline after an intentional change to the
# streaming path's speed, allocations or memory footprint.
scale-baseline:
	SUNFLOW_SCALE=1 $(GO) test -bench SunflowInter_100k -benchtime 1x -benchmem -run '^$$' . | $(GO) run ./cmd/benchci -write-baseline BENCH_scale_baseline.json

# Trace a fixed-seed run, check the docs/TRACE.md invariants, render the
# HTML report. Same pipeline as the CI trace job.
trace-lint:
	$(GO) run ./cmd/repro -seed 1 -coflows 40 -ports 24 -maxwidth 8 -trace events.jsonl fig9
	$(GO) run ./cmd/sunflow-analyze lint events.jsonl
	$(GO) run ./cmd/sunflow-analyze report -o report.html events.jsonl

# Fault-injection pipeline (docs/FAULTS.md): run the resilience experiment
# with tracing and verify the degraded-fabric trace satisfies every replay
# invariant, including retry_delta and down_port_overlap. Same as the CI
# faults job.
fault-lint:
	$(GO) run ./cmd/repro -seed 1 -trace fault-events.jsonl resilience
	$(GO) run ./cmd/sunflow-analyze lint fault-events.jsonl

# Self-profiling pipeline (docs/OBSERVABILITY.md): a fixed-seed run with
# spans recorded into the trace, the span lint rules (span_structure,
# span_containment) checked alongside every other invariant, and the
# per-phase table plus flamegraph SVG rendered. Same as the CI
# profile-smoke job; the SVG is the uploaded artifact.
profile-smoke:
	$(GO) run ./cmd/repro -seed 1 -coflows 40 -ports 24 -maxwidth 8 -profile -trace profile-events.jsonl fig9
	$(GO) run ./cmd/sunflow-analyze lint profile-events.jsonl
	$(GO) run ./cmd/sunflow-analyze profile -o profile.svg profile-events.jsonl

# Short fuzz smoke over the three untrusted-input decoders: the whole-file
# benchmark trace parser, the streaming trace Scanner (held to the parser's
# verdicts and jobs) and the JSON fault-plan decoder. Same as the CI fuzz job.
FUZZTIME ?= 20s
fuzz:
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzParseJobs$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzScannerMatchesParseJobs$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fault -run '^$$' -fuzz '^FuzzDecodePlan$$' -fuzztime $(FUZZTIME)

# Nightly-scale scenario matrix (docs/MATRIX.md): all five schedulers across
# fabric sizes, delta regimes and workload shapes, five replications per
# cell, rolled up into matrix-out/{cells.jsonl,report.html}.
matrix:
	$(GO) run ./cmd/repro -matrix examples/matrix/nightly.json -matrix-out matrix-out

# CI-scale matrix plus the determinism gate: the smoke spec runs twice and
# the machine-readable cell rows must be byte-identical. The shard spec then
# sweeps shard_workers over one scenario and every cell's replication rows
# must match the serial cell's — sharded execution may never change a
# reported number. Same as the CI matrix-smoke job; the first run's
# report.html is the uploaded artifact.
matrix-smoke:
	$(GO) run ./cmd/repro -matrix examples/matrix/smoke.json -matrix-out matrix-smoke-out
	$(GO) run ./cmd/repro -matrix examples/matrix/smoke.json -matrix-out matrix-smoke-rerun
	cmp matrix-smoke-out/cells.jsonl matrix-smoke-rerun/cells.jsonl
	@echo "matrix-smoke: cells.jsonl byte-identical across two runs"
	$(GO) run ./cmd/repro -matrix examples/matrix/shard-smoke.json -matrix-out matrix-shard-out
	@n=$$(sed -n 's/.*"reps":\(\[[^]]*\]\).*/\1/p' matrix-shard-out/cells.jsonl | sort -u | wc -l); \
	if [ "$$n" != "1" ]; then echo "matrix-smoke: shard cells reported $$n distinct rep rows, want 1" >&2; exit 1; fi
	@echo "matrix-smoke: shard_workers sweep rep rows identical to serial"

# End-to-end crash-recovery smoke for the online daemon (docs/DAEMON.md):
# build sunflowd, stream a fixed-seed workload over the /v1 API, kill -9 the
# process mid-run, restart it on the same data directory, and require the
# recovered state digest and every Coflow CCT to be bit-identical to an
# uninterrupted in-process reference; then SIGTERM and require a clean drain
# that checkpoints everything. Same as the CI daemon-smoke job.
daemon-smoke:
	$(GO) build -o bin/sunflowd ./cmd/sunflowd
	$(GO) run ./cmd/sunflowd-smoke -bin bin/sunflowd

clean:
	rm -f BENCH_ci.json BENCH_alloc.json BENCH_history.jsonl events.jsonl fault-events.jsonl report.html
	rm -f profile-events.jsonl profile.svg
	rm -f BENCH_scale.json scale-trace.txt scale-digest-1.txt scale-digest-2.txt scale-digest-full.txt
	rm -rf matrix-out matrix-smoke-out matrix-smoke-rerun matrix-shard-out bin
