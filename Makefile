GO ?= go

.PHONY: all build vet test race check crashtest fuzz conformance bench bench-json obs-bench perfgate lanebench minetest minebench soaktest clustertest loadtest clean

all: check

# Per-target budget for `make fuzz` (native Go fuzzing). Short by design:
# the checked-in corpora replay in ordinary `go test`, so this is a smoke
# of the mutation engine, not the soak.
FUZZTIME ?= 10s

# Fixed-seed conformance campaign size for `make conformance`.
CONFORM_N ?= 500
CONFORM_SEED ?= 1

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Tier-1 verification: build + vet + tests under the race detector
# (includes the fixed-seed mini-campaign and regression replay), then the
# full conformance campaign and a short fuzz budget per target.
check:
	$(GO) build ./... && $(GO) vet ./... && $(GO) test -race ./...
	$(MAKE) conformance
	$(MAKE) clustertest
	$(MAKE) minetest
	$(MAKE) loadtest
	$(MAKE) fuzz

# Whole-stack differential fuzzing: random charts + adversarial traces
# vs. the reference semantics, all execution tiers, server ingest, and
# crash recovery. Fixed seed — deterministic in CI; divergences land as
# replayable pairs in testdata/regressions/ and fail the run.
conformance:
	$(GO) run ./cmd/cescfuzz -n $(CONFORM_N) -seed $(CONFORM_SEED) -q -out testdata/regressions

# Native Go fuzz targets, one package at a time (go test allows a single
# -fuzz pattern per invocation). Checked-in seed corpora live under each
# package's testdata/fuzz/.
fuzz:
	$(GO) test ./internal/parser/ -run='^$$' -fuzz=FuzzParseChart -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/trace/ -run='^$$' -fuzz=FuzzStreamVCD -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wal/ -run='^$$' -fuzz=FuzzWALReplay -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/mine/ -run='^$$' -fuzz=FuzzMine -fuzztime=$(FUZZTIME)

# Spec-mining suite: the miner and its protocol models under the race
# detector (golden corpus byte-stability, gate soundness, mutant
# discrimination, the 64-lane corpus replay), then the cescmine CLI
# mining every checked-in corpus with the validation gate armed — the
# CI mining smoke.
minetest:
	$(GO) test -race ./internal/mine/ ./internal/axi/ ./cmd/cescmine/
	$(GO) run ./cmd/cescmine -q -name smoke_ocp -clock ocp_clk testdata/corpus/ocp_fig6_read.ndjson >/dev/null
	$(GO) run ./cmd/cescmine -q -name smoke_ahb -clock ahb_clk testdata/corpus/ahb_cli.ndjson >/dev/null
	$(GO) run ./cmd/cescmine -q -name smoke_axi -clock aclk testdata/corpus/axi4_burst.ndjson >/dev/null

# Mining-throughput snapshot: corpus decode, inference, and the
# validation gate on in-process model corpora; refreshes BENCH_MINE.json
# and appends the run to the versioned BENCH_HISTORY.jsonl.
minebench:
	$(GO) run ./cmd/cescbench -mine-json BENCH_MINE.json -history BENCH_HISTORY.jsonl

# Fault-tolerance suite: crash-recovery, quarantine, fault-injection,
# and client retry/exactly-once tests, under the race detector.
crashtest:
	$(GO) test -race -v -run 'Crash|Recovery|Quarantine|Dedup|Journal|Resume|ExactlyOnce|Injected|Truncated' \
		./internal/server/ ./internal/client/ ./internal/wal/ ./internal/faultinject/ ./internal/trace/

# Runs the in-tree benchmarks and records the machine-readable summary
# that tracks the perf trajectory across PRs (packed vs map engine, WAL,
# ingest) into BENCH_PR3.json.
bench:
	$(GO) test -bench=. -benchmem ./...
	$(GO) run ./cmd/cescbench -json BENCH_PR3.json

# Machine-readable micro-benchmark summary (name, ns/op, allocs/op).
bench-json:
	$(GO) run ./cmd/cescbench -json BENCH_local.json

# Observability-overhead suite: packed stepping with tracing disabled
# (must stay at 0 allocs/op), with the span ring recording per tick,
# with full violation provenance armed, and with the flight recorder
# armed, on the Fig. 6/7/8 workloads — plus the HLC and cross-node span
# propagation micro-benches. Refreshes the committed BENCH_PR10.json.
obs-bench:
	$(GO) run ./cmd/cescbench -obs-json BENCH_PR10.json

# Perf gate: re-run the observability suite against BENCH_PR10.json
# (which supersedes the PR-5 obs baseline: the same benches plus the
# flight-recorder and trace-propagation rows, re-recorded so wall-time
# gates compare against current hardware — BENCH_PR5.json stays in the
# tree as history) and the full micro-benchmark suite against
# BENCH_PR8.json, each with noise-aware thresholds (time must grow >50%
# AND >50ns to fail; any allocs/op increase fails — that gate protects
# the 0-alloc packed hot path). PERF_THRESHOLDS.json overrides the gate
# per benchmark: the bit-sliced lane benches carry an absolute
# 1280ns/op ceiling (20ns per monitor-tick x 64 lanes), the
# disabled-tracing and flight-recorder-armed benches a hard 0 allocs/op
# ceiling (enforced even when a baseline lacks the row), and the
# noisier I/O-bound benches get wider relative bands. Nonzero exit on
# regression. Every run appends one line to the versioned
# BENCH_HISTORY.jsonl, so the perf trajectory is tracked across PRs
# without diffing snapshots.
perfgate:
	$(GO) run ./cmd/cescbench -obs-json BENCH_gate.json -history BENCH_HISTORY.jsonl
	$(GO) run ./cmd/cescbench -compare -thresholds PERF_THRESHOLDS.json -history BENCH_HISTORY.jsonl BENCH_PR10.json BENCH_gate.json
	rm -f BENCH_gate.json
	$(GO) run ./cmd/cescbench -json BENCH_gate.json -history BENCH_HISTORY.jsonl
	$(GO) run ./cmd/cescbench -compare -thresholds PERF_THRESHOLDS.json -history BENCH_HISTORY.jsonl BENCH_PR8.json BENCH_gate.json
	rm -f BENCH_gate.json

# Lane smoke: the fast CI rider — runs only the bit-sliced lane and
# zero-copy batch-decode benches and diffs them against the checked-in
# BENCH_LANE.json under the same per-benchmark rules (the 1280ns/op lane
# ceiling and the 0-alloc decode gate).
lanebench:
	$(GO) run ./cmd/cescbench -lane-json BENCH_lane_gate.json -history BENCH_HISTORY.jsonl
	$(GO) run ./cmd/cescbench -compare -thresholds PERF_THRESHOLDS.json BENCH_LANE.json BENCH_lane_gate.json
	rm -f BENCH_lane_gate.json

# Overload soak: one node with a deliberately small memory budget takes
# thousands of sessions of Fig. 6 OCP traffic through the retrying
# client while the governor sheds and the janitor pages — zero lost
# verdicts, bounded session memory, clean Prometheus exposition.
# SOAK_SESSIONS scales the population (CI uses the default).
soaktest:
	$(GO) test -race -run TestOverloadSoak -v ./internal/server/

# Clustering suite: ring property tests, migration/promotion e2e, and
# churn stress under the race detector, then the process-level smoke
# (builds the real cescd binary, runs a 3-node ring, kill -9s the
# session owner, and requires the standby promotion to take over).
clustertest:
	$(GO) test -race ./internal/cluster/ ./internal/client/
	$(GO) test -run TestClusterSmoke -v ./cmd/cescd/

# End-to-end benchmark build check: cmd/cescload is its own module
# (reaching internal/ through a replace directive), so the root
# `go build ./...` and `go test ./...` skip it. Vetting it and running its
# short tests compiles it against the current internal packages, which
# catches API changes that would break the benchmark. The benchmark
# itself runs with `bash cmd/cescload/bench.sh`.
loadtest:
	cd cmd/cescload && $(GO) vet . && $(GO) test -short .

clean:
	$(GO) clean ./...
	rm -f BENCH_local.json
