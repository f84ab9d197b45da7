GO ?= go

.PHONY: all build vet test race check crashtest fuzz conformance bench perfgate minetest soaktest clustertest loadtest clean

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
# package's testdata/fuzz/. FuzzReadFrames seeds from multi-kilobyte
# golden segments, whose interesting mutations would otherwise spend the
# whole budget in the default 60s minimization.
fuzz:
	$(GO) test ./internal/parser/ -run='^$$' -fuzz=FuzzParseChart -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/trace/ -run='^$$' -fuzz=FuzzStreamVCD -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wal/ -run='^$$' -fuzz=FuzzWALReplay -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wal/ -run='^$$' -fuzz=FuzzReadFrames -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s
	$(GO) test ./internal/server/ -run='^$$' -fuzz=FuzzJournalReplay -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/server/ -run='^$$' -fuzz=FuzzAppendTick -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/server/ -run='^$$' -fuzz=FuzzReadBodies -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/server/ -run='^$$' -fuzz=FuzzBatchDecode -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/jsonx/ -run='^$$' -fuzz=FuzzLexer -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/mine/ -run='^$$' -fuzz=FuzzMine -fuzztime=$(FUZZTIME)

# Spec-mining suite: the miner and its protocol models under the race
# detector (golden corpus byte-stability, gate soundness, mutant
# discrimination), then the cescmine CLI
# mining every checked-in corpus with the validation gate armed — the
# CI mining smoke.
minetest:
	$(GO) test -race ./internal/mine/ ./internal/axi/ ./cmd/cescmine/
	$(GO) run ./cmd/cescmine -q -name smoke_ocp -clock ocp_clk testdata/corpus/ocp_fig6_read.ndjson >/dev/null
	$(GO) run ./cmd/cescmine -q -name smoke_ahb -clock ahb_clk testdata/corpus/ahb_cli.ndjson >/dev/null
	$(GO) run ./cmd/cescmine -q -name smoke_axi -clock aclk testdata/corpus/axi4_burst.ndjson >/dev/null

# Fault-tolerance suite: crash-recovery, quarantine, fault-injection,
# the interval policy's background-sync durability,
# and client retry/exactly-once tests, under the race detector.
crashtest:
	$(GO) test -race -v -run 'Crash|Recovery|Quarantine|Dedup|Journal|Resume|ExactlyOnce|Injected|Truncated|Sync' \
		./internal/server/ ./internal/client/ ./internal/wal/ ./internal/faultinject/ ./internal/trace/

# Runs the in-tree `go test` benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Perf gate: one run of the cescbench micro-benchmark suite (stepping,
# ingest, WAL, observability overhead, spec mining), checked against the
# allocs/op ceilings in PERF_THRESHOLDS.json. Allocation counts do not
# depend on the machine, so the gate judges a run on any hardware; wall
# time is judged end to end by `bash cmd/cescload/bench.sh` pairs on one
# machine. Nonzero exit if a row is over its ceiling or a ceiling names
# no row. The summary lands in the ignored .bench_build/; every run
# appends one line to the versioned BENCH_HISTORY.jsonl, so the perf
# trajectory is tracked across PRs.
perfgate:
	mkdir -p .bench_build
	$(GO) run ./cmd/cescbench -json .bench_build/perfgate.json -thresholds PERF_THRESHOLDS.json -history BENCH_HISTORY.jsonl

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
