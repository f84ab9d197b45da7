// Command cescload is the end-to-end benchmark of cescd. It builds the
// daemon from this checkout, runs it as separate processes on loopback,
// drives it from one generator process through internal/client, and
// reports what a client sees: ticks verdicted per second, batch latency
// closed and open loop, read latency, CPU per tick on both sides, memory,
// set-up time and crash-recovery time. A traced run reports a per-layer
// budget that adds up to the batch latency instead. BENCHMARK.json at the
// repository root names the workloads, the metrics and their regression
// bounds.
//
// # Running it
//
// From the repository root:
//
//	bash cmd/cescload/bench.sh                          # all four workloads
//	bash cmd/cescload/bench.sh -workload ring_proxy -seed 7
//	bash cmd/cescload/bench.sh -workload lane_stream -trace 1
//
// bench.sh builds cescload into .bench_build/, with the Go build cache
// there too, and cescload builds cescd next to it; the first run in a
// fresh checkout compiles everything. (cd cmd/cescload && go run .) runs
// the same program with the default Go cache. cescload is a module of its
// own that reaches the repository's internal packages through a replace
// directive, so the repository's go build ./... and go test ./... leave it
// out. Its tests run with (cd cmd/cescload && go test .); -short skips the
// smoke test, which runs every workload with 1.5-second phases.
//
// Flags:
//
//	-workload NAME   run one workload (default: all four, in order)
//	-seed N          traffic seed (default 1); run i of -repeat uses N+i
//	-seconds S       measured seconds per run, half closed loop and half
//	                 open loop (default 20, the run_seconds of BENCHMARK.json)
//	-trace 0|1       1 traces the run and reports the per-layer metrics
//	-repeat N        runs per workload
//	-out FILE        append one JSON line per run
//	-agree A B       compare two -out files instead of running
//
// Each run prints every metric by name with its unit and sample count, the
// fail ratio, and the verdict of the correctness gate. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics: the end-to-end metrics of an untraced run, the
// per-layer metrics of a traced one, medians over runs when there are
// several, prefixed by workload when there are several workloads. The
// exit status is non-zero when the gate fails.
//
// # One run
//
//  1. Set-up, five times over: exec the nodes, wait until each answers
//     GET /readyz with 200, create every session on the node that owns it,
//     and have one warm-up batch per session acknowledged. setup_s is the
//     median; the last deployment carries the rest of the run. The
//     one-time go build is not part of it.
//  2. Closed loop for S/2 seconds. Each of two workers owns one keep-alive
//     connection and half the sessions, and posts their batches round
//     robin with ?wait=1, so every call returns once its batch is
//     verdicted. After every eighth acknowledged batch the worker reads the
//     session's /verdicts or, next time, its /diagnostics.
//  3. Open loop for S/2 seconds at the workload's fixed rate. Slot j of the
//     schedule is due at start + j/rate; the workers take alternate slots.
//     A slot that comes due while its worker is still busy waits, and each
//     request is timed from its due time, so a stall shows in the latency
//     of every request scheduled during it.
//  4. The correctness gate (below).
//  5. Recovery: a fresh node with a WAL, 16 sessions drawn from the
//     workload's mix, each journaled with 64 batches of 256 ticks' worth of
//     the workload's own batches. After every verdict is read, the node is
//     killed with SIGKILL and re-executed five times; each time is from
//     exec until /readyz answers 200. The node journals with -fsync never:
//     SIGKILL leaves written frames in the page cache, and replay does the
//     same work under any sync policy.
//
// The generator is one process with two connections, matching the two
// cores of the machine the bounds were measured on. Set-up requests,
// readiness polls and metric scrapes use short-lived connections outside
// the load phases. Traffic comes from the ocp, amba and axi protocol
// models, seeded by -seed; each mix gets a pool of 16 batches cut from one
// model trace, and each session replays its pool from a seeded offset. The
// daemon receives only the generated NDJSON.
//
// # Workloads
//
// lane_stream: one node, no WAL, -shards 2; 64 detect sessions on LaneRead
// (cmd/cescload/specs/lane_read.cesc: the Fig. 6 chart without its
// causality arrow), 4096-tick batches, open loop at 120 batches/s. Large
// batches let per-tick work dominate HTTP: client NDJSON encoding, the
// strict zero-copy BatchDecoder, and the packed step. It is the only
// workload whose sessions can step on the bit-sliced lane tier; the others
// bypass it. A lane group needs two batches in one shard's drain window,
// and with two connections that happens only when both in-flight batches
// arrive together, so a few percent of its ticks take the lane tier and
// the rest the packed program engine; monitor.lane_tick_share says how
// many.
//
// program_wal: one node, -wal-dir with -fsync always; 64 detect sessions,
// 16 each on OcpSimpleRead (Fig. 6), OcpBurstRead (Fig. 7), AmbaAhbCli
// (Fig. 8) and the mined axi4_burst_arlen4 (testdata/corpus/golden), each
// fed by its own protocol model; 256-tick batches, open loop at 700
// batches/s. Small durable batches make per-request cost and fsync
// dominate. The causality arrows keep every session on the program engine
// and off the lane tier.
//
// assert_diag: one node, no WAL; 32 assert-mode sessions with a
// diagnostics window of 8, 16 on OcpSimpleRead over OCP traffic and 16 on
// AmbaAhbCli over AHB traffic, both with a fault rate of 0.2; 1024-tick
// batches, open loop at 75 batches/s. It is the only workload on the
// lenient map decoder and the map step with diagnostics, and its reads of
// /diagnostics return real provenance, so it shows whether a change helps
// ingest by taxing readouts.
//
// ring_proxy: three nodes in a static ring (-cluster-name, -peers), each
// with -wal-dir and -fsync interval, replicating to standbys; 48 detect
// sessions on OcpSimpleRead, 16 created on each node. Worker i's
// connection goes to node i and carries only sessions another node owns,
// so every request takes the proxy hop; 256-tick batches, open loop at
// 450 batches/s. It is the only workload with a second HTTP hop and
// replication: a single-node gain shows here only diluted, a proxy gain
// only here.
//
// Together they cover fsync none, always and interval; the lane, program
// and assert session paths; one node and a ring. Detect traffic carries a
// 2% fault rate so that every workload's input depends on the seed.
// Open-loop rates are frozen at about a quarter of the closed-loop batch
// rate measured when the benchmark was defined, so that a machine slowed
// threefold by its neighbours still runs below saturation, and are never
// derived at run time.
//
// # End-to-end metrics
//
// The machines this runs on share their cores with other tenants, and the
// work a CPU-second buys there swings by up to two times within minutes;
// raw timings from runs a few minutes apart differ by that much. So every
// timing below, CPU time per tick included, is scaled to the speed of the
// reference machine: a speed gauge in the generator (gauge.go) times a
// fixed, allocation-free JSON-scanning kernel in thread CPU time every
// 50 ms, and a figure taken while the kernel ran at half its reference
// speed is halved (a rate doubled). Memory is not scaled. Rates, medians
// and CPU figures are computed per one-second window, each window scaled
// by its own speed, and the median window is reported; the report prints
// the machine's speed beside ticks_per_s, and loadgen.cpu_speed records
// it in traced runs.
//
//	ticks_per_s             ticks verdicted per second, closed loop
//	batch_p50_ms            closed-loop batch latency, send to acknowledged verdict
//	batch_p99_ms            same samples, over the whole phase; the report
//	                        names the highest percentile with at least ten
//	                        samples beyond it, and the sample count
//	open_p50_ms             open-loop latency, timed from the due time
//	read_p50_ms             GET /verdicts and /diagnostics beside ingest
//	server_cpu_ns_per_tick  utime+stime of every cescd process
//	                        (/proc/<pid>/stat) per verdicted tick, closed loop
//	client_cpu_ns_per_tick  getrusage(RUSAGE_SELF) of the generator per tick
//	server_rss_mb           largest VmHWM over the nodes at the end of the phases
//	recover_s               median time from re-exec to /readyz 200 after SIGKILL
//	setup_s                 median set-up time, defined above
//
// Failures are counted, not timed: attempted and failed in the result
// count every HTTP attempt the generator made, and a transport error or a
// 4xx/5xx answer (429 refusals the client retries included) is a failure.
// The report prints their ratio as fail_ratio; it is 0 on every workload.
//
// # Per-layer metrics
//
// A traced run (-trace 1) first repeats the closed phase untraced, then
// traces the closed and open phases. Spans come from cescload's own code
// around calls into each layer's public surface: client.send around
// Session.SendTicks, client.read around the reads, http.roundtrip from a
// timing http.RoundTripper passed in through client.Options.HTTPClient,
// loadgen.open from a slot's due time to its verdict, synth.spec_load and
// wal.recover. They are kept in memory and written to
// .bench_build/spans-<workload>.json when the run ends. Stage figures are
// before/after deltas of every node's own GET /metrics: the
// cescd_stage_latency_seconds{stage} _sum and _count series and the
// counters beside them. Each line names the end-to-end metric it should
// move, and on which workload:
//
//	client.send_us           mean wall time of SendTicks
//	client.self_us           send minus round trip: NDJSON encode, ack decode
//	                         -> ticks_per_s, client_cpu_ns_per_tick on lane_stream
//	client.retries           Client.Retries() delta -> failures
//	http.roundtrip_us        -> batch_p50_ms on program_wal and ring_proxy
//	server.decode_us         -> ticks_per_s, server_cpu_ns_per_tick on lane_stream
//	                         (strict decoder) and assert_diag (lenient decoder)
//	server.enqueue_us,
//	server.queue_wait_us     -> batch_p99_ms and open_p50_ms on every workload
//	server.verdict_us        -> read_p50_ms on assert_diag
//	server.rejected          429s -> failures
//	monitor.step_us,
//	monitor.step_ns_per_tick -> server_cpu_ns_per_tick on lane_stream (lane),
//	                         program_wal (program), assert_diag (map, diagnostics)
//	monitor.lane_tick_share  lane-group ticks over all ticks; > 0 only on lane_stream
//	wal.append_us,
//	wal.syncs_per_batch      -> batch_p50_ms on program_wal
//	wal.bytes_per_tick,
//	wal.replay_ms            -> recover_s
//	cluster.proxied_share    proxied requests over requests sent to non-owners;
//	                         1.0 on ring_proxy
//	cluster.replicated_per_batch -> ticks_per_s on ring_proxy
//	cluster.proxy_us         round trip via a non-owner minus that of direct
//	                         probes: in a traced ring_proxy run every 16th
//	                         closed-loop batch of a worker goes to a session
//	                         its own node owns -> batch_p50_ms on ring_proxy
//	synth.spec_load_ms       median time to reload the workload's specs with
//	                         client.LoadSpecs(..., replace=true) -> setup_s
//	loadgen.late_p50_ms,
//	loadgen.late_p99_ms      how late the open-loop generator sent; when these
//	                         grow, open_p50_ms measures the generator
//	loadgen.open_p99_ms      reported, not gated: too noisy to bound
//	loadgen.trace_overhead_pct  traced against untraced ticks/s
//	loadgen.cpu_speed        the gauge's machine speed over the closed phase
//	unexplained_us           round trip not covered by the server stages
//
// Per-layer timings are raw, not scaled. All stage figures are per batch
// (per read for verdict), so the traced run prints the identity
//
//	client.send_us = client.self_us + (decode + enqueue + queue_wait + step
//	                 + wal_append) + unexplained_us
//
// where unexplained_us is loopback HTTP, the handler outside its stages,
// and on ring_proxy the proxy hop.
//
// # Correctness gate
//
// A run fails rather than report numbers when:
//
//   - any session's GET /verdicts (steps, accepts, violations) differs from
//     the interpreted engine, monitor.NewEngine over the chart synthesized
//     exactly as cescd's registry does, stepped over the exact tick
//     sequence that session was sent. Each session's stream is a sequence
//     of pool batches and stepping a batch from a given engine state is
//     deterministic, so the reference memoises (batch, engine state) pairs;
//     a test pins that against stepping tick by tick;
//   - after recovery, any session's verdicts differ from those read before
//     the first kill, or from the reference;
//   - cluster.proxied_share is not 1.0 on ring_proxy;
//   - monitor.lane_tick_share is 0 on lane_stream or above 0 elsewhere, so
//     no workload can silently change path.
//
// # Measuring a claim
//
// Record a run set of the parent and of the change with the same flags,
// for example -repeat 10 -seconds 20 -out parent.jsonl, alternating which
// side runs first. cescload -agree parent.jsonl change.jsonl compares them:
// per workload and metric it prints both medians, both spreads
// (interquartile range over median, with the quartiles of Python's
// statistics.quantiles) and the change's median against the parent's, and
// fails when the medians differ by the metric's bound or more, or when a
// set's spread exceeds the bound (unresolved). Two sets of the same code
// must agree; a claimed gain must also hold on a seed not used while the
// change was written, so pick -seed for the confirming sets only after the
// change is final.
//
// # Measured spread behind the bounds
//
// Every end-to-end bound is 0.25, the largest BENCHMARK.json allows.
// baseline.txt records two sets of five 20-second runs per workload on the
// reference machine and the spread of all ten. Scaled by the gauge, most
// metrics spread 3-8% run to run; the p99 tails 7-12%; recover_s 7-11%;
// open_p50_ms 14% on ring_proxy and 25% on program_wal, whose open-loop
// latency is largely fsync, which the gauge does not track; setup_s, an
// operation of 40 to 120 ms, 10-20%. Unscaled, the same metrics spread
// 20-50% over a noisy hour on that machine, with ticks_per_s ranging two
// times between runs of one workload.
package main
