// Command cescbench is the reproduction driver: it re-runs the paper's
// experiments (see EXPERIMENTS.md) and prints a markdown summary —
// structural checks for each figure's monitor, detection/violation
// campaigns against the protocol models, baseline parity, and the
// construction ablation. `go test -bench=.` gives the rigorous numbers;
// this command gives the one-shot narrative table.
//
// With -json it instead runs the micro-benchmark suite (hot-path
// stepping, ingest, WAL, observability overhead, spec mining) and
// writes one machine-readable summary. With -thresholds it also checks
// that run against the allocs/op ceilings in that file (see gate.go):
// allocation counts do not depend on the machine, so the check holds
// on any hardware. Wall time is judged end to end by cmd/cescload.
//
//	go run ./cmd/cescbench
//	go run ./cmd/cescbench -json out.json -thresholds PERF_THRESHOLDS.json
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/amba"
	"repro/internal/chart"
	"repro/internal/event"
	"repro/internal/mclock"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/ocp"
	"repro/internal/readproto"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/verif"
	"repro/internal/wal"
)

func main() {
	jsonPath := flag.String("json", "", "run the micro-benchmark suite and write a machine-readable summary (name, ns/op, allocs/op) to this path instead of the narrative tables")
	thresholds := flag.String("thresholds", "", "with -json: check the run against this JSON map of benchmark name to {max_allocs_per_op}; exits 1 if a row is over its ceiling or a ceiling names no row")
	history := flag.String("history", "", "with -json: append the run as one JSON line to this file (e.g. BENCH_HISTORY.jsonl)")
	flag.Parse()
	if *jsonPath == "" {
		if *thresholds != "" || *history != "" {
			fatal(fmt.Errorf("-thresholds and -history need -json"))
		}
		fmt.Println("# CESC monitor synthesis — reproduction summary")
		fmt.Println()
		structural()
		campaigns()
		parity()
		multiclock()
		ablation()
		mineSummary()
		return
	}
	var rules map[string]gateRule
	if *thresholds != "" {
		var err error
		if rules, err = loadThresholds(*thresholds); err != nil {
			fatal(err)
		}
	}
	benches, err := suite()
	if err != nil {
		fatal(err)
	}
	results := runSuite(benches)
	data, err := json.MarshalIndent(benchFile{Schema: suiteSchema, Results: results}, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *jsonPath)
	if *history != "" {
		e := historyEntry{Kind: "json", BenchSchema: suiteSchema, Files: []string{*jsonPath}, Results: results}
		if err := appendHistory(*history, e); err != nil {
			fatal(err)
		}
	}
	if rules != nil && checkCeilings(os.Stdout, results, rules) > 0 {
		os.Exit(1)
	}
}

// suiteSchema labels the -json summary and its history lines. v2 is the
// single suite; v1 and the obs/mine schemas in older history lines were
// its separate parts.
const suiteSchema = "cescbench/v2"

// benchFile is the -json summary document.
type benchFile struct {
	Schema  string        `json:"schema"`
	Results []benchResult `json:"results"`
}

// benchResult is one row of the -json summary; the fields mirror what
// `go test -bench` prints so the perf trajectory is machine-readable
// across PRs.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// walRecBatchRawTraced is the frame kind cescd journals every accepted
// batch as (server.recBatchRawTraced).
const walRecBatchRawTraced = 5

// walBatchFrame lays out one recBatchRawTraced payload the way
// server.journalBatch does: jseq and client seq as little-endian
// uint64s, a uint16 trace-id length and the id (empty: tracing is off
// by default), then the batch's NDJSON body.
func walBatchFrame(body []byte) []byte {
	payload := make([]byte, 18+len(body))
	binary.LittleEndian.PutUint64(payload[0:8], 1)
	binary.LittleEndian.PutUint64(payload[8:16], 1)
	copy(payload[18:], body)
	return payload
}

// figBench is one figure's synthesized monitor plus its model traffic in
// both map and packed form — the shared setup of the perf suites.
type figBench struct {
	name    string
	mon     *monitor.Monitor
	prog    *monitor.Program
	traffic []event.State
	packed  []event.Packed
}

// figBenches synthesizes the three protocol figures the paper evaluates
// (Fig. 6 OCP simple read, Fig. 7 OCP burst read, Fig. 8 AHB
// transaction) with deterministic model traffic.
func figBenches() ([]figBench, error) {
	out := []figBench{
		{name: "Fig6OCP", traffic: ocp.NewModel(ocp.Config{Gap: 2, Seed: 1}).GenerateTrace(4096)},
		{name: "Fig7OCPBurst", traffic: ocp.NewModel(ocp.Config{Gap: 2, Seed: 2, Burst: true}).GenerateTrace(4096)},
		{name: "Fig8AHB", traffic: amba.NewModel(amba.Config{Gap: 2, Seed: 3}).GenerateTrace(4096)},
	}
	charts := []chart.Chart{ocp.SimpleReadChart(), ocp.BurstReadChart(), amba.TransactionChart()}
	for i := range out {
		m, err := synth.Synthesize(charts[i], nil)
		if err != nil {
			return nil, err
		}
		prog, err := monitor.CompileProgram(m)
		if err != nil {
			return nil, err
		}
		out[i].mon = m
		out[i].prog = prog
		out[i].packed = trace.Trace(out[i].traffic).Pack(prog.Support())
	}
	return out, nil
}

// suite builds every row of the -json suite without running any of
// them: hot-path stepping, ingest, WAL, then per figure the table step,
// batch decode and observability overhead, then fleet tracing, the
// read path and spec mining.
func suite() ([]namedBench, error) {
	figs, err := figBenches()
	if err != nil {
		return nil, err
	}
	faulty, err := faultyFigTraffic(figs)
	if err != nil {
		return nil, err
	}
	_, walBody, err := batchDecodeFixture(figs[0])
	if err != nil {
		return nil, err
	}
	walPayload := walBatchFrame(walBody)
	ticks6 := fixtureTicks(figs[0])
	m, prog6, traffic, packed6 := figs[0].mon, figs[0].prog, figs[0].traffic, figs[0].packed
	m7, prog7, traffic7, packed7 := figs[1].mon, figs[1].prog, figs[1].traffic, figs[1].packed
	m8, prog8, traffic8, packed8 := figs[2].mon, figs[2].prog, figs[2].traffic, figs[2].packed

	benches := []namedBench{
		{"SynthesizeFig6OCPSimpleRead", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := synth.Synthesize(ocp.SimpleReadChart(), nil); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"EngineStepFig6OCPTraffic", func(b *testing.B) {
			eng := monitor.NewEngine(m, nil, monitor.ModeDetect)
			for i := 0; i < b.N; i++ {
				eng.Step(traffic[i%len(traffic)])
			}
		}},
		{"PackedStepFig6OCPTraffic", func(b *testing.B) {
			eng := prog6.NewEngine(nil, monitor.ModeDetect)
			for i := 0; i < b.N; i++ {
				eng.StepPacked(packed6[i%len(packed6)])
			}
		}},
		{"EngineStepFig7OCPBurstTraffic", func(b *testing.B) {
			eng := monitor.NewEngine(m7, nil, monitor.ModeDetect)
			for i := 0; i < b.N; i++ {
				eng.Step(traffic7[i%len(traffic7)])
			}
		}},
		{"PackedStepFig7OCPBurstTraffic", func(b *testing.B) {
			eng := prog7.NewEngine(nil, monitor.ModeDetect)
			for i := 0; i < b.N; i++ {
				eng.StepPacked(packed7[i%len(packed7)])
			}
		}},
		{"EngineStepFig8AHBTraffic", func(b *testing.B) {
			eng := monitor.NewEngine(m8, nil, monitor.ModeDetect)
			for i := 0; i < b.N; i++ {
				eng.Step(traffic8[i%len(traffic8)])
			}
		}},
		{"PackedStepFig8AHBTraffic", func(b *testing.B) {
			eng := prog8.NewEngine(nil, monitor.ModeDetect)
			for i := 0; i < b.N; i++ {
				eng.StepPacked(packed8[i%len(packed8)])
			}
		}},
		{"EncodeTicks64TickFig6OCP", func(b *testing.B) {
			// The client's NDJSON encoder over the 64 ticks the
			// BatchDecode64TickFig6OCP body holds, into a reused buffer.
			var buf []byte
			for _, tk := range ticks6 {
				buf = server.AppendTick(buf, tk)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = buf[:0]
				for _, tk := range ticks6 {
					buf = server.AppendTick(buf, tk)
				}
			}
		}},
		{"ScoreboardAddChkDel", func(b *testing.B) {
			sb := monitor.NewScoreboard()
			for i := 0; i < b.N; i++ {
				sb.Add(int64(i), "e")
				sb.Chk("e")
				sb.Del("e")
			}
		}},
		// The WAL rows append the frame cescd writes for a 64-tick Fig. 6
		// batch.
		{"WALAppend64TickBatch", func(b *testing.B) {
			dir := b.TempDir()
			mgr, err := wal.OpenManager(wal.Options{Dir: dir, Sync: wal.SyncNever})
			if err != nil {
				b.Fatal(err)
			}
			j, err := mgr.OpenJournal("bench", func(wal.Record) error { return nil })
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := j.Append(walRecBatchRawTraced, walPayload); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"WALReplay64TickBatches", func(b *testing.B) {
			dir := b.TempDir()
			mgr, err := wal.OpenManager(wal.Options{Dir: dir, Sync: wal.SyncNever})
			if err != nil {
				b.Fatal(err)
			}
			j, err := mgr.OpenJournal("bench", func(wal.Record) error { return nil })
			if err != nil {
				b.Fatal(err)
			}
			const records = 256
			for i := 0; i < records; i++ {
				if err := j.Append(walRecBatchRawTraced, walPayload); err != nil {
					b.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				jr, err := mgr.OpenJournal("bench", func(wal.Record) error { n++; return nil })
				if err != nil {
					b.Fatal(err)
				}
				jr.Abandon()
				if n != records {
					b.Fatalf("replayed %d records, want %d", n, records)
				}
			}
		}},
	}
	// TableStep*: StepPacked on a table-bound engine (Engine.UseTable),
	// the step table-eligible cescd sessions run. BatchDecode64Tick*: a
	// 64-tick NDJSON batch decoded straight into packed words (the
	// zero-copy ingest path; PERF_THRESHOLDS.json pins it at 0 allocs/op).
	//
	// The Obs* rows measure what the observability plane costs on the
	// packed stepping hot path, per figure:
	//
	//	ObsDisabled…  — StepPacked plus a disabled Tracer.Record call per
	//	                tick: the production default. Must stay 0 allocs/op,
	//	                within noise of the plain PackedStep numbers.
	//	ObsProvenance… — StepPacked in detect mode with diagnostics armed
	//	                (depth 8) over fault-free traffic: no step violates,
	//	                so this is the cost of the armed input ring alone.
	//	ObsViolation… — StepPacked in assert mode with diagnostics armed
	//	                (depth 8) over traffic at fault rate 0.2, more than
	//	                32 violations per pass: the cost of recording
	//	                violations raw into the wrapping report ring. Must
	//	                stay 0 allocs/op: provenance is rendered on read.
	//	ObsFlightRec… — StepPacked with tracing disabled but the always-on
	//	                flight recorder armed, noting one event per 4096
	//	                ticks (the per-batch cadence of real deployments).
	//	                Must stay 0 allocs/op: arming the black box is free
	//	                on the hot path.
	for fi, fig := range figs {
		violating := faulty[fi]
		tab, err := monitor.CompileTable(fig.mon)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", fig.name, err)
		}
		dec, body, err := batchDecodeFixture(fig)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", fig.name, err)
		}
		benches = append(benches,
			namedBench{"TableStep" + fig.name + "Traffic", func(b *testing.B) {
				eng := fig.prog.NewEngine(nil, monitor.ModeDetect)
				if err := eng.UseTable(tab); err != nil {
					b.Fatal(err)
				}
				for i := 0; i < b.N; i++ {
					eng.StepPacked(fig.packed[i%len(fig.packed)])
				}
			}},
			namedBench{"BatchDecode64Tick" + fig.name, func(b *testing.B) {
				var pb event.PackedBatch
				if n, err := dec.Decode(body, &pb, 0); err != nil || n != 64 {
					b.Fatalf("warm decode: n=%d err=%v", n, err)
				}
				b.ResetTimer()
				for j := 0; j < b.N; j++ {
					if _, err := dec.Decode(body, &pb, 0); err != nil {
						b.Fatal(err)
					}
				}
			}},
			namedBench{"ObsDisabledPackedStep" + fig.name, func(b *testing.B) {
				eng := fig.prog.NewEngine(nil, monitor.ModeDetect)
				tr := obs.NewTracer(1, 0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.StepPacked(fig.packed[i%len(fig.packed)])
					tr.Record(0, obs.Span{Stage: obs.StageStep})
				}
			}},
			namedBench{"ObsProvenancePackedStep" + fig.name, func(b *testing.B) {
				eng := fig.prog.NewEngine(nil, monitor.ModeDetect)
				eng.EnableDiagnostics(8)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.StepPacked(fig.packed[i%len(fig.packed)])
				}
			}},
			namedBench{"ObsViolationPackedStep" + fig.name, func(b *testing.B) {
				eng := fig.prog.NewEngine(nil, monitor.ModeAssert)
				eng.EnableDiagnostics(8)
				for _, in := range violating {
					eng.StepPacked(in) // wrap the report ring before timing
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.StepPacked(violating[i%len(violating)])
				}
			}},
			namedBench{"ObsFlightRecPackedStep" + fig.name, func(b *testing.B) {
				eng := fig.prog.NewEngine(nil, monitor.ModeDetect)
				tr := obs.NewTracer(1, 0)
				rec := obs.NewFlightRecorder(30*time.Second, "", "bench", tr)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.StepPacked(fig.packed[i%len(fig.packed)])
					tr.Record(0, obs.Span{Stage: obs.StageStep})
					if i%4096 == 0 {
						rec.Note("bench", "", "tick")
					}
				}
			}},
		)
	}
	// Two fleet-tracing rows, not per figure:
	//
	//	ObsTraceHLCNow — one hybrid-logical-clock reading, the cost added to
	//	                every enabled span and every cross-node hop.
	//	ObsTracePropagationRecord — an enabled Record carrying the full
	//	                cross-node propagation fields (node, parent token,
	//	                kind, HLC), the per-batch cost when tracing is on.
	benches = append(benches,
		namedBench{"ObsTraceHLCNow", func(b *testing.B) {
			var clk obs.HLC
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clk.Now()
			}
		}},
		namedBench{"ObsTracePropagationRecord", func(b *testing.B) {
			tr := obs.NewTracer(1, 1024)
			tr.SetNode("bench-node")
			parent := obs.ParentToken("peer", 42)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Record(0, obs.Span{
					Stage: obs.StageStep, Session: "bench", Ticks: 1,
					Trace: "bench-trace", Parent: parent, Kind: "proxied",
				})
			}
		}},
	)
	reads, err := readBenches()
	if err != nil {
		return nil, err
	}
	benches = append(benches, reads...)
	benches = append(benches, mineBenches()...)
	return benches, nil
}

// fixtureTicks is the first 64 ticks of a figure's traffic in the
// NDJSON wire form.
func fixtureTicks(fig figBench) []server.StateJSON {
	ticks := make([]server.StateJSON, 64)
	for i, st := range fig.traffic[:64] {
		ticks[i] = server.EncodeState(st)
	}
	return ticks
}

// batchDecodeFixture encodes fixtureTicks as the NDJSON body a client
// posts (server.AppendTick per line) and returns it with a batch decoder
// over the figure's support.
func batchDecodeFixture(fig figBench) (*event.BatchDecoder, []byte, error) {
	vocab := event.NewVocabulary()
	if err := vocab.DeclareSupport(fig.prog.Support()); err != nil {
		return nil, nil, err
	}
	var body []byte
	for _, tk := range fixtureTicks(fig) {
		body = server.AppendTick(body, tk)
	}
	return event.NewBatchDecoder(vocab), body, nil
}

// namedBench is one micro-benchmark of a JSON suite.
type namedBench struct {
	name string
	fn   func(b *testing.B)
}

// runSuite runs each benchmark via testing.Benchmark.
func runSuite(benches []namedBench) []benchResult {
	results := make([]benchResult, 0, len(benches))
	for _, bm := range benches {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			bm.fn(b)
		})
		results = append(results, benchResult{
			Name:        bm.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	return results
}

// faultyFigTraffic is each figure's model traffic at fault rate 0.2,
// packed in its program's support order. Every trace must raise more
// than 32 assert-mode violations per pass, so a pass wraps the report
// ring.
func faultyFigTraffic(figs []figBench) ([][]event.Packed, error) {
	traces := []trace.Trace{
		ocp.NewModel(ocp.Config{Gap: 2, Seed: 1, FaultRate: 0.2}).GenerateTrace(4096),
		ocp.NewModel(ocp.Config{Gap: 2, Seed: 2, FaultRate: 0.2, Burst: true}).GenerateTrace(4096),
		amba.NewModel(amba.Config{Gap: 2, Seed: 3, FaultRate: 0.2}).GenerateTrace(4096),
	}
	out := make([][]event.Packed, len(figs))
	for i, fig := range figs {
		out[i] = traces[i].Pack(fig.prog.Support())
		probe := fig.prog.NewEngine(nil, monitor.ModeAssert)
		for _, in := range out[i] {
			probe.StepPacked(in)
		}
		if n := probe.Stats().Violations; n <= 32 {
			return nil, fmt.Errorf("%s: faulty traffic raised %d violations per pass, want more than 32", fig.name, n)
		}
	}
	return out, nil
}

func structural() {
	fmt.Println("## Figure monitors (structure)")
	fmt.Println()
	fmt.Println("| figure | chart | states | transitions | scoreboard ops |")
	fmt.Println("|--------|-------|--------|-------------|----------------|")
	rows := []struct {
		fig string
		c   chart.Chart
	}{
		{"Fig. 1", readproto.SingleClockChart()},
		{"Fig. 5", fig5()},
		{"Fig. 6", ocp.SimpleReadChart()},
		{"Fig. 7", ocp.BurstReadChart()},
		{"Fig. 8", amba.TransactionChart()},
	}
	for _, r := range rows {
		m, err := synth.Synthesize(r.c, nil)
		if err != nil {
			fatal(err)
		}
		nact := 0
		for _, ts := range m.Trans {
			for _, t := range ts {
				nact += len(t.Actions)
			}
		}
		fmt.Printf("| %s | %s | %d | %d | %d |\n",
			r.fig, r.c.Name(), m.States, m.NumTransitions(), nact)
	}
	fmt.Println()
}

func fig5() *chart.SCESC {
	return &chart.SCESC{
		ChartName: "fig5_causality", Clock: "clk", Instances: []string{"A", "B"},
		Lines: []chart.GridLine{
			{Events: []chart.EventSpec{{Event: "e1", Label: "l1"}, {Event: "e2"}}},
			{},
			{Events: []chart.EventSpec{{Event: "e3", Label: "l3"}}},
		},
		Arrows: []chart.Arrow{{From: "l1", To: "l3"}},
	}
}

func campaigns() {
	fmt.Println("## Fault-injection campaigns (50k cycles, 20% fault rate, assert mode)")
	fmt.Println()
	fmt.Println("| scenario | transactions | faulted | detected | violations | detection rate |")
	fmt.Println("|----------|--------------|---------|----------|------------|----------------|")
	type row struct {
		name string
		rep  verif.Report
		err  error
	}
	var rows []row
	r1, e1 := verif.RunOCPCampaign(ocp.Config{Gap: 2, Seed: 1, FaultRate: 0.2}, 50000, monitor.ModeAssert)
	rows = append(rows, row{"OCP simple read", r1, e1})
	r2, e2 := verif.RunOCPCampaign(ocp.Config{Gap: 2, Seed: 2, FaultRate: 0.2, Burst: true}, 50000, monitor.ModeAssert)
	rows = append(rows, row{"OCP burst read", r2, e2})
	r3, e3 := verif.RunOCPCampaign(ocp.Config{Gap: 2, Seed: 3, FaultRate: 0.2, Write: true}, 50000, monitor.ModeAssert)
	rows = append(rows, row{"OCP posted write", r3, e3})
	r4, e4 := verif.RunAMBACampaign(amba.Config{Gap: 2, Seed: 4, FaultRate: 0.2}, 50000, monitor.ModeAssert)
	rows = append(rows, row{"AHB CLI write", r4, e4})
	r5, e5 := verif.RunAMBACampaign(amba.Config{Gap: 2, Seed: 5, FaultRate: 0.2, Read: true}, 50000, monitor.ModeAssert)
	rows = append(rows, row{"AHB CLI read", r5, e5})
	for _, r := range rows {
		if r.err != nil {
			fatal(r.err)
		}
		fmt.Printf("| %s | %d | %d | %d | %d | %.3f |\n",
			r.name, r.rep.Transactions, r.rep.Faulted, r.rep.Accepts, r.rep.Violations, r.rep.DetectionRate())
	}
	fmt.Println()
}

func parity() {
	fmt.Println("## Baseline parity (synthesized vs hand-written, mixed faulty traffic)")
	fmt.Println()
	fmt.Println("| scenario | synthesized accepts | manual accepts | identical ticks |")
	fmt.Println("|----------|---------------------|----------------|-----------------|")
	tr1 := ocp.NewModel(ocp.Config{Gap: 1, Seed: 6, FaultRate: 0.3}).GenerateTrace(20000)
	p1, err := verif.OCPSimpleReadParity(tr1)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("| OCP simple read | %d | %d | %v |\n", len(p1.SynthAccepts), len(p1.ManualAccepts), p1.Agree())
	tr2 := ocp.NewModel(ocp.Config{Gap: 1, Seed: 7, FaultRate: 0.3, Burst: true}).GenerateTrace(20000)
	p2, err := verif.OCPBurstReadParity(tr2)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("| OCP burst read | %d | %d | %v |\n", len(p2.SynthAccepts), len(p2.ManualAccepts), p2.Agree())
	tr3 := amba.NewModel(amba.Config{Gap: 1, Seed: 8, FaultRate: 0.3}).GenerateTrace(20000)
	p3, err := verif.AHBTransactionParity(tr3)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("| AHB CLI write | %d | %d | %v |\n", len(p3.SynthAccepts), len(p3.ManualAccepts), p3.Agree())
	fmt.Println()
}

func multiclock() {
	fmt.Println("## Multi-clock (Fig. 2 GALS read on the simulator)")
	fmt.Println()
	s := sim.New()
	sys, err := readproto.Build(s, 8, 2, 2)
	if err != nil {
		fatal(err)
	}
	mm, err := mclock.Synthesize(readproto.MultiClockChart(), nil)
	if err != nil {
		fatal(err)
	}
	ex := mclock.NewExec(mm, monitor.ModeDetect)
	verif.AttachMulti(s, ex)
	if err := s.RunUntil(50000); err != nil {
		fatal(err)
	}
	v := ex.Verdict()
	fmt.Printf("- transactions issued: %d, coherent multi-domain accepts: %d\n", sys.Requests, v.Accepts)
	for i, d := range mm.Domains {
		fmt.Printf("- domain %s: %d local ticks, %d local accepts\n", d, v.PerDomain[i].Steps, v.PerDomain[i].Accepts)
	}
	fmt.Println()
}

func ablation() {
	fmt.Println("## Construction ablation (12-tick chart, 8-symbol support)")
	fmt.Println()
	sc := &chart.SCESC{ChartName: "scale", Clock: "clk"}
	for i := 0; i < 12; i++ {
		ev := fmt.Sprintf("s%d", i%8)
		next := fmt.Sprintf("s%d", (i+1)%8)
		sc.Lines = append(sc.Lines, chart.GridLine{Events: []chart.EventSpec{
			{Event: ev}, {Event: next, Negated: true},
		}})
	}
	timeIt := func(strategy synth.Strategy) time.Duration {
		const reps = 5
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := synth.Translate(sc, &synth.Options{Strategy: strategy}); err != nil {
				fatal(err)
			}
		}
		return time.Since(start) / reps
	}
	direct := timeIt(synth.StrategyDirect)
	enum := timeIt(synth.StrategyEnumerate)
	fmt.Printf("- symbolic (direct) construction:   %v\n", direct)
	fmt.Printf("- paper's per-valuation pseudocode: %v (%.0fx)\n", enum, float64(enum)/float64(direct))
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
