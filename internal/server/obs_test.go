package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/amba"
	"repro/internal/chart"
	"repro/internal/event"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/ocp"
	"repro/internal/parser"
	"repro/internal/synth"
	"repro/internal/trace"
)

// createSessionDiag creates a session with an explicit diagnostics ring
// depth (the diag_depth option).
func createSessionDiag(t *testing.T, base, mode string, diagDepth int, specs ...string) SessionInfoJSON {
	t.Helper()
	body, _ := json.Marshal(createSessionRequest{Specs: specs, Mode: mode, DiagDepth: diagDepth})
	var info SessionInfoJSON
	doJSON(t, "POST", base+"/sessions", body, http.StatusCreated, &info)
	return info
}

// TestPromExposition scrapes GET /metrics without an Accept header and
// checks the body is well-formed Prometheus text 0.0.4 carrying the
// dimensioned series: per-spec verdict counters, per-shard gauges, and
// per-stage latency histograms.
func TestPromExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2, TraceDepth: 64})
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 1, FaultRate: 0.2}).GenerateTrace(300)
	sess := createSession(t, ts.URL, "assert", "OcpSimpleRead")
	streamTicks(t, ts.URL, sess.ID, tr, 64)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	samples, err := obs.ValidatePromText(text)
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}
	if samples == 0 {
		t.Fatal("exposition has no samples")
	}
	for _, want := range []string{
		`cescd_spec_accepts_total{spec="OcpSimpleRead"}`,
		`cescd_spec_violations_total{spec="OcpSimpleRead"}`,
		`cescd_shard_queue_depth{shard="0"}`,
		`cescd_shard_queue_depth{shard="1"}`,
		`cescd_stage_latency_seconds_bucket{stage="step",le="+Inf"}`,
		`cescd_stage_latency_seconds_count{stage="decode"}`,
		`cescd_tick_latency_seconds_bucket{le="+Inf"}`,
		`cescd_trace_spans_total`,
		`cescd_go_goroutines`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing series %s", want)
		}
	}
	// The JSON body stays available behind content negotiation.
	var snap MetricsSnapshot
	doJSON(t, "GET", ts.URL+"/metrics", nil, http.StatusOK, &snap)
	if snap.PerSpecViolations["OcpSimpleRead"] == 0 {
		t.Errorf("JSON snapshot per-spec violations = 0, want > 0")
	}
	if snap.TicksTotal != uint64(len(tr)) {
		t.Errorf("ticks_total = %d, want %d", snap.TicksTotal, len(tr))
	}
}

// TestUnknownFieldVerdictParity streams one trace into two sessions,
// once as compact NDJSON and once with an unknown field of every JSON
// type in each tick, which encoding/json skips and so must the one tick
// decoder: the two sessions' verdicts must be byte-identical.
func TestUnknownFieldVerdictParity(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1})
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 4, FaultRate: 0.1}).GenerateTrace(120)
	plain := createSession(t, ts.URL, "detect", "OcpSimpleRead")
	noted := createSession(t, ts.URL, "detect", "OcpSimpleRead")
	for at := 0; at < len(tr); at += 40 {
		body := ndjson(t, tr[at:at+40])
		doJSON(t, "POST", ts.URL+"/sessions/"+plain.ID+"/ticks?wait=1", body, http.StatusOK, nil)
		var withNote []byte
		for _, line := range bytes.SplitAfter(body, []byte("\n")) {
			if len(line) > 0 {
				withNote = append(withNote, `{"note":{"n":[1.5e3,true,null,"}"],"o":{}},"Note":0,`...)
				withNote = append(withNote, line[1:]...)
			}
		}
		withNote = bytes.ReplaceAll(withNote, []byte(",}"), []byte("}"))
		doJSON(t, "POST", ts.URL+"/sessions/"+noted.ID+"/ticks?wait=1", withNote, http.StatusOK, nil)
	}
	got, want := monitorsJSON(t, ts.URL, noted.ID), monitorsJSON(t, ts.URL, plain.ID)
	if !bytes.Equal(got, want) {
		t.Fatalf("unknown field changed the verdicts:\n with %s\n without %s", got, want)
	}
	if v := verdictFor(t, ts.URL, noted.ID, "OcpSimpleRead"); v.Steps != len(tr) {
		t.Errorf("steps = %d, want %d", v.Steps, len(tr))
	}
}

// diagTierReferences steps the interpreted AST engine and a program
// engine over tr, both in assert mode with the default diagnostics
// window, and returns each tier's provenance in wire form. The program
// engine's input is packed through a vocabulary declaring the supports
// of the session's charts in session order, as the session's own is.
func diagTierReferences(t *testing.T, c chart.Chart, session []chart.Chart, tr trace.Trace) map[string][]DiagnosticJSON {
	t.Helper()
	m, err := synth.Synthesize(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	interp := monitor.NewEngine(m, nil, monitor.ModeAssert)
	interp.EnableDiagnostics(defaultDiagDepth)
	interp.Run(tr)
	v := event.NewVocabulary()
	for _, sc := range session {
		sm, err := synth.Synthesize(sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		sup, err := sm.Support()
		if err != nil {
			t.Fatal(err)
		}
		if err := v.DeclareSupport(sup); err != nil {
			t.Fatal(err)
		}
	}
	p, err := monitor.CompileProgram(m)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := p.NewEngineVocab(nil, monitor.ModeAssert, v)
	if err != nil {
		t.Fatal(err)
	}
	packed.EnableDiagnostics(defaultDiagDepth)
	for _, s := range tr {
		packed.StepPacked(v.Pack(s))
	}
	out := map[string][]DiagnosticJSON{}
	for tier, e := range map[string]*monitor.Engine{"interpreted": interp, "program/packed": packed} {
		want := make([]DiagnosticJSON, 0)
		for _, d := range e.Diagnostics() {
			want = append(want, diagnosticJSON(d))
		}
		out[tier] = want
	}
	return out
}

// mergeTraces unions two traces tick by tick (the shorter one idles).
func mergeTraces(a, b trace.Trace) trace.Trace {
	out := make(trace.Trace, max(len(a), len(b)))
	for i := range out {
		s := event.NewState()
		for _, src := range []trace.Trace{a, b} {
			if i >= len(src) {
				continue
			}
			for k, v := range src[i].Events {
				s.Events[k] = v
			}
			for k, v := range src[i].Props {
				s.Props[k] = v
			}
		}
		out[i] = s
	}
	return out
}

// TestDiagnosticsEndpointDifferential checks that the provenance served
// by GET /sessions/{id}/diagnostics — produced by assert sessions on the
// packed path, their inputs packed once per tick through the session
// vocabulary — is byte-identical JSON to what the interpreted AST engine
// and a one-spec vocabulary-packed program engine emit for the same
// trace, per monitor. Cases cover OCP and AHB traffic, a two-spec
// session over one support, and a two-spec session whose union
// vocabulary interleaves OCP and AHB symbols, so every monitor's inputs
// are remapped from session slots and Valuation must still come out in
// the monitor's own support order. (The table-bound engine's
// differential lives in internal/monitor/provenance_test.go.)
func TestDiagnosticsEndpointDifferential(t *testing.T) {
	ocpTr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 7, FaultRate: 0.25}).GenerateTrace(400)
	ahbTr := amba.NewModel(amba.Config{Gap: 2, Seed: 9, FaultRate: 0.25}).GenerateTrace(400)
	charts := map[string]chart.Chart{
		"OcpSimpleRead":  ocp.SimpleReadChart(),
		"OcpSimpleReadB": ocp.SimpleReadChart(),
		"AhbTransaction": amba.TransactionChart(),
	}
	cases := []struct {
		name  string
		specs []string
		tr    trace.Trace
	}{
		{"ocp", []string{"OcpSimpleRead"}, ocpTr},
		{"ahb", []string{"AhbTransaction"}, ahbTr},
		{"ocp-two-specs", []string{"OcpSimpleRead", "OcpSimpleReadB"}, ocpTr},
		{"ocp+ahb", []string{"AhbTransaction", "OcpSimpleRead"}, mergeTraces(ocpTr, ahbTr)},
	}
	s, ts := newTestServer(t, Config{Shards: 1})
	var src string
	for _, name := range []string{"OcpSimpleReadB", "AhbTransaction"} {
		src += parser.Print(name, charts[name])
	}
	if _, err := s.LoadSpecSource(src); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		sess := createSession(t, ts.URL, "assert", tc.specs...)
		if sess.Path != "packed" {
			t.Errorf("%s: assert session path = %q, want packed", tc.name, sess.Path)
		}
		streamTicks(t, ts.URL, sess.ID, tc.tr, 64)

		var got DiagnosticsJSON
		doJSON(t, "GET", fmt.Sprintf("%s/sessions/%s/diagnostics", ts.URL, sess.ID),
			nil, http.StatusOK, &got)
		if got.Session != sess.ID || got.Mode != "assert" || len(got.Monitors) != len(tc.specs) {
			t.Fatalf("%s: diagnostics envelope = %+v", tc.name, got)
		}
		for i, md := range got.Monitors {
			if md.Spec != tc.specs[i] || md.Violations == 0 || len(md.Diagnostics) == 0 {
				t.Fatalf("%s: expected retained violations for %s, got %+v", tc.name, tc.specs[i], md)
			}
			for _, d := range md.Diagnostics {
				if d.Monitor == "" || len(d.Guards) == 0 {
					t.Errorf("%s: diagnostic missing provenance fields: %+v", tc.name, d)
				}
			}
			gotJSON, err := json.Marshal(md.Diagnostics)
			if err != nil {
				t.Fatal(err)
			}
			var session []chart.Chart
			for _, name := range tc.specs {
				session = append(session, charts[name])
			}
			for tier, want := range diagTierReferences(t, charts[md.Spec], session, tc.tr) {
				wantJSON, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotJSON, wantJSON) {
					t.Errorf("%s/%s: endpoint provenance diverges from %s tier:\n got %s\nwant %s",
						tc.name, md.Spec, tier, gotJSON, wantJSON)
				}
			}
		}
	}
}

// TestDiagnosticsProjectOntoVocabulary: an assert session quotes its
// inputs as packed through the session vocabulary, so a symbol no spec
// reads is absent from every diagnostic's input and recent window. The
// provenance equals the interpreted engine's on the projected trace.
func TestDiagnosticsProjectOntoVocabulary(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1})
	clean := ocp.NewModel(ocp.Config{Gap: 2, Seed: 7, FaultRate: 0.25}).GenerateTrace(400)
	stray := make(trace.Trace, len(clean))
	for i, st := range clean {
		stray[i] = st.WithEvents("Stray").WithProps("stray_prop")
	}
	sess := createSession(t, ts.URL, "assert", "OcpSimpleRead")
	streamTicks(t, ts.URL, sess.ID, stray, 64)

	body := getRaw(t, fmt.Sprintf("%s/sessions/%s/diagnostics", ts.URL, sess.ID))
	if bytes.Contains(body, []byte("Stray")) || bytes.Contains(body, []byte("stray_prop")) {
		t.Errorf("diagnostics quote symbols outside the session vocabulary:\n%s", body)
	}
	var got DiagnosticsJSON
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	md := got.Monitors[0]
	if len(md.Diagnostics) == 0 {
		t.Fatal("no diagnostics retained")
	}
	gotJSON, _ := json.Marshal(md.Diagnostics)
	wantJSON, _ := json.Marshal(diagTierReferences(t, ocp.SimpleReadChart(), []chart.Chart{ocp.SimpleReadChart()}, clean)["interpreted"])
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("projected provenance diverges from the interpreted engine on the projected trace:\n got %s\nwant %s",
			gotJSON, wantJSON)
	}
}

// TestDiagDepthOption checks the diag_depth session option: it bounds
// each report's recent-input window (depth-1 elements before the
// offending input) and rejects out-of-range values.
func TestDiagDepthOption(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1})
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 7, FaultRate: 0.25}).GenerateTrace(400)

	sess := createSessionDiag(t, ts.URL, "assert", 2, "OcpSimpleRead")
	streamTicks(t, ts.URL, sess.ID, tr, 64)
	var got DiagnosticsJSON
	doJSON(t, "GET", fmt.Sprintf("%s/sessions/%s/diagnostics", ts.URL, sess.ID),
		nil, http.StatusOK, &got)
	md := got.Monitors[0]
	if md.Violations == 0 || len(md.Diagnostics) == 0 {
		t.Fatalf("expected violations with diag_depth=2, got %+v", md)
	}
	for _, d := range md.Diagnostics {
		if len(d.Recent) > 1 {
			t.Errorf("diag_depth=2 kept %d recent inputs, want <= 1", len(d.Recent))
		}
	}

	body, _ := json.Marshal(createSessionRequest{
		Specs: []string{"OcpSimpleRead"}, Mode: "assert", DiagDepth: maxDiagDepth + 1,
	})
	doJSON(t, "POST", ts.URL+"/sessions", body, http.StatusBadRequest, nil)
}

// TestPerSpecCountersSurviveEviction streams a violating trace, lets the
// idle janitor evict the session, and checks the per-spec verdict
// counters are unchanged: they live on the daemon, not the session.
func TestPerSpecCountersSurviveEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Shards: 1, IdleTTL: 30 * time.Millisecond, SweepEvery: 10 * time.Millisecond,
	})
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 3, FaultRate: 0.2}).GenerateTrace(300)
	sess := createSession(t, ts.URL, "assert", "OcpSimpleRead")
	streamTicks(t, ts.URL, sess.ID, tr, 64)

	var before MetricsSnapshot
	doJSON(t, "GET", ts.URL+"/metrics", nil, http.StatusOK, &before)
	if before.PerSpecAccepts["OcpSimpleRead"] == 0 || before.PerSpecViolations["OcpSimpleRead"] == 0 {
		t.Fatalf("expected nonzero per-spec counters before eviction, got %+v", before)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		var snap MetricsSnapshot
		doJSON(t, "GET", ts.URL+"/metrics", nil, http.StatusOK, &snap)
		if snap.SessionsEvicted > 0 && snap.SessionsActive == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session not evicted: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
	doJSON(t, "GET", fmt.Sprintf("%s/sessions/%s", ts.URL, sess.ID), nil, http.StatusNotFound, nil)

	var after MetricsSnapshot
	doJSON(t, "GET", ts.URL+"/metrics", nil, http.StatusOK, &after)
	if after.PerSpecAccepts["OcpSimpleRead"] != before.PerSpecAccepts["OcpSimpleRead"] ||
		after.PerSpecViolations["OcpSimpleRead"] != before.PerSpecViolations["OcpSimpleRead"] {
		t.Errorf("per-spec counters changed across eviction: before %v/%v, after %v/%v",
			before.PerSpecAccepts["OcpSimpleRead"], before.PerSpecViolations["OcpSimpleRead"],
			after.PerSpecAccepts["OcpSimpleRead"], after.PerSpecViolations["OcpSimpleRead"])
	}
}

// debugTraceBody is the JSON envelope of GET /debug/trace.
type debugTraceBody struct {
	Enabled bool       `json:"enabled"`
	Total   uint64     `json:"total"`
	Spans   []obs.Span `json:"spans"`
}

// TestDebugTraceCorrelation ingests with a client-chosen X-Cesc-Trace id
// and checks the id is echoed on the response and correlates the span
// chain (ingest -> decode -> enqueue -> queue_wait -> step) served by
// GET /debug/trace.
func TestDebugTraceCorrelation(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2, TraceDepth: 256})
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 1}).GenerateTrace(64)
	sess := createSession(t, ts.URL, "detect", "OcpSimpleRead")

	const traceID = "obs-test-trace-1"
	req, err := http.NewRequest("POST",
		fmt.Sprintf("%s/sessions/%s/ticks?wait=1", ts.URL, sess.ID),
		bytes.NewReader(ndjson(t, tr)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Cesc-Trace", traceID)
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d, err %v: %s", resp.StatusCode, err, ack)
	}
	if got := resp.Header.Get("X-Cesc-Trace"); got != traceID {
		t.Errorf("response X-Cesc-Trace = %q, want %q", got, traceID)
	}
	var ackBody struct {
		Trace string `json:"trace"`
	}
	if err := json.Unmarshal(ack, &ackBody); err != nil {
		t.Fatal(err)
	}
	if ackBody.Trace != traceID {
		t.Errorf("ack trace = %q, want %q", ackBody.Trace, traceID)
	}

	var tb debugTraceBody
	doJSON(t, "GET", ts.URL+"/debug/trace?trace="+traceID, nil, http.StatusOK, &tb)
	if !tb.Enabled || tb.Total == 0 {
		t.Fatalf("trace endpoint = %+v, want enabled with spans", tb)
	}
	stages := map[string]bool{}
	var lastSeq uint64
	for _, sp := range tb.Spans {
		if sp.Trace != traceID {
			t.Errorf("span %+v leaked into trace filter %q", sp, traceID)
		}
		if sp.Seq < lastSeq {
			t.Errorf("spans out of Seq order: %d after %d", sp.Seq, lastSeq)
		}
		lastSeq = sp.Seq
		stages[sp.Stage] = true
	}
	for _, st := range []string{obs.StageIngest, obs.StageDecode, obs.StageEnqueue, obs.StageQueueWait, obs.StageStep} {
		if !stages[st] {
			t.Errorf("trace %q missing stage %s (got %v)", traceID, st, stages)
		}
	}

	// Session filter and newest-n truncation compose with the trace filter.
	doJSON(t, "GET", ts.URL+"/debug/trace?session="+sess.ID+"&n=2", nil, http.StatusOK, &tb)
	if len(tb.Spans) != 2 {
		t.Errorf("n=2 returned %d spans", len(tb.Spans))
	}
	doJSON(t, "GET", ts.URL+"/debug/trace?stage=step", nil, http.StatusOK, &tb)
	for _, sp := range tb.Spans {
		if sp.Stage != obs.StageStep {
			t.Errorf("stage filter leaked %+v", sp)
		}
	}
	doJSON(t, "GET", ts.URL+"/debug/trace?n=nope", nil, http.StatusBadRequest, nil)
}

// TestDebugTraceDisabled checks the endpoint reports enabled=false (and
// ingest responses carry no trace id) when TraceDepth is 0.
func TestDebugTraceDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1})
	var tb debugTraceBody
	doJSON(t, "GET", ts.URL+"/debug/trace", nil, http.StatusOK, &tb)
	if tb.Enabled || len(tb.Spans) != 0 {
		t.Errorf("disabled tracer served %+v", tb)
	}
}

// TestSlowTickWatchdog configures an absurdly low slow-tick threshold so
// every batch trips the watchdog, and checks the slow-batch counter
// surfaces in both metrics bodies.
func TestSlowTickWatchdog(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1, SlowTick: time.Nanosecond, TickDelay: 10 * time.Microsecond})
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 1}).GenerateTrace(32)
	sess := createSession(t, ts.URL, "detect", "OcpSimpleRead")
	streamTicks(t, ts.URL, sess.ID, tr, 32)

	var snap MetricsSnapshot
	doJSON(t, "GET", ts.URL+"/metrics", nil, http.StatusOK, &snap)
	if snap.SlowBatches == 0 {
		t.Error("slow_batches = 0, want > 0 with 1ns threshold")
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "cescd_slow_batches_total") {
		t.Error("exposition missing cescd_slow_batches_total")
	}
}

// TestObsScrapeDuringIngest hammers the ingest path from several writer
// goroutines while scraping /metrics (both content types) and
// /debug/trace concurrently. Run under -race this proves the tracer
// rings, stage histograms, and per-spec counters tolerate concurrent
// readers; the assertions only check nothing 500s and totals add up.
func TestObsScrapeDuringIngest(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 4, QueueDepth: 64, TraceDepth: 128, SlowTick: time.Millisecond})
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 5, FaultRate: 0.1}).GenerateTrace(200)

	const writers = 4
	sessions := make([]SessionInfoJSON, writers)
	for i := range sessions {
		sessions[i] = createSession(t, ts.URL, "assert", "OcpSimpleRead")
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			streamTicks(t, ts.URL, id, tr, 25)
		}(sessions[i].ID)
	}
	scrape := func(path, accept string) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			req, err := http.NewRequest("GET", ts.URL+path, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if accept != "" {
				req.Header.Set("Accept", accept)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("GET %s: status %d", path, resp.StatusCode)
				return
			}
		}
	}
	wg.Add(3)
	go scrape("/metrics", "")
	go scrape("/metrics", "application/json")
	go scrape("/debug/trace?n=50", "")

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Writers finish on their own; scrapers spin until told to stop.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var snap MetricsSnapshot
		doJSON(t, "GET", ts.URL+"/metrics", nil, http.StatusOK, &snap)
		if snap.TicksTotal == uint64(writers*len(tr)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ticks_total = %d, want %d", snap.TicksTotal, writers*len(tr))
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	<-done

	var snap MetricsSnapshot
	doJSON(t, "GET", ts.URL+"/metrics", nil, http.StatusOK, &snap)
	if snap.TraceSpans == 0 {
		t.Error("trace_spans = 0 with tracing enabled")
	}
	if snap.StageLatencyP99["step"] == 0 {
		t.Error("stage step has no p99 after ingest")
	}
}
