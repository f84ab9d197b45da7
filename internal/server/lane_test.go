package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/chart"
	"repro/internal/faultinject"
	"repro/internal/monitor"
	"repro/internal/ocp"
	"repro/internal/parser"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/verif"
	"repro/internal/wal"
)

// laneChart is the Fig. 6 simple read without its causality arrow: no
// scoreboard actions, no Chk guards, so the synthesized table is
// chk-free and a single-spec detect session on it is lane-steppable.
func laneChart() *chart.SCESC {
	c := ocp.SimpleReadChart()
	c.ChartName = "lane_read"
	c.Arrows = nil
	return c
}

// newLaneServer builds a server with both the lane-eligible spec and
// the arrowed (chk-carrying) original loaded.
func newLaneServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	src := parser.Print("LaneRead", laneChart()) +
		parser.Print("OcpSimpleRead", ocp.SimpleReadChart())
	if _, err := s.LoadSpecSource(src); err != nil {
		t.Fatalf("loading spec: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// prettyNDJSON renders the trace as indented, multi-line JSON values.
// The lenient stream decoder accepts this; the strict byte-level batch
// decoder does not, so a body in this shape is guaranteed to take the
// slow map path.
func prettyNDJSON(t *testing.T, tr trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, s := range tr {
		data, err := json.MarshalIndent(stateJSON(s), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(data)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestBatchFastPathParity streams the same trace through the zero-copy
// batch decoder (compact NDJSON) and the lenient map decoder (indented
// JSON, which the strict decoder rejects) into two sessions of the same
// server: verdicts, coverage, and accept ticks must be byte-identical,
// and both must match the in-process reference engine.
func TestBatchFastPathParity(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2, QueueDepth: 16})
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 7, FaultRate: 0.15}).GenerateTrace(300)

	fast := createSession(t, ts.URL, "detect", "OcpSimpleRead")
	slow := createSession(t, ts.URL, "detect", "OcpSimpleRead")
	for at := 0; at < len(tr); at += 60 {
		end := at + 60
		if end > len(tr) {
			end = len(tr)
		}
		doJSON(t, "POST", fmt.Sprintf("%s/sessions/%s/ticks?wait=1", ts.URL, fast.ID),
			ndjson(t, tr[at:end]), http.StatusOK, nil)
		doJSON(t, "POST", fmt.Sprintf("%s/sessions/%s/ticks?wait=1", ts.URL, slow.ID),
			prettyNDJSON(t, tr[at:end]), http.StatusOK, nil)
	}

	got, want := monitorsJSON(t, ts.URL, fast.ID), monitorsJSON(t, ts.URL, slow.ID)
	if string(got) != string(want) {
		t.Fatalf("fast path diverged from slow path:\n fast %s\n slow %s", got, want)
	}
	m, err := synth.Synthesize(ocp.SimpleReadChart(), nil)
	if err != nil {
		t.Fatal(err)
	}
	wantAccepts := verif.EngineAcceptTicks(monitor.NewEngine(m, nil, monitor.ModeDetect), tr)
	v := verdictFor(t, ts.URL, fast.ID, "OcpSimpleRead")
	if v.Steps != len(tr) || v.Accepts != len(wantAccepts) {
		t.Fatalf("fast path verdict steps=%d accepts=%d, want %d/%d",
			v.Steps, v.Accepts, len(tr), len(wantAccepts))
	}
}

// TestFastPathJournalRecoveryParity checks the raw-batch journal frame
// end to end: fast-path batches are journaled as verbatim NDJSON
// (recBatchRaw), survive a crash, and replay to byte-identical verdicts.
func TestFastPathJournalRecoveryParity(t *testing.T) {
	dir := t.TempDir()
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 21, FaultRate: 0.1}).GenerateTrace(200)
	// SnapshotEvery < 0 keeps the whole journal, so recovery must replay
	// every raw batch rather than lean on a checkpoint.
	s1, ts1 := newWALServer(t, dir, Config{Shards: 1, QueueDepth: 16, SnapshotEvery: -1})
	sess := createSession(t, ts1.URL, "detect", "OcpSimpleRead")
	streamTicks(t, ts1.URL, sess.ID, tr, 25)
	want := monitorsJSON(t, ts1.URL, sess.ID)
	s1.Crash()
	ts1.Close()

	// The journal of a fast-path session must actually hold raw frames —
	// otherwise this test would only re-prove the map-batch path.
	mgr, err := wal.OpenManager(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rawRecords := 0
	j, err := mgr.OpenJournal(sess.ID, func(rec wal.Record) error {
		if rec.Kind == RecordBatchRaw {
			rawRecords++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Abandon()
	if rawRecords == 0 {
		t.Fatal("no raw batch records journaled; fast path did not engage")
	}

	s2, ts2 := newWALServer(t, dir, Config{Shards: 1, QueueDepth: 16, SnapshotEvery: -1})
	if got := monitorsJSON(t, ts2.URL, sess.ID); string(got) != string(want) {
		t.Fatalf("recovered verdicts diverged:\n got %s\nwant %s", got, want)
	}
	if replayed := s2.Metrics().BatchesReplayed; replayed == 0 {
		t.Fatal("no batches replayed from the raw journal")
	}
}

// TestLanePageoutRevivalParity checks the snapshot round trip of a
// lane-eligible session: page it out mid-stream, revive it with more
// fast-path traffic, and compare against an uninterrupted run.
func TestLanePageoutRevivalParity(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Shards: 1, QueueDepth: 16, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadSpecSource(parser.Print("LaneRead", laneChart())); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 5, FaultRate: 0.1}).GenerateTrace(240)
	sess := createSession(t, ts.URL, "detect", "LaneRead")
	live, ok := s.session(sess.ID)
	if !ok || !live.onTable {
		t.Fatalf("session not lane-eligible (onTable false); fast path preconditions regressed")
	}
	streamTicks(t, ts.URL, sess.ID, tr[:120], 30)
	doJSON(t, "POST", fmt.Sprintf("%s/sessions/%s/pageout", ts.URL, sess.ID), nil, http.StatusOK, nil)
	if s.Metrics().SessionsCold != 1 {
		t.Fatal("session not cold after pageout")
	}
	streamTicks(t, ts.URL, sess.ID, tr[120:], 30) // revives, then continues fast
	got := verdictFor(t, ts.URL, sess.ID, "LaneRead")

	m, err := synth.Synthesize(laneChart(), nil)
	if err != nil {
		t.Fatal(err)
	}
	wantAccepts := verif.EngineAcceptTicks(monitor.NewEngine(m, nil, monitor.ModeDetect), tr)
	if got.Steps != len(tr) || got.Accepts != len(wantAccepts) {
		t.Fatalf("revived session verdict steps=%d accepts=%d, want %d/%d",
			got.Steps, got.Accepts, len(tr), len(wantAccepts))
	}
	if s.Metrics().SessionsRevived != 1 {
		t.Fatal("revival not counted")
	}
}

// TestLaneTickCounter checks cescd_lane_group_ticks_total counts exactly
// the ticks stepped via the shared table: one N-tick batch to a chk-free
// single-spec session moves it by N (no drain window to land in), and a
// batch to a chk-bearing session moves it by 0. Both sessions' verdicts
// match the reference engine.
func TestLaneTickCounter(t *testing.T) {
	s, ts := newLaneServer(t, Config{Shards: 1, QueueDepth: 16})
	cases := []struct {
		spec    string
		chart   chart.Chart
		onTable bool
	}{
		{"LaneRead", laneChart(), true},
		{"OcpSimpleRead", ocp.SimpleReadChart(), false},
	}
	for i, tc := range cases {
		tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: int64(i + 1), FaultRate: 0.1}).GenerateTrace(300)
		info := createSession(t, ts.URL, "detect", tc.spec)
		if live, ok := s.session(info.ID); !ok || live.onTable != tc.onTable {
			t.Fatalf("%s: onTable = %v, want %v", tc.spec, ok && live.onTable, tc.onTable)
		}
		before := s.Metrics().LaneGroupTicks
		streamTicks(t, ts.URL, info.ID, tr, len(tr))
		want := uint64(0)
		if tc.onTable {
			want = uint64(len(tr))
		}
		if got := s.Metrics().LaneGroupTicks - before; got != want {
			t.Fatalf("%s: lane_group_ticks moved by %d, want %d", tc.spec, got, want)
		}
		m, err := synth.Synthesize(tc.chart, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantAccepts := verif.EngineAcceptTicks(monitor.NewEngine(m, nil, monitor.ModeDetect), tr)
		v := verdictFor(t, ts.URL, info.ID, tc.spec)
		if v.Steps != len(tr) || fmt.Sprint(v.AcceptTicks) != fmt.Sprint(wantAccepts) {
			t.Fatalf("%s: steps=%d accept ticks %v, want %d/%v", tc.spec, v.Steps, v.AcceptTicks, len(tr), wantAccepts)
		}
	}
}

// TestLaneFaultPlaneParity: with a fault plane wired, a lane-eligible
// session still steps on the table, and a panic injected mid-batch
// quarantines it exactly as it quarantines a program-engine session of
// the same spec (diagnostics armed keep that one off the table) fed the
// same stream under an identically seeded plane.
func TestLaneFaultPlaneParity(t *testing.T) {
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 17, FaultRate: 0.1}).GenerateTrace(150)
	verdict := func(diagDepth int) MonitorVerdictJSON {
		faults := faultinject.New(1).Add(faultinject.Rule{
			Point: "monitor.step.LaneRead", Kind: faultinject.KindPanic, After: 2, Count: 1,
		})
		s, ts := newLaneServer(t, Config{Shards: 1, QueueDepth: 16, Faults: faults})
		info := createSessionDiag(t, ts.URL, "detect", diagDepth, "LaneRead")
		live, ok := s.session(info.ID)
		if !ok || live.onTable != (diagDepth == 0) {
			t.Fatalf("diag_depth %d: session on table = %v", diagDepth, ok && live.onTable)
		}
		streamTicks(t, ts.URL, info.ID, tr, 30)
		if lane := s.Metrics().LaneGroupTicks; (lane > 0) != live.onTable {
			t.Fatalf("diag_depth %d: lane_group_ticks = %d", diagDepth, lane)
		}
		v := verdictFor(t, ts.URL, info.ID, "LaneRead")
		v.Diagnostics = nil
		return v
	}
	table, prog := verdict(0), verdict(4)
	if !table.Quarantined || table.Steps < 60 || table.Steps >= 90 {
		t.Fatalf("injected panic did not quarantine the table-stepped monitor in batch 3: %+v", table)
	}
	got, _ := json.Marshal(table)
	want, _ := json.Marshal(prog)
	if string(got) != string(want) {
		t.Fatalf("table session diverged from program session:\n table %s\n prog  %s", got, want)
	}
}

// TestLaneChurnStress churns lane membership under concurrent traffic:
// sessions stream fast-path batches, page out, revive, and delete while
// sharing shards. Run with -race in CI; here it must simply converge to
// correct per-session verdicts.
func TestLaneChurnStress(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Shards: 2, QueueDepth: 64, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadSpecSource(parser.Print("LaneRead", laneChart())); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	m, err := synth.Synthesize(laneChart(), nil)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: int64(w + 1), FaultRate: 0.1}).GenerateTrace(256)
			info := createSession(t, ts.URL, "detect", "LaneRead")
			streamTicks(t, ts.URL, info.ID, tr[:128], 32)
			if w%2 == 0 {
				doJSON(t, "POST", fmt.Sprintf("%s/sessions/%s/pageout", ts.URL, info.ID), nil, http.StatusOK, nil)
			}
			streamTicks(t, ts.URL, info.ID, tr[128:], 32)
			wantAccepts := verif.EngineAcceptTicks(monitor.NewEngine(m, nil, monitor.ModeDetect), tr)
			v := verdictFor(t, ts.URL, info.ID, "LaneRead")
			if v.Steps != len(tr) || v.Accepts != len(wantAccepts) {
				errs <- fmt.Sprintf("worker %d: steps=%d accepts=%d, want %d/%d",
					w, v.Steps, v.Accepts, len(tr), len(wantAccepts))
			}
			if w%3 == 0 {
				doJSON(t, "DELETE", fmt.Sprintf("%s/sessions/%s", ts.URL, info.ID), nil, http.StatusOK, nil)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK, nil)
}

// TestJournalBudgetPruning checks the disk cap: cold paged sessions are
// pruned oldest-checkpoint-first once the journal directory outgrows
// the budget, hot sessions are never touched, and the gauge/counters
// report it.
func TestJournalBudgetPruning(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Shards: 1, QueueDepth: 16, WALDir: dir, JournalBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadSpecSource(ocpSimpleReadSource(t)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 3}).GenerateTrace(40)
	cold := make([]SessionInfoJSON, 2)
	for i := range cold {
		cold[i] = createSession(t, ts.URL, "detect", "OcpSimpleRead")
		streamTicks(t, ts.URL, cold[i].ID, tr, 20)
		doJSON(t, "POST", fmt.Sprintf("%s/sessions/%s/pageout", ts.URL, cold[i].ID), nil, http.StatusOK, nil)
	}
	hot := createSession(t, ts.URL, "detect", "OcpSimpleRead")
	streamTicks(t, ts.URL, hot.ID, tr, 20)

	if got := s.Metrics().JournalBytes; got == 0 {
		t.Fatal("journal_bytes gauge not populated")
	}
	s.sweep(time.Now())

	snap := s.Metrics()
	if snap.JournalPruned != 2 {
		t.Fatalf("journal_pruned = %d, want 2", snap.JournalPruned)
	}
	if snap.SessionsCold != 0 {
		t.Fatalf("sessions_cold = %d after pruning, want 0", snap.SessionsCold)
	}
	// Pruned sessions are gone for good; the hot one is untouched.
	for _, c := range cold {
		doJSON(t, "GET", fmt.Sprintf("%s/sessions/%s/verdicts", ts.URL, c.ID), nil, http.StatusNotFound, nil)
	}
	if v := verdictFor(t, ts.URL, hot.ID, "OcpSimpleRead"); v.Steps != len(tr) {
		t.Fatalf("hot session damaged by pruning: %+v", v)
	}
	ids, err := s.wal.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != hot.ID {
		t.Fatalf("journal dirs after pruning = %v, want only %s", ids, hot.ID)
	}
}

// kindClashSrc declares busy as a proposition in one spec and as an
// event in the other, so no session vocabulary can hold both: a session
// over the pair falls back to one event.State per tick.
const kindClashSrc = `
cesc BusyProp {
  prop busy;
  scesc on clk {
    instances A, B;
    tick { e1 = busy: go @ A -> B; }
    tick { done @ B -> A; }
  }
}
cesc BusyEvent {
  scesc on clk {
    instances A, B;
    tick { busy @ A -> B; }
    tick { done @ B -> A; }
  }
}
`

// TestSessionPathReporting checks the path field of GET /sessions/{id}
// and GET /sessions: assert sessions and sessions with diag_depth run
// packed, a chk-free single-spec detect session runs on the table, and
// only a vocabulary kind clash leaves a session on the map path.
func TestSessionPathReporting(t *testing.T) {
	s, ts := newLaneServer(t, Config{Shards: 1})
	if _, err := s.LoadSpecSource(kindClashSrc); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		mode  string
		diag  int
		specs []string
		want  string
	}{
		{"detect", 0, []string{"LaneRead"}, "table"},
		{"detect", 4, []string{"LaneRead"}, "packed"},
		{"assert", 0, []string{"LaneRead"}, "packed"},
		{"assert", 0, []string{"OcpSimpleRead"}, "packed"},
		{"assert", 0, []string{"OcpSimpleRead", "LaneRead"}, "packed"},
		{"detect", 0, []string{"OcpSimpleRead"}, "packed"},
		{"assert", 0, []string{"BusyProp", "BusyEvent"}, "map"},
	}
	want := map[string]string{}
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 3, FaultRate: 0.2}).GenerateTrace(64)
	for _, tc := range cases {
		info := createSessionDiag(t, ts.URL, tc.mode, tc.diag, tc.specs...)
		if info.Path != tc.want {
			t.Errorf("%s session (diag %d) on %v: create reports path %q, want %q",
				tc.mode, tc.diag, tc.specs, info.Path, tc.want)
		}
		streamTicks(t, ts.URL, info.ID, tr, 32)
		var got SessionInfoJSON
		doJSON(t, "GET", ts.URL+"/sessions/"+info.ID, nil, http.StatusOK, &got)
		if got.Path != tc.want || got.Steps != len(tr) {
			t.Errorf("GET /sessions/%s: path %q steps %d, want %q and %d", info.ID, got.Path, got.Steps, tc.want, len(tr))
		}
		want[info.ID] = tc.want
	}
	var list struct {
		Sessions []SessionInfoJSON `json:"sessions"`
	}
	doJSON(t, "GET", ts.URL+"/sessions", nil, http.StatusOK, &list)
	if len(list.Sessions) != len(cases) {
		t.Fatalf("GET /sessions listed %d sessions, want %d", len(list.Sessions), len(cases))
	}
	for _, info := range list.Sessions {
		if info.Path != want[info.ID] {
			t.Errorf("GET /sessions: %s path %q, want %q", info.ID, info.Path, want[info.ID])
		}
	}
}
