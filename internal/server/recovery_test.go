package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/monitor"
	"repro/internal/ocp"
	"repro/internal/parser"
	"repro/internal/trace"
	"repro/internal/wal"
)

// newWALServer builds a journaling server over dir with the OCP
// simple-read spec loaded (under two names, so quarantine tests have a
// sibling monitor) and an httptest front end.
func newWALServer(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.WALDir = dir
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	src := parser.Print("OcpSimpleRead", ocp.SimpleReadChart()) +
		parser.Print("OcpSimpleReadB", ocp.SimpleReadChart())
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

// monitorsJSON renders the monitor verdicts of a session with the
// session-specific fields stripped, for byte-level parity comparison.
func monitorsJSON(t *testing.T, base, id string) []byte {
	t.Helper()
	var v VerdictsJSON
	doJSON(t, "GET", fmt.Sprintf("%s/sessions/%s/verdicts", base, id), nil, http.StatusOK, &v)
	data, err := json.MarshalIndent(v.Monitors, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCrashRecoveryParity is the crash-recovery acceptance test: a
// journaling server is killed mid-stream via the in-process crash hook,
// restarted on the same WAL directory, fed the rest of the Fig. 6 OCP
// trace, and must report verdict and coverage JSON byte-identical to a
// server that never crashed. SnapshotEvery is small so the run exercises
// checkpoints and journal pruning, not just raw replay.
func TestCrashRecoveryParity(t *testing.T) {
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 3, FaultRate: 0.2}).GenerateTrace(600)
	cfg := Config{Shards: 2, QueueDepth: 16, SnapshotEvery: 4}

	// Reference: one server, no crash.
	_, refTS := newWALServer(t, t.TempDir(), cfg)
	ref := createSession(t, refTS.URL, "assert", "OcpSimpleRead", "OcpSimpleReadB")
	streamTicks(t, refTS.URL, ref.ID, tr, 32)
	want := monitorsJSON(t, refTS.URL, ref.ID)

	// Crashing server: same spec, same trace, power cut at tick 300.
	dir := t.TempDir()
	s1, ts1 := newWALServer(t, dir, cfg)
	sess := createSession(t, ts1.URL, "assert", "OcpSimpleRead", "OcpSimpleReadB")
	streamTicks(t, ts1.URL, sess.ID, tr[:300], 32)
	s1.Crash()
	doJSON(t, "GET", ts1.URL+"/healthz", nil, http.StatusServiceUnavailable, nil)
	ts1.Close()

	s2, ts2 := newWALServer(t, dir, cfg)
	m := s2.Metrics()
	if m.SessionsRecovered != 1 {
		t.Fatalf("sessions_recovered = %d, want 1", m.SessionsRecovered)
	}
	if m.WAL == nil || m.WAL.Replayed == 0 {
		t.Fatalf("wal stats after recovery: %+v", m.WAL)
	}
	// The recovered session answers under its original ID.
	var info SessionInfoJSON
	doJSON(t, "GET", ts2.URL+"/sessions/"+sess.ID, nil, http.StatusOK, &info)
	if info.Steps != 300 {
		t.Fatalf("recovered session steps = %d, want 300", info.Steps)
	}
	streamTicks(t, ts2.URL, sess.ID, tr[300:], 32)
	got := monitorsJSON(t, ts2.URL, sess.ID)
	if string(got) != string(want) {
		t.Fatalf("verdicts after crash+recovery differ from uninterrupted run:\n got %s\nwant %s", got, want)
	}
}

// TestRecoverySurvivesSecondCrash re-crashes the recovered server before
// any new traffic: recovery itself must leave a journal that still
// reconstructs the session.
func TestRecoverySurvivesSecondCrash(t *testing.T) {
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 5, FaultRate: 0.1}).GenerateTrace(200)
	dir := t.TempDir()
	cfg := Config{Shards: 1, QueueDepth: 8, SnapshotEvery: 3}

	s1, ts1 := newWALServer(t, dir, cfg)
	sess := createSession(t, ts1.URL, "detect", "OcpSimpleRead")
	streamTicks(t, ts1.URL, sess.ID, tr[:100], 10)
	want := monitorsJSON(t, ts1.URL, sess.ID)
	s1.Crash()
	ts1.Close()

	s2, _ := newWALServer(t, dir, cfg)
	s2.Crash()

	_, ts3 := newWALServer(t, dir, cfg)
	if got := monitorsJSON(t, ts3.URL, sess.ID); string(got) != string(want) {
		t.Fatalf("second recovery diverged:\n got %s\nwant %s", got, want)
	}
}

// TestSeqDedup checks the exactly-once contract: a batch re-sent with
// the same ?seq is acknowledged without being applied, whether the first
// attempt succeeded or died after the accept point.
func TestSeqDedup(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1, QueueDepth: 8})
	sess := createSession(t, ts.URL, "detect", "OcpSimpleRead")
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 7}).GenerateTrace(20)
	body := ndjson(t, tr)

	url := fmt.Sprintf("%s/sessions/%s/ticks?wait=1&seq=1", ts.URL, sess.ID)
	doJSON(t, "POST", url, body, http.StatusOK, nil)
	var dup struct {
		Accepted  int  `json:"accepted"`
		Duplicate bool `json:"duplicate"`
	}
	doJSON(t, "POST", url, body, http.StatusOK, &dup)
	if !dup.Duplicate || dup.Accepted != 0 {
		t.Fatalf("replay ack = %+v, want duplicate", dup)
	}
	if v := verdictFor(t, ts.URL, sess.ID, "OcpSimpleRead"); v.Steps != len(tr) {
		t.Fatalf("steps = %d, want %d (batch double-applied)", v.Steps, len(tr))
	}
	// Stale seq (not just the previous one) is also absorbed.
	doJSON(t, "POST", fmt.Sprintf("%s/sessions/%s/ticks?wait=1&seq=2", ts.URL, sess.ID), body, http.StatusOK, nil)
	doJSON(t, "POST", url, body, http.StatusOK, &dup)
	if !dup.Duplicate {
		t.Fatalf("stale seq ack = %+v, want duplicate", dup)
	}
	doJSON(t, "POST", fmt.Sprintf("%s/sessions/%s/ticks?wait=1&seq=0", ts.URL, sess.ID), body, http.StatusBadRequest, nil)
}

// TestJournalAppendFailure injects a WAL append error: the request gets
// a 500, but the batch was already accepted in memory and the client's
// retry with the same seq is deduped — applied once, journaled by the
// retry path never.
func TestJournalAppendFailure(t *testing.T) {
	faults := faultinject.New(1).Add(faultinject.Rule{
		Point: "wal.append", Kind: faultinject.KindError, After: 1, Count: 1,
	})
	s, ts := newWALServer(t, t.TempDir(), Config{Shards: 1, QueueDepth: 8, Faults: faults})
	sess := createSession(t, ts.URL, "detect", "OcpSimpleRead")
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 9}).GenerateTrace(10)

	url := fmt.Sprintf("%s/sessions/%s/ticks?wait=1&seq=1", ts.URL, sess.ID)
	doJSON(t, "POST", url, ndjson(t, tr), http.StatusInternalServerError, nil)
	var dup struct {
		Duplicate bool `json:"duplicate"`
	}
	doJSON(t, "POST", url, ndjson(t, tr), http.StatusOK, &dup)
	if !dup.Duplicate {
		t.Fatalf("retry after journal failure not deduped: %+v", dup)
	}
	waitFor(t, time.Second, func() bool {
		return verdictFor(t, ts.URL, sess.ID, "OcpSimpleRead").Steps == len(tr)
	})
	if got := s.Metrics().WALErrors; got != 1 {
		t.Fatalf("wal_errors = %d, want 1", got)
	}
}

// TestJournalAppendFailureVCD checks that /vcd answers a journal append
// failure as /ticks does: 500, not the 400 of a malformed upload, since
// the chunk is already applied in memory.
func TestJournalAppendFailureVCD(t *testing.T) {
	faults := faultinject.New(1)
	s, ts := newWALServer(t, t.TempDir(), Config{Shards: 1, QueueDepth: 8, Faults: faults})
	sess := createSession(t, ts.URL, "detect", "OcpSimpleRead")
	faults.Add(faultinject.Rule{
		Point: "wal.append", Kind: faultinject.KindError, After: faults.Hits("wal.append"), Count: 1,
	})
	var buf bytes.Buffer
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 9}).GenerateTrace(40)
	if err := trace.WriteVCD(&buf, "ocp", trace.Trace(tr)); err != nil {
		t.Fatal(err)
	}
	doJSON(t, "POST", fmt.Sprintf("%s/sessions/%s/vcd", ts.URL, sess.ID), buf.Bytes(), http.StatusInternalServerError, nil)
	if got := s.Metrics().WALErrors; got != 1 {
		t.Fatalf("wal_errors = %d, want 1", got)
	}
}

// TestJournalBackgroundSyncFailure checks that a failed background
// fsync under the interval policy reaches the client: the session's
// next batch answers 500 and cescd_wal_errors_total rises by one. The
// journal has failed for good, so the retry of that batch, every later
// batch and a VCD upload answer 500 too, never a 200 duplicate.
func TestJournalBackgroundSyncFailure(t *testing.T) {
	faults := faultinject.New(1)
	s, ts := newWALServer(t, t.TempDir(), Config{
		Shards: 1, QueueDepth: 8, Faults: faults, FsyncEvery: 5 * time.Millisecond,
	})
	sess := createSession(t, ts.URL, "detect", "OcpSimpleRead")
	faults.Add(faultinject.Rule{
		Point: "wal.sync", Kind: faultinject.KindError, After: faults.Hits("wal.sync"), Count: 1,
	})
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 9}).GenerateTrace(20)
	url := fmt.Sprintf("%s/sessions/%s/ticks?wait=1", ts.URL, sess.ID)
	doJSON(t, "POST", url+"&seq=1", ndjson(t, tr[:10]), http.StatusOK, nil)
	waitFor(t, 2*time.Second, func() bool { return faults.Fires("wal.sync") == 1 })
	before := s.Metrics().WALErrors
	doJSON(t, "POST", url+"&seq=2", ndjson(t, tr[10:]), http.StatusInternalServerError, nil)
	doJSON(t, "POST", url+"&seq=2", ndjson(t, tr[10:]), http.StatusInternalServerError, nil)
	doJSON(t, "POST", url+"&seq=1", ndjson(t, tr[:10]), http.StatusInternalServerError, nil)
	doJSON(t, "POST", url+"&seq=3", ndjson(t, tr[10:]), http.StatusInternalServerError, nil)
	var buf bytes.Buffer
	if err := trace.WriteVCD(&buf, "ocp", trace.Trace(tr)); err != nil {
		t.Fatal(err)
	}
	doJSON(t, "POST", fmt.Sprintf("%s/sessions/%s/vcd", ts.URL, sess.ID), buf.Bytes(), http.StatusInternalServerError, nil)
	if err := s.PageOutSession(sess.ID); !errors.Is(err, errJournal) {
		t.Fatalf("page-out of a session whose journal failed = %v, want errJournal", err)
	}
	if got := s.Metrics().WALErrors; got != before+1 {
		t.Fatalf("wal_errors = %d, want %d", got, before+1)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if want := fmt.Sprintf("cescd_wal_errors_total %d\n", before+1); !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("/metrics lacks %q", want)
	}
}

// TestQuarantine injects a panic into one monitor's step path: that
// monitor is fenced off with its counters frozen, the sibling monitor in
// the same session and a second session keep processing every tick, and
// the daemon stays healthy.
func TestQuarantine(t *testing.T) {
	// Step faults are counted per batch: After: 1 skips the first batch
	// and fires on the second (ticks 30..59), at a seeded in-batch offset.
	faults := faultinject.New(1).Add(faultinject.Rule{
		Point: "monitor.step.OcpSimpleRead", Kind: faultinject.KindPanic, After: 1, Count: 1,
	})
	s, ts := newWALServer(t, t.TempDir(), Config{Shards: 2, QueueDepth: 16, Faults: faults})
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 11, FaultRate: 0.1}).GenerateTrace(120)

	sess := createSession(t, ts.URL, "assert", "OcpSimpleRead", "OcpSimpleReadB")
	other := createSession(t, ts.URL, "assert", "OcpSimpleReadB")
	streamTicks(t, ts.URL, sess.ID, tr, 30)
	streamTicks(t, ts.URL, other.ID, tr, 30)

	hurt := verdictFor(t, ts.URL, sess.ID, "OcpSimpleRead")
	if !hurt.Quarantined || hurt.QuarantineReason == "" {
		t.Fatalf("panicking monitor not quarantined: %+v", hurt)
	}
	if hurt.Steps >= len(tr) {
		t.Fatalf("quarantined monitor kept stepping: %d steps", hurt.Steps)
	}
	for _, v := range []MonitorVerdictJSON{
		verdictFor(t, ts.URL, sess.ID, "OcpSimpleReadB"),
		verdictFor(t, ts.URL, other.ID, "OcpSimpleReadB"),
	} {
		if v.Quarantined || v.Steps != len(tr) {
			t.Fatalf("healthy monitor affected by sibling panic: %+v", v)
		}
	}
	if got := s.Metrics().MonitorsQuarantined; got != 1 {
		t.Fatalf("monitors_quarantined = %d, want 1", got)
	}
	doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK, nil)
}

// TestQuarantineSurvivesRecovery checks the quarantine flag is part of
// the journaled state: after a crash the recovered session reports the
// monitor as quarantined (replay re-fences it deterministically even
// without the fault plane, but snapshots must carry the flag too).
func TestQuarantineSurvivesRecovery(t *testing.T) {
	// Per-batch counting: the panic lands inside the second batch of 10.
	faults := faultinject.New(1).Add(faultinject.Rule{
		Point: "monitor.step.OcpSimpleRead", Kind: faultinject.KindPanic, After: 1, Count: 1,
	})
	dir := t.TempDir()
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 13}).GenerateTrace(60)
	s1, ts1 := newWALServer(t, dir, Config{Shards: 1, QueueDepth: 8, SnapshotEvery: 2, Faults: faults})
	sess := createSession(t, ts1.URL, "detect", "OcpSimpleRead", "OcpSimpleReadB")
	streamTicks(t, ts1.URL, sess.ID, tr, 10)
	want := monitorsJSON(t, ts1.URL, sess.ID)
	s1.Crash()
	ts1.Close()

	// Recover WITHOUT the fault plane: quarantine state must come from
	// the snapshot, not from re-injecting the panic.
	_, ts2 := newWALServer(t, dir, Config{Shards: 1, QueueDepth: 8, SnapshotEvery: 2})
	if got := monitorsJSON(t, ts2.URL, sess.ID); string(got) != string(want) {
		t.Fatalf("recovered quarantine state diverged:\n got %s\nwant %s", got, want)
	}
}

// TestReplayFaultPlanPerBatch checks that journal replay consumes the
// fault plan per batch, as live processing does: a counted panic rule
// fires on its fourth batch live, and a recovery on a plane with the
// same rules and seed must quarantine the monitor at the same tick, with
// byte-identical verdicts. A replay that counted one hit per tick would
// fire on the fourth tick instead.
func TestReplayFaultPlanPerBatch(t *testing.T) {
	plane := func() *faultinject.Plane {
		return faultinject.New(5).Add(faultinject.Rule{
			Point: "monitor.step.OcpSimpleRead", Kind: faultinject.KindPanic, After: 3, Count: 1,
		})
	}
	dir := t.TempDir()
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 19, FaultRate: 0.1}).GenerateTrace(192)
	// SnapshotEvery < 0 keeps the whole journal, so recovery replays
	// every batch through the plane rather than restoring a checkpoint.
	cfg := Config{Shards: 1, QueueDepth: 8, SnapshotEvery: -1}
	cfg.Faults = plane()
	s1, ts1 := newWALServer(t, dir, cfg)
	sess := createSession(t, ts1.URL, "detect", "OcpSimpleRead", "OcpSimpleReadB")
	streamTicks(t, ts1.URL, sess.ID, tr, 32)
	hurt := verdictFor(t, ts1.URL, sess.ID, "OcpSimpleRead")
	if !hurt.Quarantined || hurt.Steps < 96 || hurt.Steps >= 128 {
		t.Fatalf("panic did not quarantine the monitor in batch 4: %+v", hurt)
	}
	want := monitorsJSON(t, ts1.URL, sess.ID)
	s1.Crash()
	ts1.Close()

	cfg.Faults = plane()
	_, ts2 := newWALServer(t, dir, cfg)
	if got := monitorsJSON(t, ts2.URL, sess.ID); string(got) != string(want) {
		t.Fatalf("replay fired the fault plan at a different tick:\n got %s\nwant %s", got, want)
	}
}

// TestHotLoadDuringTraffic hammers a session with ticks while POSTing a
// malformed spec update: the load is rejected, the previous version
// keeps serving both the session and new lookups, and a well-formed
// replace afterwards succeeds.
func TestHotLoadDuringTraffic(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2, QueueDepth: 32})
	sess := createSession(t, ts.URL, "detect", "OcpSimpleRead")
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 17}).GenerateTrace(40)
	body := ndjson(t, tr)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			doJSON(t, "POST", fmt.Sprintf("%s/sessions/%s/ticks?wait=1", ts.URL, sess.ID),
				body, http.StatusOK, nil)
		}
	}()

	for i := 0; i < 20; i++ {
		// Parse error and mid-batch synthesis-level error: both must
		// leave the registry untouched.
		doJSON(t, "POST", ts.URL+"/specs?replace=1", []byte("chart Broken {"), http.StatusBadRequest, nil)
		var specs struct {
			Specs []Spec `json:"specs"`
		}
		doJSON(t, "GET", ts.URL+"/specs", nil, http.StatusOK, &specs)
		if len(specs.Specs) != 1 || specs.Specs[0].Name != "OcpSimpleRead" {
			t.Errorf("registry changed by failed load: %+v", specs.Specs)
			break
		}
	}
	close(stop)
	wg.Wait()

	good := parser.Print("OcpSimpleRead", ocp.SimpleReadChart())
	doJSON(t, "POST", ts.URL+"/specs?replace=1", []byte(good), http.StatusCreated, nil)
	// The session still runs the monitors it was created with.
	if v := verdictFor(t, ts.URL, sess.ID, "OcpSimpleRead"); v.Steps == 0 {
		t.Fatalf("session stalled: %+v", v)
	}
}

// TestVCDRecoveryParity journals the VCD upload path too: a crash after
// a VCD upload recovers to the same verdicts, both from per-chunk
// snapshots and by replaying every chunk's NDJSON batch frame.
func TestVCDRecoveryParity(t *testing.T) {
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 19, FaultRate: 0.15}).GenerateTrace(500)
	var buf bytes.Buffer
	if err := trace.WriteVCD(&buf, "ocp", trace.Trace(tr)); err != nil {
		t.Fatal(err)
	}
	vcd := buf.Bytes()
	for _, every := range []int{1, -1} {
		cfg := Config{Shards: 1, QueueDepth: 8, SnapshotEvery: every}

		_, refTS := newWALServer(t, t.TempDir(), cfg)
		ref := createSession(t, refTS.URL, "detect", "OcpSimpleRead")
		doJSON(t, "POST", fmt.Sprintf("%s/sessions/%s/vcd", refTS.URL, ref.ID), vcd, http.StatusOK, nil)
		want := monitorsJSON(t, refTS.URL, ref.ID)

		dir := t.TempDir()
		s1, ts1 := newWALServer(t, dir, cfg)
		sess := createSession(t, ts1.URL, "detect", "OcpSimpleRead")
		doJSON(t, "POST", fmt.Sprintf("%s/sessions/%s/vcd", ts1.URL, sess.ID), vcd, http.StatusOK, nil)
		s1.Crash()
		ts1.Close()

		s2, ts2 := newWALServer(t, dir, cfg)
		if got := monitorsJSON(t, ts2.URL, sess.ID); string(got) != string(want) {
			t.Fatalf("snapshot-every %d: VCD session recovery diverged:\n got %s\nwant %s", every, got, want)
		}
		if replayed := s2.Metrics().BatchesReplayed; every < 0 && replayed == 0 {
			t.Fatalf("snapshot-every %d: no VCD batch frames replayed", every)
		}
	}
}

// TestRecoveryFromV2Snapshot replays a PR-2-format journal: the packed
// (v3) snapshot records of a crashed server are down-converted to the
// map-based scoreboard encoding that pre-format-bump daemons wrote, and
// recovery from that journal must yield verdicts byte-identical to the
// uninterrupted run. This pins the decoder's backward compatibility, not
// just its self-round-trip.
func TestRecoveryFromV2Snapshot(t *testing.T) {
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 23, FaultRate: 0.2}).GenerateTrace(600)
	cfg := Config{Shards: 2, QueueDepth: 16, SnapshotEvery: 4}

	_, refTS := newWALServer(t, t.TempDir(), cfg)
	ref := createSession(t, refTS.URL, "assert", "OcpSimpleRead", "OcpSimpleReadB")
	streamTicks(t, refTS.URL, ref.ID, tr, 32)
	want := monitorsJSON(t, refTS.URL, ref.ID)

	dirA := t.TempDir()
	s1, ts1 := newWALServer(t, dirA, cfg)
	sess := createSession(t, ts1.URL, "assert", "OcpSimpleRead", "OcpSimpleReadB")
	streamTicks(t, ts1.URL, sess.ID, tr[:300], 32)
	s1.Crash()
	ts1.Close()

	// Rewrite the journal into dirB with every snapshot record in the
	// v2 encoding.
	type rawRec struct {
		kind    byte
		payload []byte
	}
	var recs []rawRec
	sawSnapshot := false
	mgrA, err := wal.OpenManager(wal.Options{Dir: dirA})
	if err != nil {
		t.Fatal(err)
	}
	jA, err := mgrA.OpenJournal(sess.ID, func(rec wal.Record) error {
		payload := append([]byte(nil), rec.Payload...)
		if rec.Kind == recSnapshot {
			var snap snapshotRecordJSON
			if err := json.Unmarshal(payload, &snap); err != nil {
				return err
			}
			snap.Format = 0
			for i := range snap.Monitors {
				sb := &snap.Monitors[i].Scoreboard
				sb.Counts = make(map[string]int)
				sb.AddedAt = make(map[string][]int64)
				for j, name := range sb.Slots {
					sb.Counts[name] = sb.SlotCounts[j]
					sb.AddedAt[name] = sb.SlotAddedAt[j]
				}
				sb.Slots, sb.SlotCounts, sb.SlotAddedAt = nil, nil, nil
			}
			var err error
			if payload, err = json.Marshal(snap); err != nil {
				return err
			}
			sawSnapshot = true
		}
		recs = append(recs, rawRec{kind: rec.Kind, payload: payload})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	jA.Abandon()
	if !sawSnapshot {
		t.Fatal("crashed journal contains no snapshot record; test exercises nothing")
	}

	dirB := t.TempDir()
	mgrB, err := wal.OpenManager(wal.Options{Dir: dirB})
	if err != nil {
		t.Fatal(err)
	}
	jB, err := mgrB.OpenJournal(sess.ID, func(wal.Record) error {
		return fmt.Errorf("fresh journal not empty")
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := jB.Append(r.kind, r.payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := jB.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := jB.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newWALServer(t, dirB, cfg)
	streamTicks(t, ts2.URL, sess.ID, tr[300:], 32)
	if got := monitorsJSON(t, ts2.URL, sess.ID); string(got) != string(want) {
		t.Fatalf("recovery from v2-format snapshot diverged:\n got %s\nwant %s", got, want)
	}
}

// TestRecoveredSessionsShareCompiledSpec checks that a spec source is
// compiled once per daemon, however its sessions come back: recovered
// at startup, revived after a page-out, or adopted from another node,
// every session of one source runs on the same monitor, and the spec
// load that follows recovery reuses it too.
func TestRecoveredSessionsShareCompiledSpec(t *testing.T) {
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 7, FaultRate: 0.2}).GenerateTrace(40)
	cfg := Config{Shards: 2, QueueDepth: 8, SnapshotEvery: 3}
	dir := t.TempDir()
	s1, ts1 := newWALServer(t, dir, cfg)
	var ids []string
	for i := 0; i < 3; i++ {
		sess := createSession(t, ts1.URL, "assert", "OcpSimpleRead")
		streamTicks(t, ts1.URL, sess.ID, tr, 8)
		ids = append(ids, sess.ID)
	}
	s1.Crash()
	ts1.Close()

	// A peer with its own compile of the same source exports a session.
	peer, peerTS := newTestServer(t, Config{Shards: 1})
	moved := createSession(t, peerTS.URL, "assert", "OcpSimpleRead")
	streamTicks(t, peerTS.URL, moved.ID, tr, 8)
	payload, err := peer.ExportSession(moved.ID)
	if err != nil {
		t.Fatal(err)
	}

	// newWALServer recovers first and loads its specs after, as cescd does.
	s2, _ := newWALServer(t, dir, cfg)
	monitorOf := func(id string) *monitor.Monitor {
		t.Helper()
		sess, err := s2.fetchSession(id)
		if err != nil {
			t.Fatalf("session %s: %v", id, err)
		}
		return sess.mons[0].eng.Monitor()
	}
	want := monitorOf(ids[0])
	if got := monitorOf(ids[1]); got != want {
		t.Errorf("two recovered sessions of one source run on different monitors")
	}
	if err := s2.PageOutSession(ids[2]); err != nil {
		t.Fatal(err)
	}
	if got := monitorOf(ids[2]); got != want {
		t.Errorf("revived session runs on a monitor of its own")
	}
	if err := s2.AdoptSession(moved.ID, []wal.Record{{Kind: recSnapshot, Payload: payload}}); err != nil {
		t.Fatal(err)
	}
	if got := monitorOf(moved.ID); got != want {
		t.Errorf("adopted session runs on a monitor of its own")
	}
	if sp, ok := s2.specs.Get("OcpSimpleRead"); !ok || sp.mon != want {
		t.Errorf("spec loaded after recovery was compiled again")
	}
}

// TestReplacedSpecRecoversAsJournaled replaces a spec under a live
// session: the session keeps the chart it was created on, and after a
// crash it must come back on that chart, not on the one now loaded
// under its name, which GET /specs alone lists.
func TestReplacedSpecRecoversAsJournaled(t *testing.T) {
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 3, FaultRate: 0.2}).GenerateTrace(120)
	cfg := Config{Shards: 2, QueueDepth: 8, SnapshotEvery: 4}
	dir := t.TempDir()
	s1, ts1 := newWALServer(t, dir, cfg)
	old := createSession(t, ts1.URL, "assert", "OcpSimpleRead")
	replacement := parser.Print("OcpSimpleRead", ocp.BurstReadChart())
	doJSON(t, "POST", ts1.URL+"/specs?replace=1", []byte(replacement), http.StatusCreated, nil)
	replaced := createSession(t, ts1.URL, "assert", "OcpSimpleRead")
	streamTicks(t, ts1.URL, old.ID, tr, 16)
	streamTicks(t, ts1.URL, replaced.ID, tr, 16)
	want := monitorsJSON(t, ts1.URL, old.ID)
	if string(want) == string(monitorsJSON(t, ts1.URL, replaced.ID)) {
		t.Fatal("the replacement chart gives the same verdicts; the test shows nothing")
	}
	var listed struct{ Specs []*Spec }
	doJSON(t, "GET", ts1.URL+"/specs", nil, http.StatusOK, &listed)
	var wantSpec *Spec
	for _, sp := range listed.Specs {
		if sp.Name == "OcpSimpleRead" {
			wantSpec = sp
		}
	}
	s1.Crash()
	ts1.Close()

	cfg.WALDir = dir
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.Close)
	if _, err := s2.LoadSpecSource(replacement); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)
	if got := monitorsJSON(t, ts2.URL, old.ID); string(got) != string(want) {
		t.Fatalf("session recovered on another chart than it journaled:\n got %s\nwant %s", got, want)
	}
	listed.Specs = nil
	doJSON(t, "GET", ts2.URL+"/specs", nil, http.StatusOK, &listed)
	if len(listed.Specs) != 1 || *listed.Specs[0] != *wantSpec {
		t.Fatalf("GET /specs after recovery = %+v, want only %+v", listed.Specs, wantSpec)
	}
}

// TestRegistryCachesOnlyAcceptedSources: the source cache holds the
// loaded sources and the journal-resolved ones, nothing else. A load
// refused for a name collision caches nothing, a replace drops the
// replaced source, and a journaled name that disagrees with its source
// is refused whether or not the source is cached.
func TestRegistryCachesOnlyAcceptedSources(t *testing.T) {
	r := newRegistry()
	simple := parser.Print("X", ocp.SimpleReadChart())
	burst := parser.Print("X", ocp.BurstReadChart())
	if _, err := r.LoadSource(simple, false); err != nil {
		t.Fatal(err)
	}
	if _, err := r.LoadSource(burst, false); err == nil {
		t.Fatal("a colliding load without replace was accepted")
	}
	if len(r.bySource) != 1 || r.bySource[simple] == nil {
		t.Fatalf("refused load left %d cached sources, want only the loaded one", len(r.bySource))
	}
	if _, err := r.resolve("Y", simple); err == nil {
		t.Fatal("resolve accepted a cached source under another name")
	}
	if _, err := r.resolve("Y", burst); err == nil {
		t.Fatal("resolve accepted an uncached source under another name")
	}
	if _, err := r.LoadSource(burst, true); err != nil {
		t.Fatal(err)
	}
	if len(r.bySource) != 1 || r.bySource[burst] == nil {
		t.Fatalf("replace left %d cached sources, want only the new one", len(r.bySource))
	}
	// A session journaled on the replaced source compiles it once more,
	// and every later one shares that artifact; GET /specs is unchanged.
	first, err := r.resolve("X", simple)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := r.resolve("X", simple); err != nil || again != first {
		t.Fatalf("second resolve of one source = %p, %v; want %p", again, err, first)
	}
	if sp, _ := r.Get("X"); sp.Source != burst || r.Len() != 1 {
		t.Fatalf("resolve changed the loaded specs: X is %q, %d loaded", sp.Source, r.Len())
	}
}
