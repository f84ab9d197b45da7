package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/ocp"
)

// postTicksStatus posts one tick batch and returns the bare status code,
// for loops that must tolerate 409 (paged out / migrating) and 429
// (shed / quota) instead of failing like doJSON does.
func postTicksStatus(t *testing.T, url string, body []byte) int {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// coldIDs lists the sessions the server reports as cold.
func coldIDs(t *testing.T, base string) map[string]bool {
	t.Helper()
	var list struct {
		Sessions []SessionInfoJSON `json:"sessions"`
	}
	doJSON(t, "GET", base+"/sessions", nil, http.StatusOK, &list)
	out := make(map[string]bool)
	for _, info := range list.Sessions {
		if info.Cold {
			out[info.ID] = true
		}
	}
	return out
}

// TestPageOutRevivalParity is the paging acceptance test: a session
// paged out mid-stream through the ops endpoint and transparently
// revived by the next batch must report verdicts byte-identical to a
// session that never left memory, and the split eviction counters must
// attribute the round trip as paged+revived, not deleted.
func TestPageOutRevivalParity(t *testing.T) {
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 11, FaultRate: 0.2}).GenerateTrace(600)
	cfg := Config{Shards: 2, QueueDepth: 16, SnapshotEvery: 4}

	// Reference: same specs, same trace, never paged.
	_, refTS := newWALServer(t, t.TempDir(), cfg)
	ref := createSession(t, refTS.URL, "assert", "OcpSimpleRead", "OcpSimpleReadB")
	streamTicks(t, refTS.URL, ref.ID, tr, 32)
	want := monitorsJSON(t, refTS.URL, ref.ID)

	s, ts := newWALServer(t, t.TempDir(), cfg)
	sess := createSession(t, ts.URL, "assert", "OcpSimpleRead", "OcpSimpleReadB")
	streamTicks(t, ts.URL, sess.ID, tr[:300], 32)

	var paged map[string]string
	doJSON(t, "POST", ts.URL+"/sessions/"+sess.ID+"/pageout", nil, http.StatusOK, &paged)
	if paged["paged"] != sess.ID {
		t.Fatalf("pageout response = %v, want paged=%s", paged, sess.ID)
	}
	// Idempotent on an already-cold session; 404 on an unknown ID.
	doJSON(t, "POST", ts.URL+"/sessions/"+sess.ID+"/pageout", nil, http.StatusOK, nil)
	doJSON(t, "POST", ts.URL+"/sessions/no-such-session/pageout", nil, http.StatusNotFound, nil)

	// Cold sessions stay listed (from the cold table alone) and release
	// their memory charge.
	if cold := coldIDs(t, ts.URL); !cold[sess.ID] {
		t.Fatalf("session %s not listed cold after pageout: %v", sess.ID, cold)
	}
	m := s.Metrics()
	if m.SessionsPaged != 1 || m.SessionsDeleted != 0 || m.SessionsCold != 1 || m.SessionsActive != 0 {
		t.Fatalf("after pageout: paged=%d deleted=%d cold=%d active=%d",
			m.SessionsPaged, m.SessionsDeleted, m.SessionsCold, m.SessionsActive)
	}
	if m.MemUsedBytes != 0 {
		t.Fatalf("mem_used after paging the only session = %d, want 0", m.MemUsedBytes)
	}
	if m.SessionsEvicted != m.SessionsPaged+m.SessionsDeleted {
		t.Fatalf("legacy sessions_evicted = %d, want paged+deleted = %d",
			m.SessionsEvicted, m.SessionsPaged+m.SessionsDeleted)
	}

	// The rest of the stream revives the session transparently.
	streamTicks(t, ts.URL, sess.ID, tr[300:], 32)
	got := monitorsJSON(t, ts.URL, sess.ID)
	if string(got) != string(want) {
		t.Fatalf("verdicts after pageout+revival differ from unpaged run:\n got %s\nwant %s", got, want)
	}
	m = s.Metrics()
	if m.SessionsRevived != 1 || m.SessionsCold != 0 || m.SessionsActive != 1 {
		t.Fatalf("after revival: revived=%d cold=%d active=%d", m.SessionsRevived, m.SessionsCold, m.SessionsActive)
	}
}

// TestSeqDedupSurvivesPageOut pins the exactly-once contract across the
// cold round trip: the ?seq watermark travels inside the page-out
// checkpoint, so a batch retried against a revived session is still
// acknowledged as a duplicate without being re-stepped.
func TestSeqDedupSurvivesPageOut(t *testing.T) {
	s, ts := newWALServer(t, t.TempDir(), Config{Shards: 1, QueueDepth: 16})
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 12, FaultRate: 0.2}).GenerateTrace(64)
	sess := createSession(t, ts.URL, "assert", "OcpSimpleRead")

	url := func(seq int) string {
		return fmt.Sprintf("%s/sessions/%s/ticks?wait=1&seq=%d", ts.URL, sess.ID, seq)
	}
	doJSON(t, "POST", url(1), ndjson(t, tr[:32]), http.StatusOK, nil)
	if err := s.PageOutSession(sess.ID); err != nil {
		t.Fatalf("pageout: %v", err)
	}

	// Retry of the already-applied batch: revives, then dedups.
	var resp map[string]any
	doJSON(t, "POST", url(1), ndjson(t, tr[:32]), http.StatusOK, &resp)
	if resp["duplicate"] != true || resp["accepted"] != float64(0) {
		t.Fatalf("retried batch after pageout: %v, want duplicate with 0 accepted", resp)
	}
	doJSON(t, "POST", url(2), ndjson(t, tr[32:]), http.StatusOK, nil)

	var info SessionInfoJSON
	doJSON(t, "GET", ts.URL+"/sessions/"+sess.ID, nil, http.StatusOK, &info)
	if info.Steps != 64 {
		t.Fatalf("steps = %d, want 64 (duplicate must not re-step)", info.Steps)
	}
	m := s.Metrics()
	if m.BatchesDeduped != 1 || m.SessionsRevived != 1 {
		t.Fatalf("deduped=%d revived=%d, want 1/1", m.BatchesDeduped, m.SessionsRevived)
	}
}

// TestPageOutWithoutJournal: a session with no WAL has nowhere durable
// to page to — the ops endpoint answers 409.
func TestPageOutWithoutJournal(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1, QueueDepth: 16})
	sess := createSession(t, ts.URL, "detect", "OcpSimpleRead")
	doJSON(t, "POST", ts.URL+"/sessions/"+sess.ID+"/pageout", nil, http.StatusConflict, nil)
}

// TestIdleSweepPagesJournaled: with journaling on, the idle TTL pages
// (state preserved, counted as paged) instead of deleting, and the next
// touch revives.
func TestIdleSweepPagesJournaled(t *testing.T) {
	cfg := Config{Shards: 1, QueueDepth: 16, IdleTTL: 40 * time.Millisecond, SweepEvery: 15 * time.Millisecond}
	s, ts := newWALServer(t, t.TempDir(), cfg)
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 13, FaultRate: 0.2}).GenerateTrace(64)
	sess := createSession(t, ts.URL, "assert", "OcpSimpleRead")
	streamTicks(t, ts.URL, sess.ID, tr, 32)

	waitFor(t, 5*time.Second, func() bool { return s.Metrics().SessionsPaged == 1 })
	m := s.Metrics()
	if m.SessionsDeleted != 0 || m.SessionsCold != 1 {
		t.Fatalf("idle sweep with journal: deleted=%d cold=%d, want 0/1", m.SessionsDeleted, m.SessionsCold)
	}
	// The verdict query revives the session with its state intact.
	v := verdictFor(t, ts.URL, sess.ID, "OcpSimpleRead")
	if v.Steps != 64 {
		t.Fatalf("revived verdict steps = %d, want 64", v.Steps)
	}
	if got := s.Metrics().SessionsRevived; got < 1 {
		t.Fatalf("sessions_revived = %d, want >= 1", got)
	}
}

// TestIdleSweepDeletesUnjournaled: without a journal, idle eviction
// remains deletion and is counted as such.
func TestIdleSweepDeletesUnjournaled(t *testing.T) {
	cfg := Config{Shards: 1, QueueDepth: 16, IdleTTL: 40 * time.Millisecond, SweepEvery: 15 * time.Millisecond}
	s, ts := newTestServer(t, cfg)
	sess := createSession(t, ts.URL, "detect", "OcpSimpleRead")

	waitFor(t, 5*time.Second, func() bool { return s.Metrics().SessionsDeleted == 1 })
	m := s.Metrics()
	if m.SessionsPaged != 0 || m.SessionsCold != 0 {
		t.Fatalf("idle sweep without journal: paged=%d cold=%d, want 0/0", m.SessionsPaged, m.SessionsCold)
	}
	doJSON(t, "GET", ts.URL+"/sessions/"+sess.ID, nil, http.StatusNotFound, nil)
}

// TestEvictStaleAfterPageOut: an idle sweep that read a session hot and
// then lost it to a racing page-out evicts with a stale pointer. The
// parked cold entry and the tenant counts must survive the eviction, and
// the session must still revive.
func TestEvictStaleAfterPageOut(t *testing.T) {
	s, ts := newWALServer(t, t.TempDir(), Config{Shards: 1, QueueDepth: 16})
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 14, FaultRate: 0.2}).GenerateTrace(32)
	sess := createSession(t, ts.URL, "assert", "OcpSimpleRead")
	streamTicks(t, ts.URL, sess.ID, tr, 32)
	stale, ok := s.session(sess.ID)
	if !ok {
		t.Fatal("session not hot after create")
	}
	if err := s.PageOutSession(sess.ID); err != nil {
		t.Fatalf("pageout: %v", err)
	}
	before := s.Metrics()
	s.evictSession(stale)
	after := s.Metrics()
	if after.SessionsCold != 1 || after.SessionsDeleted != 0 {
		t.Fatalf("after stale evict: cold=%d deleted=%d, want 1/0", after.SessionsCold, after.SessionsDeleted)
	}
	if !reflect.DeepEqual(after.Tenants, before.Tenants) {
		t.Fatalf("stale evict changed tenant counts: %v -> %v", before.Tenants, after.Tenants)
	}
	if cold := coldIDs(t, ts.URL); !cold[sess.ID] {
		t.Fatalf("session %s not listed cold after stale evict: %v", sess.ID, cold)
	}
	if v := verdictFor(t, ts.URL, sess.ID, "OcpSimpleRead"); v.Steps != 32 {
		t.Fatalf("revived verdict steps = %d, want 32", v.Steps)
	}
}

// TestMemBudgetPagesColdestFirst: sessions are priced into a global
// budget and the janitor relieves pressure by paging the least recently
// active sessions first, draining to the low watermark.
func TestMemBudgetPagesColdestFirst(t *testing.T) {
	// Price one idle session to size the budget exactly.
	ms, mts := newWALServer(t, t.TempDir(), Config{Shards: 1, QueueDepth: 16})
	createSession(t, mts.URL, "assert", "OcpSimpleRead")
	fp := ms.MemUsed()
	if fp <= 0 {
		t.Fatalf("measured footprint = %d, want > 0", fp)
	}

	// Budget holds three idle sessions; the fourth forces pressure, and
	// the low watermark (80%) demands two page-outs.
	cfg := Config{Shards: 1, QueueDepth: 16, MemBudget: fp*3 + fp/2, SweepEvery: 15 * time.Millisecond}
	s, ts := newWALServer(t, t.TempDir(), cfg)
	var ids []string
	for i := 0; i < 4; i++ {
		ids = append(ids, createSession(t, ts.URL, "assert", "OcpSimpleRead").ID)
		time.Sleep(5 * time.Millisecond) // distinct lastActive ordering
	}

	waitFor(t, 5*time.Second, func() bool { return s.Metrics().SessionsPaged == 2 })
	cold := coldIDs(t, ts.URL)
	if !cold[ids[0]] || !cold[ids[1]] || cold[ids[2]] || cold[ids[3]] {
		t.Fatalf("cold set = %v, want exactly the two coldest %v", cold, ids[:2])
	}
	if used := s.MemUsed(); used > cfg.MemBudget {
		t.Fatalf("mem used %d still over budget %d after sweep", used, cfg.MemBudget)
	}
}

// TestColdStartLazyRevival: Config.ColdStart registers journaled
// sessions as cold without replaying them, and the first touch pays the
// replay for that session alone — verdicts byte-identical to an
// uninterrupted run.
func TestColdStartLazyRevival(t *testing.T) {
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 14, FaultRate: 0.2}).GenerateTrace(400)
	cfg := Config{Shards: 2, QueueDepth: 16, SnapshotEvery: 4}

	_, refTS := newWALServer(t, t.TempDir(), cfg)
	ref := createSession(t, refTS.URL, "assert", "OcpSimpleRead", "OcpSimpleReadB")
	streamTicks(t, refTS.URL, ref.ID, tr, 32)
	want := monitorsJSON(t, refTS.URL, ref.ID)

	dir := t.TempDir()
	s1, ts1 := newWALServer(t, dir, cfg)
	a := createSession(t, ts1.URL, "assert", "OcpSimpleRead", "OcpSimpleReadB")
	b := createSession(t, ts1.URL, "assert", "OcpSimpleRead", "OcpSimpleReadB")
	streamTicks(t, ts1.URL, a.ID, tr[:200], 32)
	streamTicks(t, ts1.URL, b.ID, tr[:200], 32)
	ts1.Close()
	s1.Close()

	coldCfg := cfg
	coldCfg.ColdStart = true
	s2, ts2 := newWALServer(t, dir, coldCfg)
	m := s2.Metrics()
	if m.SessionsRecovered != 2 || m.SessionsCold != 2 || m.SessionsActive != 0 {
		t.Fatalf("cold start: recovered=%d cold=%d active=%d, want 2/2/0",
			m.SessionsRecovered, m.SessionsCold, m.SessionsActive)
	}
	if m.BatchesReplayed != 0 {
		t.Fatalf("cold start replayed %d batches, want 0 (lazy)", m.BatchesReplayed)
	}

	// Touching a revives it (and only it) with full state.
	streamTicks(t, ts2.URL, a.ID, tr[200:], 32)
	got := monitorsJSON(t, ts2.URL, a.ID)
	if string(got) != string(want) {
		t.Fatalf("verdicts after cold start differ from uninterrupted run:\n got %s\nwant %s", got, want)
	}
	m = s2.Metrics()
	if m.SessionsRevived != 1 || m.SessionsCold != 1 || m.BatchesReplayed == 0 {
		t.Fatalf("after first touch: revived=%d cold=%d replayed=%d", m.SessionsRevived, m.SessionsCold, m.BatchesReplayed)
	}
}

// TestCrashMidPageOutRecovers: a page-out whose checkpoint append dies
// (injected WAL fault) leaves the session hot and serving; a crash right
// after, recovered on the same directory, still reproduces verdicts
// byte-identical to an uninterrupted run — the journal tail the failed
// checkpoint would have pruned is exactly what recovery replays.
func TestCrashMidPageOutRecovers(t *testing.T) {
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 15, FaultRate: 0.2}).GenerateTrace(400)
	cfg := Config{Shards: 1, QueueDepth: 16, SnapshotEvery: 4}

	_, refTS := newWALServer(t, t.TempDir(), cfg)
	ref := createSession(t, refTS.URL, "assert", "OcpSimpleRead", "OcpSimpleReadB")
	streamTicks(t, refTS.URL, ref.ID, tr, 32)
	want := monitorsJSON(t, refTS.URL, ref.ID)

	dir := t.TempDir()
	faults := faultinject.New(1)
	crashCfg := cfg
	crashCfg.Faults = faults
	s1, ts1 := newWALServer(t, dir, crashCfg)
	sess := createSession(t, ts1.URL, "assert", "OcpSimpleRead", "OcpSimpleReadB")
	streamTicks(t, ts1.URL, sess.ID, tr[:200], 32)

	// The next WAL append — the page-out's checkpoint record — fails.
	faults.Add(faultinject.Rule{
		Point: "wal.append",
		Kind:  faultinject.KindError,
		After: faults.Hits("wal.append"),
	})
	if err := s1.PageOutSession(sess.ID); err == nil {
		t.Fatal("pageout with failing checkpoint append succeeded, want error")
	}
	m := s1.Metrics()
	if m.SessionsPaged != 0 || m.SessionsActive != 1 || m.WALErrors == 0 {
		t.Fatalf("after failed pageout: paged=%d active=%d wal_errors=%d, want 0/1/>0",
			m.SessionsPaged, m.SessionsActive, m.WALErrors)
	}

	// Power cut immediately after; the tail is intact on disk.
	s1.Crash()
	ts1.Close()
	_, ts2 := newWALServer(t, dir, cfg)
	streamTicks(t, ts2.URL, sess.ID, tr[200:], 32)
	got := monitorsJSON(t, ts2.URL, sess.ID)
	if string(got) != string(want) {
		t.Fatalf("verdicts after crash mid-pageout differ from uninterrupted run:\n got %s\nwant %s", got, want)
	}
}

// TestPageReviveIngestMigrateStress races a seq-numbered ingest stream
// against continuous page-outs and export/abort migration freezes on the
// same session (run under -race by `make race`/`make check`). Whatever
// interleaving happens, the final verdict state must be byte-identical
// to an undisturbed run — the 409/429 retry contract plus the dedup
// watermark make the chaos invisible.
func TestPageReviveIngestMigrateStress(t *testing.T) {
	cfg := Config{Shards: 2, QueueDepth: 64, SnapshotEvery: 8}
	_, refTS := newWALServer(t, t.TempDir(), cfg)
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 21, FaultRate: 0.2}).GenerateTrace(600)
	ref := createSession(t, refTS.URL, "assert", "OcpSimpleRead", "OcpSimpleReadB")
	streamTicks(t, refTS.URL, ref.ID, tr, 24)
	want := monitorsJSON(t, refTS.URL, ref.ID)

	s, ts := newWALServer(t, t.TempDir(), cfg)
	sess := createSession(t, ts.URL, "assert", "OcpSimpleRead", "OcpSimpleReadB")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // pager: demote the session whenever it is hot
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = s.PageOutSession(sess.ID) // errMigrating etc. are expected
			time.Sleep(3 * time.Millisecond)
		}
	}()
	go func() { // migrator: freeze/thaw via export + abort
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.ExportSession(sess.ID); err == nil {
				s.AbortMigration(sess.ID)
			}
			time.Sleep(3 * time.Millisecond)
		}
	}()

	seq := 0
	for at := 0; at < len(tr); at += 24 {
		end := at + 24
		if end > len(tr) {
			end = len(tr)
		}
		seq++
		body := ndjson(t, tr[at:end])
		url := fmt.Sprintf("%s/sessions/%s/ticks?wait=1&seq=%d", ts.URL, sess.ID, seq)
		for {
			code := postTicksStatus(t, url, body)
			if code == http.StatusOK || code == http.StatusAccepted {
				break
			}
			if code != http.StatusConflict && code != http.StatusTooManyRequests {
				t.Fatalf("batch %d: status %d, want 200/202 or retryable 409/429", seq, code)
			}
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()

	// One deterministic final round trip, then byte parity.
	if err := s.PageOutSession(sess.ID); err != nil {
		t.Fatalf("final pageout: %v", err)
	}
	got := monitorsJSON(t, ts.URL, sess.ID)
	if string(got) != string(want) {
		t.Fatalf("verdicts after page/revive/migrate stress differ:\n got %s\nwant %s", got, want)
	}
	var info SessionInfoJSON
	doJSON(t, "GET", ts.URL+"/sessions/"+sess.ID, nil, http.StatusOK, &info)
	if info.Steps != len(tr) {
		t.Fatalf("steps = %d, want %d (lost or doubled batches)", info.Steps, len(tr))
	}
	m := s.Metrics()
	if m.SessionsPaged == 0 || m.SessionsRevived == 0 {
		t.Fatalf("stress never paged/revived: paged=%d revived=%d", m.SessionsPaged, m.SessionsRevived)
	}
}
