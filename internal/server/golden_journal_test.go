package server

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/wal"
)

// goldenAssertDir holds an assert-session journal written by the map
// ingest path that predates packed assert sessions, together with the
// verdicts and diagnostics bodies that daemon served. See its README.md.
const goldenAssertDir = "../../testdata/journals/assert-v3"

// The two journaled sessions of the golden directory.
const (
	// goldenSnapID is OcpSimpleRead + OcpBurstRead: a v3 snapshot
	// carrying both diagnostics rings (one slot quoting a symbol neither
	// spec reads), then two map batch frames.
	goldenSnapID = "27435a8db4ac4ef5"
	// goldenEarlyID is OcpSimpleRead alone: its meta record and three
	// map batch frames, no snapshot.
	goldenEarlyID = "8e69904b7caee48e"
)

// copyTree copies the regular files under src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// getRaw returns the exact body of a GET that must answer 200.
func getRaw(t *testing.T, url string) []byte {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// goldenFile reads one frozen response body.
func goldenFile(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(goldenAssertDir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGoldenJournalFormat pins what the golden directory holds, so the
// replay test below keeps covering the old record kinds: the early
// session is a meta record plus map batch frames, the other a v3
// snapshot with diagnostics rings plus map batch frames.
func TestGoldenJournalFormat(t *testing.T) {
	m, err := wal.OpenManager(wal.Options{Dir: filepath.Join(goldenAssertDir, "wal")})
	if err != nil {
		t.Fatal(err)
	}
	kinds := func(id string) (ks []byte, snap snapshotRecordJSON) {
		_, _, err := m.ReadFrom(id, wal.Position{}, func(rec wal.Record) error {
			ks = append(ks, rec.Kind)
			if rec.Kind == recSnapshot {
				return json.Unmarshal(rec.Payload, &snap)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return ks, snap
	}
	if ks, _ := kinds(goldenEarlyID); !slices.Equal(ks, []byte{recMeta, recBatch, recBatch, recBatch}) {
		t.Errorf("early session record kinds = %v", ks)
	}
	ks, snap := kinds(goldenSnapID)
	if !slices.Equal(ks, []byte{recSnapshot, recBatch, recBatch}) {
		t.Errorf("snapshot session record kinds = %v", ks)
	}
	if snap.Format != 3 || snap.Meta.Mode != "assert" || len(snap.Monitors) != 2 {
		t.Fatalf("snapshot = format %d, mode %q, %d monitors", snap.Format, snap.Meta.Mode, len(snap.Monitors))
	}
	for _, ms := range snap.Monitors {
		if d := ms.Engine.Diag; d == nil || d.Depth != defaultDiagDepth || len(d.Reports) == 0 {
			t.Errorf("monitor %s: snapshot diagnostics %+v", ms.Spec, d)
		}
	}
}

// TestGoldenAssertJournalReplay recovers the golden journal into packed
// assert sessions. Verdicts and diagnostics must be byte-identical to
// the bodies the writing daemon served before its crash, and feeding
// the recorded tail batch must reproduce what that daemon served after
// recovering the same journal and stepping the same batch.
func TestGoldenAssertJournalReplay(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join(goldenAssertDir, "wal"), dir)
	s, err := New(Config{Shards: 1, QueueDepth: 16, SnapshotEvery: 4, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	if got := s.Metrics().SessionsRecovered; got != 2 {
		t.Fatalf("sessions_recovered = %d, want 2", got)
	}
	check := func(id, endpoint, golden string) {
		t.Helper()
		got := getRaw(t, fmt.Sprintf("%s/sessions/%s/%s", ts.URL, id, endpoint))
		if want := goldenFile(t, golden); string(got) != string(want) {
			t.Errorf("%s of %s differs from %s:\n got %s\nwant %s", endpoint, id, golden, got, want)
		}
	}
	for _, id := range []string{goldenSnapID, goldenEarlyID} {
		var info SessionInfoJSON
		doJSON(t, "GET", ts.URL+"/sessions/"+id, nil, http.StatusOK, &info)
		if info.Path != "packed" {
			t.Errorf("recovered assert session %s runs on path %q, want packed", id, info.Path)
		}
	}
	check(goldenEarlyID, "verdicts", "early_verdicts.json")
	check(goldenEarlyID, "diagnostics", "early_diagnostics.json")
	check(goldenSnapID, "verdicts", "verdicts.json")
	check(goldenSnapID, "diagnostics", "diagnostics.json")

	doJSON(t, "POST", fmt.Sprintf("%s/sessions/%s/ticks?wait=1&seq=7", ts.URL, goldenSnapID),
		goldenFile(t, "tail.ndjson"), http.StatusOK, nil)
	check(goldenSnapID, "verdicts", "tail_verdicts.json")
	check(goldenSnapID, "diagnostics", "tail_diagnostics.json")
}
