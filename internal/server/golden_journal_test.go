package server

import (
	"bytes"
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

// goldenJournalsDir holds one directory per historical journal format,
// each written by an older cescd and frozen with the bodies that daemon
// served. See the README.md in each.
const goldenJournalsDir = "../../testdata/journals"

// goldenSession is one journaled session of a golden directory.
type goldenSession struct {
	id string
	// kinds is the record kind sequence its journal holds.
	kinds []byte
	// path is the execution path the session must recover onto.
	path string
	// verdicts and diagnostics name the frozen bodies the writing daemon
	// served before its crash ("" when not recorded).
	verdicts, diagnostics string
	// tail names an NDJSON batch posted as seq tailSeq to a daemon that
	// had recovered the journal, and the bodies it served afterwards.
	tail                          string
	tailSeq                       int
	tailVerdicts, tailDiagnostics string
}

// goldenJournal is one golden directory.
type goldenJournal struct {
	dir string
	// legacy marks a writer whose verdicts body predates today's fields:
	// only the fields it served are compared.
	legacy bool
	// snapshot checks the directory's one snapshot record.
	snapshot func(t *testing.T, snap snapshotRecordJSON)
	sessions []goldenSession
}

var goldenJournals = []goldenJournal{
	{
		// Assert sessions on the map ingest path (commit 5cec395): meta
		// and JSON batch frames, and a v3 snapshot carrying diagnostics
		// rings, one slot quoting a symbol neither spec reads.
		dir: "assert-v3",
		snapshot: func(t *testing.T, snap snapshotRecordJSON) {
			if snap.Format != 3 || snap.Meta.Mode != "assert" || len(snap.Monitors) != 2 {
				t.Fatalf("snapshot = format %d, mode %q, %d monitors", snap.Format, snap.Meta.Mode, len(snap.Monitors))
			}
			for _, ms := range snap.Monitors {
				if d := ms.Engine.Diag; d == nil || d.Depth != defaultDiagDepth || len(d.Reports) == 0 {
					t.Errorf("monitor %s: snapshot diagnostics %+v", ms.Spec, d)
				}
			}
		},
		sessions: []goldenSession{
			{id: "27435a8db4ac4ef5", kinds: []byte{recSnapshot, recBatch, recBatch}, path: "packed",
				verdicts: "verdicts.json", diagnostics: "diagnostics.json",
				tail: "tail.ndjson", tailSeq: 7, tailVerdicts: "tail_verdicts.json", tailDiagnostics: "tail_diagnostics.json"},
			{id: "8e69904b7caee48e", kinds: []byte{recMeta, recBatch, recBatch, recBatch}, path: "packed",
				verdicts: "early_verdicts.json", diagnostics: "early_diagnostics.json"},
		},
	},
	{
		// Raw body frames (commit fb2b951): a table-path detect session
		// with untraced and traced raw frames, and a diag_depth assert
		// session with a v3 snapshot, an untraced raw frame, and traced
		// raw frames under a client and a server trace id.
		dir: "raw-v3",
		snapshot: func(t *testing.T, snap snapshotRecordJSON) {
			if snap.Format != 3 || snap.Meta.DiagDepth != 4 || len(snap.Monitors) != 1 {
				t.Fatalf("snapshot = format %d, diag_depth %d, %d monitors", snap.Format, snap.Meta.DiagDepth, len(snap.Monitors))
			}
			if d := snap.Monitors[0].Engine.Diag; d == nil || d.Depth != 4 || len(d.Reports) == 0 {
				t.Errorf("snapshot diagnostics %+v", d)
			}
		},
		sessions: []goldenSession{
			{id: "c3030bc974bc4862", kinds: []byte{recMeta, recBatchRaw, recBatchRaw, recBatchRawTraced}, path: "table",
				verdicts: "table_verdicts.json", diagnostics: "table_diagnostics.json",
				tail: "table_tail.ndjson", tailSeq: 4, tailVerdicts: "table_tail_verdicts.json", tailDiagnostics: "table_tail_diagnostics.json"},
			{id: "753971c15f679ac9", kinds: []byte{recSnapshot, recBatchRaw, recBatchRawTraced, recBatchRawTraced}, path: "packed",
				verdicts: "diag_verdicts.json", diagnostics: "diag_diagnostics.json",
				tail: "diag_tail.ndjson", tailSeq: 8, tailVerdicts: "diag_tail_verdicts.json", tailDiagnostics: "diag_tail_diagnostics.json"},
		},
	},
	{
		// The first journal format (commit 9799835): meta, JSON batch
		// frames, and a format-0 snapshot with map-keyed scoreboard
		// entries, for an assert session on the Fig. 5 causality chart.
		dir:    "map-v2",
		legacy: true,
		snapshot: func(t *testing.T, snap snapshotRecordJSON) {
			if snap.Format != 0 || len(snap.Monitors) != 1 {
				t.Fatalf("snapshot = format %d, %d monitors", snap.Format, len(snap.Monitors))
			}
			sb := snap.Monitors[0].Scoreboard
			if len(sb.Slots) != 0 || sb.Counts["ev1"] == 0 {
				t.Errorf("snapshot scoreboard is not a live map-keyed entry: %+v", sb)
			}
		},
		sessions: []goldenSession{
			{id: "6e3501eafa300341", kinds: []byte{recSnapshot, recBatch, recBatch}, path: "packed",
				verdicts: "verdicts.json", tail: "tail.ndjson", tailSeq: 7, tailVerdicts: "tail_verdicts.json"},
			{id: "4ea09ef113ef0f6e", kinds: []byte{recMeta, recBatch, recBatch, recBatch}, path: "packed",
				verdicts: "early_verdicts.json"},
		},
	},
}

// goldenRecords returns the journal records of one golden session.
func goldenRecords(tb testing.TB, dir, id string) []wal.Record {
	tb.Helper()
	m, err := wal.OpenManager(wal.Options{Dir: filepath.Join(goldenJournalsDir, dir, "wal")})
	if err != nil {
		tb.Fatal(err)
	}
	var recs []wal.Record
	_, _, err = m.ReadFrom(id, wal.Position{}, func(rec wal.Record) error {
		recs = append(recs, wal.Record{Kind: rec.Kind, Payload: append([]byte(nil), rec.Payload...)})
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return recs
}

// goldenFile reads one frozen file of a golden directory.
func goldenFile(t *testing.T, dir, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(goldenJournalsDir, dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGoldenJournalFormat pins what each golden directory holds, so the
// replay test below keeps covering the old record kinds and snapshot
// encodings: every session's record kind sequence, the one snapshot's
// format, and a trace id in every traced raw frame.
func TestGoldenJournalFormat(t *testing.T) {
	for _, gj := range goldenJournals {
		t.Run(gj.dir, func(t *testing.T) {
			snaps := 0
			for _, gs := range gj.sessions {
				var ks []byte
				for _, rec := range goldenRecords(t, gj.dir, gs.id) {
					ks = append(ks, rec.Kind)
					switch rec.Kind {
					case recSnapshot:
						var snap snapshotRecordJSON
						if err := json.Unmarshal(rec.Payload, &snap); err != nil {
							t.Fatal(err)
						}
						gj.snapshot(t, snap)
						snaps++
					case recBatchRawTraced:
						if len(rec.Payload) < rawBatchHeaderLen+2 || rec.Payload[16] == 0 && rec.Payload[17] == 0 {
							t.Errorf("session %s: traced raw frame without a trace id", gs.id)
						}
					}
				}
				if !slices.Equal(ks, gs.kinds) {
					t.Errorf("session %s record kinds = %v, want %v", gs.id, ks, gs.kinds)
				}
			}
			if snaps != 1 {
				t.Errorf("%d snapshot records, want 1", snaps)
			}
		})
	}
}

// compactGolden is a frozen body as today's daemon serves it: compact,
// with a trailing newline.
func compactGolden(t *testing.T, dir, name string) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.Compact(&b, goldenFile(t, dir, name)); err != nil {
		t.Fatal(err)
	}
	return append(b.Bytes(), '\n')
}

// legacyVerdicts keeps the verdict fields every daemon since the first
// journal format has served.
func legacyVerdicts(t *testing.T, body []byte) []byte {
	t.Helper()
	var v struct {
		Monitors []struct {
			Spec        string       `json:"spec"`
			Steps       int          `json:"steps"`
			Accepts     int          `json:"accepts"`
			Violations  int          `json:"violations"`
			AcceptTicks []int        `json:"accept_ticks"`
			Coverage    CoverageJSON `json:"coverage"`
		} `json:"monitors"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGoldenAssertJournalReplay recovers every golden directory into
// packed (or table) sessions. Verdicts and diagnostics must be
// byte-identical to the bodies the writing daemon served before its
// crash, and feeding each recorded tail batch must reproduce what that
// daemon served after recovering the same journal and stepping the same
// batch. Those daemons indented their bodies and today's serves them
// compact, so a frozen body is compared through json.Compact (and a
// newline): same members, same order, same escapes, same numbers.
func TestGoldenAssertJournalReplay(t *testing.T) {
	for _, gj := range goldenJournals {
		t.Run(gj.dir, func(t *testing.T) {
			dir := t.TempDir()
			copyTree(t, filepath.Join(goldenJournalsDir, gj.dir, "wal"), dir)
			s, err := New(Config{Shards: 1, QueueDepth: 16, SnapshotEvery: 4, WALDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(func() {
				ts.Close()
				s.Close()
			})
			if got := s.Metrics().SessionsRecovered; got != uint64(len(gj.sessions)) {
				t.Fatalf("sessions_recovered = %d, want %d", got, len(gj.sessions))
			}
			check := func(id, endpoint, golden string) {
				t.Helper()
				if golden == "" {
					return
				}
				got := getRaw(t, fmt.Sprintf("%s/sessions/%s/%s", ts.URL, id, endpoint))
				want := compactGolden(t, gj.dir, golden)
				if gj.legacy {
					got, want = legacyVerdicts(t, got), legacyVerdicts(t, want)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s of %s differs from %s:\n got %s\nwant %s", endpoint, id, golden, got, want)
				}
			}
			for _, gs := range gj.sessions {
				var info SessionInfoJSON
				doJSON(t, "GET", ts.URL+"/sessions/"+gs.id, nil, http.StatusOK, &info)
				if info.Path != gs.path {
					t.Errorf("recovered session %s runs on path %q, want %q", gs.id, info.Path, gs.path)
				}
				check(gs.id, "verdicts", gs.verdicts)
				check(gs.id, "diagnostics", gs.diagnostics)
			}
			for _, gs := range gj.sessions {
				if gs.tail == "" {
					continue
				}
				doJSON(t, "POST", fmt.Sprintf("%s/sessions/%s/ticks?wait=1&seq=%d", ts.URL, gs.id, gs.tailSeq),
					goldenFile(t, gj.dir, gs.tail), http.StatusOK, nil)
				check(gs.id, "verdicts", gs.tailVerdicts)
				check(gs.id, "diagnostics", gs.tailDiagnostics)
			}
		})
	}
}
