package cluster_test

// The replicate wire format, pinned with frozen bytes: a golden journal
// segment posted unchanged is a valid ship, and a standby that promotes
// it serves the verdicts its writing daemon served. Refused ships leave
// the standby copy as it was. And every cluster handler that reads a
// body holds it to the server's body deadline.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wal"
)

// goldenDir is a frozen journal directory written by an older cescd.
const goldenDir = "../../testdata/journals/raw-v3"

// postReplicate POSTs body as a reset ship of one session and returns
// the status.
func postReplicate(t *testing.T, base, id, contentType string, body []byte) int {
	t.Helper()
	resp, err := http.Post(base+"/cluster/replicate?session="+id+"&reset=1", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestReplicateGoldenSegment posts each golden segment of raw-v3 to the
// session's ring owner as a replicate body, unchanged. Two refused
// ships follow, each with reset=1: the same segment with one CRC byte
// of its last frame flipped (400), and an older node's JSON body (415).
// A request for the session then promotes the standby copy, whose
// verdicts must be byte-identical to the directory's frozen verdicts:
// neither refusal may have wiped or appended to the copy.
func TestReplicateGoldenSegment(t *testing.T) {
	cfg := server.Config{Shards: 1, QueueDepth: 16, SnapshotEvery: 4}
	tc := newSplitCluster(t, 0, nil, map[string]server.Config{"alpha": cfg, "beta": cfg}, "alpha", "beta")
	for id, verdicts := range map[string]string{
		"c3030bc974bc4862": "table_verdicts.json",
		"753971c15f679ac9": "diag_verdicts.json",
	} {
		t.Run(id, func(t *testing.T) {
			segs, err := filepath.Glob(filepath.Join(goldenDir, "wal", id, "*.wal"))
			if err != nil || len(segs) != 1 {
				t.Fatalf("golden segments of %s: %v (%v)", id, segs, err)
			}
			seg, err := os.ReadFile(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			owner, _ := tc.nodes["alpha"].Ring().Owner(id)
			base := tc.srvs[owner.Name].URL

			if code := postReplicate(t, base, id, "application/octet-stream", seg); code != http.StatusOK {
				t.Errorf("golden segment: status %d, want 200", code)
			}
			var last wal.Record
			if err := wal.ReadFrames(seg, func(rec wal.Record) error {
				last = rec
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			flipped := bytes.Clone(seg)
			flipped[len(seg)-len(wal.AppendFrame(nil, last.Kind, last.Payload))+4] ^= 0x01
			if code := postReplicate(t, base, id, "application/octet-stream", flipped); code != http.StatusBadRequest {
				t.Errorf("flipped CRC byte: status %d, want 400", code)
			}
			old, _ := json.Marshal(map[string]any{"session": id, "reset": true, "records": []any{}})
			if code := postReplicate(t, base, id, "application/json", old); code != http.StatusUnsupportedMediaType {
				t.Errorf("JSON body: status %d, want 415", code)
			}

			var got []byte
			waitForCluster(t, 10*time.Second, func() bool {
				req, _ := http.NewRequest(http.MethodGet, base+"/sessions/"+id+"/verdicts", nil)
				req.Header.Set("Accept", "application/json")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				got, _ = io.ReadAll(resp.Body)
				return resp.StatusCode == http.StatusOK
			})
			frozen, err := os.ReadFile(filepath.Join(goldenDir, verdicts))
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := json.Compact(&want, frozen); err != nil {
				t.Fatal(err)
			}
			want.WriteByte('\n')
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("promoted verdicts differ from %s:\n got %s\nwant %s", verdicts, got, want.Bytes())
			}
		})
	}
}

// TestClusterBodyDeadline holds the cluster's own body reads to the
// server's body deadline: a raw client that sends a header and part of
// its body to join, leave, adopt, migrate or replicate, then stalls with
// the connection open, must get an answer or a close within the
// deadline plus slack.
func TestClusterBodyDeadline(t *testing.T) {
	t.Cleanup(func(d time.Duration) func() { return func() { server.BodyReadTimeout = d } }(server.BodyReadTimeout))
	server.BodyReadTimeout = 200 * time.Millisecond
	tc := newSplitCluster(t, 0, nil, map[string]server.Config{}, "alpha", "beta")
	addr := strings.TrimPrefix(tc.srvs["alpha"].URL, "http://")

	const slack = 2 * time.Second
	for _, c := range []struct {
		path, contentType, part string
	}{
		{"/cluster/join", "application/json", `{"name":"gamma"`},
		{"/cluster/leave", "application/json", `{"name":`},
		{"/cluster/adopt", "application/json", `{"epoch":`},
		{"/cluster/migrate", "application/json", `{"session":`},
		{"/cluster/replicate?session=s1&reset=1", "application/octet-stream", string(wal.AppendFrame(nil, 2, []byte("payload"))[:6])},
	} {
		stalled, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		fmt.Fprintf(stalled, "POST %s HTTP/1.1\r\nHost: x\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n%s",
			c.path, c.contentType, 10*len(c.part), c.part)
		stalled.SetReadDeadline(start.Add(server.BodyReadTimeout + slack))
		if resp, err := http.ReadResponse(bufio.NewReader(stalled), nil); err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: stalled body: status %d, want 400", c.path, resp.StatusCode)
			}
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Errorf("%s: stalled body: no answer or close within %v", c.path, server.BodyReadTimeout+slack)
		}
		if d := time.Since(start); d > server.BodyReadTimeout+slack {
			t.Errorf("%s: stalled body cut off after %v, want within %v", c.path, d, server.BodyReadTimeout+slack)
		}
		stalled.Close()
	}
}
