package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/ocp"
	"repro/internal/parser"
	"repro/internal/wal"
)

// encoderLine is the reference rendering of a tick: what json.Encoder
// writes for it.
func encoderLine(t testing.TB, tk StateJSON) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(tk); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// tickCases are the seeds of FuzzAppendTick and the table of
// TestAppendTickMatchesEncoder: names that need every kind of escape
// json.Encoder applies, empty names, false props, and nil against empty
// slices and maps.
var tickCases = []StateJSON{
	{},
	{Events: []string{}, Props: map[string]bool{}},
	{Events: []string{"MCmd_rd", "Addr", "SCmd_accept"}},
	{Props: map[string]bool{"busy": true, "all": false, "zz": true}},
	{Events: []string{"b", "a", "b"}, Props: map[string]bool{"p": true}},
	{Events: []string{""}, Props: map[string]bool{"": true}},
	{Events: []string{`say "hi"`, `back\slash`}, Props: map[string]bool{`"q"`: false}},
	{Events: []string{"tab\there", "nl\n", "nul\x00", "bell\x07", "del\x7f"}},
	{Events: []string{"<script>", "a&b"}, Props: map[string]bool{"x>y": true}},
	{Events: []string{"line\u2028sep", "para\u2029sep", "é", "日本"}},
	{Events: []string{"bad\xffutf8", "\xc3"}, Props: map[string]bool{"\xed\xa0\x80": true}},
	{Props: map[string]bool{
		"p00": true, "p01": true, "p02": true, "p03": true, "p04": true, "p05": true,
		"p06": true, "p07": true, "p08": true, "p09": true, "p10": true, "p11": true,
		"p12": true, "p13": true, "p14": true, "p15": true, "p16": true, "p17": false,
	}},
}

func TestAppendTickMatchesEncoder(t *testing.T) {
	for i, tk := range tickCases {
		if got, want := AppendTick(nil, tk), encoderLine(t, tk); !bytes.Equal(got, want) {
			t.Errorf("case %d: AppendTick = %q, json.Encoder = %q", i, got, want)
		}
	}
}

// TestAppendTickZeroAlloc holds the encoder at 0 allocs once dst has
// room, for ticks of plain names with up to 16 props.
func TestAppendTickZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	ticks := tickCases[:5]
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		buf = buf[:0]
		for _, tk := range ticks {
			buf = AppendTick(buf, tk)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendTick allocates %.1f/op, want 0", allocs)
	}
}

// TestAppendTicks checks a batch is the concatenation of its ticks'
// AppendTick lines, and that tickLen sizes a batch of plain names into
// one allocation.
func TestAppendTicks(t *testing.T) {
	var want []byte
	for _, tk := range tickCases {
		want = AppendTick(want, tk)
	}
	if got := AppendTicks(nil, tickCases); !bytes.Equal(got, want) {
		t.Fatalf("AppendTicks = %q, want %q", got, want)
	}
	plain := tickCases[:5]
	if raceEnabled {
		return // the race detector adds allocations
	}
	if allocs := testing.AllocsPerRun(100, func() { AppendTicks(nil, plain) }); allocs != 1 {
		t.Fatalf("AppendTicks allocates %.1f/op for plain names, want 1", allocs)
	}
}

// FuzzAppendTick checks that AppendTick writes json.Encoder's bytes for
// arbitrary names, and that the strict batch decoder packs those bytes
// exactly as the lenient encoding/json path does over a vocabulary that
// declares every name. events and props split at NUL into names unless
// mask bit 4 keeps each whole (so a name may hold a NUL too); mask bits
// 0-3 choose nil or empty slices and maps, and bits 8 up make props
// false.
func FuzzAppendTick(f *testing.F) {
	for i, tk := range tickCases {
		var evs, props []string
		evs = append(evs, tk.Events...)
		for p := range tk.Props {
			props = append(props, p)
		}
		mask := uint64(16)
		if len(tk.Events) > 1 || len(tk.Props) > 1 {
			mask = 0
		}
		if tk.Events == nil {
			mask |= 1
		} else if len(tk.Events) == 0 {
			mask |= 2
		}
		if tk.Props == nil {
			mask |= 4
		} else if len(tk.Props) == 0 {
			mask |= 8
		}
		f.Add(strings.Join(evs, "\x00"), strings.Join(props, "\x00"), mask|uint64(i)<<8)
	}
	f.Fuzz(func(t *testing.T, events, props string, mask uint64) {
		split := func(s string) []string {
			if mask&16 != 0 {
				return []string{s}
			}
			return strings.Split(s, "\x00")
		}
		var tk StateJSON
		switch {
		case mask&1 != 0:
		case mask&2 != 0:
			tk.Events = []string{}
		default:
			tk.Events = split(events)
		}
		switch {
		case mask&4 != 0:
		case mask&8 != 0:
			tk.Props = map[string]bool{}
		default:
			tk.Props = make(map[string]bool)
			for i, p := range split(props) {
				tk.Props[p] = mask>>(8+i%56)&1 == 0
			}
		}
		line := AppendTick(nil, tk)
		if want := encoderLine(t, tk); !bytes.Equal(line, want) {
			t.Fatalf("AppendTick = %q, json.Encoder = %q", line, want)
		}

		vocab := event.NewVocabulary()
		for _, e := range tk.Events {
			if e != "" {
				vocab.MustDeclare(e, event.KindEvent)
			}
		}
		for p := range tk.Props {
			if p != "" {
				vocab.MustDeclare(p, event.KindProp)
			}
		}
		var strict event.PackedBatch
		if n, err := event.NewBatchDecoder(vocab).Decode(line, &strict, 0); err != nil || n != 1 {
			t.Fatalf("strict decoder refused %q: n=%d err=%v", line, n, err)
		}
		var back StateJSON
		if err := json.Unmarshal(line, &back); err != nil {
			t.Fatalf("encoding/json refused %q: %v", line, err)
		}
		var lenient event.PackedBatch
		lenient.Reset(vocab.Len())
		lenient.AppendState(vocab, back.ToState())
		if !strict.Tick(0).Equal(lenient.Tick(0)) {
			t.Fatalf("%q: strict packs %v, lenient packs %v", line, strict.Tick(0), lenient.Tick(0))
		}
	})
}

// strictBody is n ticks of compact NDJSON the strict decoder accepts.
func strictBody(n int) []byte {
	var body []byte
	for i := 0; i < n; i++ {
		body = AppendTick(body, StateJSON{Events: []string{"MCmd_rd", "Addr"}})
	}
	return body
}

// TestDecodeBatchTooManyTicksStrict answers 413 for a body one tick past
// the limit as soon as the decoder reaches that tick: the allocations of
// the refusal must stay flat as the limit grows, but for the packed
// batch's own growth by doubling.
func TestDecodeBatchTooManyTicksStrict(t *testing.T) {
	vocab := event.NewVocabulary()
	vocab.MustDeclare("MCmd_rd", event.KindEvent)
	vocab.MustDeclare("Addr", event.KindEvent)
	refusal := func(maxTicks int) float64 {
		body := strictBody(maxTicks + 1)
		_, err := decodeBatch(vocab, body, maxTicks)
		var de *decodeError
		if !errors.As(err, &de) || de.status != http.StatusRequestEntityTooLarge {
			t.Fatalf("maxTicks %d: decodeBatch = %v, want 413", maxTicks, err)
		}
		return testing.AllocsPerRun(5, func() { _, _ = decodeBatch(vocab, body, maxTicks) })
	}
	const doublings = 6
	small, large := refusal(64), refusal(64<<doublings)
	if large > small+2*doublings {
		t.Fatalf("413 allocations grow with the limit: %.0f at 64 ticks, %.0f at %d", small, large, 64<<doublings)
	}
	if _, err := decodeBatch(vocab, strictBody(64), 64); err != nil {
		t.Fatalf("a batch at the limit is refused: %v", err)
	}
}

// onlyReader hides a body's length from http.NewRequest, so the request
// goes out chunked.
type onlyReader struct{ io.Reader }

// TestTicksBodyRead posts the same ticks with a Content-Length, chunked,
// and padded past the pre-allocation clamp: each is read whole and
// accepted.
func TestTicksBodyRead(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1, QueueDepth: 4})
	sess := createSession(t, ts.URL, "detect", "OcpSimpleRead")
	ticks := strictBody(10)
	padded := append(strictBody(5), bytes.Repeat([]byte(" "), maxBodyPrealloc+1000)...)
	padded = append(padded, strictBody(5)...)
	for _, tc := range []struct {
		name    string
		body    io.Reader
		chunked bool
		ticks   int
	}{
		{"content-length", bytes.NewReader(ticks), false, 10},
		{"chunked", onlyReader{bytes.NewReader(ticks)}, true, 10},
		{"past-clamp", bytes.NewReader(padded), false, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest("POST", fmt.Sprintf("%s/sessions/%s/ticks?wait=1", ts.URL, sess.ID), tc.body)
			if err != nil {
				t.Fatal(err)
			}
			if chunked := req.ContentLength <= 0; chunked != tc.chunked {
				t.Fatalf("request ContentLength %d, want chunked=%v", req.ContentLength, tc.chunked)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var ack struct{ Accepted int }
			if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d, decode err %v", resp.StatusCode, err)
			}
			if ack.Accepted != tc.ticks {
				t.Fatalf("accepted %d ticks, want %d", ack.Accepted, tc.ticks)
			}
		})
	}
}

// TestReadBodyAllocs holds a body with a declared length up to the
// pre-allocation clamp at one allocation, and reads a longer one whole.
func TestReadBodyAllocs(t *testing.T) {
	body := strictBody(4096)
	rd := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(20, func() {
		rd.Reset(body)
		if got, err := ReadBody(rd, int64(len(body))); err != nil || !bytes.Equal(got, body) {
			t.Fatalf("ReadBody: %d bytes, err %v", len(got), err)
		}
	})
	if len(body) > maxBodyPrealloc || (allocs != 1 && !raceEnabled) {
		t.Fatalf("ReadBody of %d bytes allocates %.1f/op, want 1", len(body), allocs)
	}
	long := bytes.Repeat([]byte("x"), 3*maxBodyPrealloc)
	if got, err := ReadBody(bytes.NewReader(long), int64(len(long))); err != nil || !bytes.Equal(got, long) {
		t.Fatalf("ReadBody past the clamp: %d of %d bytes, err %v", len(got), len(long), err)
	}
}

// TestTicksBodyShort declares a Content-Length 50 bytes longer than the
// client sends before half-closing its connection, below and above the
// pre-allocation clamp: the server answers 400 instead of waiting or
// panicking.
func TestTicksBodyShort(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1, QueueDepth: 4})
	sess := createSession(t, ts.URL, "detect", "OcpSimpleRead")
	for _, declared := range []int{100, maxBodyPrealloc + 100} {
		conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		body := strictBody(1)
		body = append(body, bytes.Repeat([]byte(" "), declared-50-len(body))...)
		fmt.Fprintf(conn, "POST /sessions/%s/ticks HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s", sess.ID, declared, body)
		conn.(*net.TCPConn).CloseWrite()
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("declared %d: reading response: %v", declared, err)
		}
		resp.Body.Close()
		conn.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("declared %d, sent %d bytes: status %d, want 400", declared, len(body), resp.StatusCode)
		}
	}
}

// TestTicksBodyDeadline holds request bodies to BodyReadTimeout. A raw
// client that sends a header and part of its body, then stalls with the
// connection open, must get an answer or a close within the deadline
// plus slack: on the ticks, specs, sessions and VCD endpoints, and on a
// ticks request answered 404 before its body is read, whose unread body
// net/http drains under the same deadline. With ticks slowed so that a
// ?wait=1 wait outlasts the deadline, two such requests on one
// keep-alive connection must both succeed with their request context
// still live when the handler returns: the deadline is lifted once the
// body is read, so it carries over neither into net/http's background
// read during the wait nor into the next request.
func TestTicksBodyDeadline(t *testing.T) {
	defer func(d time.Duration) { BodyReadTimeout = d }(BodyReadTimeout)
	BodyReadTimeout = 200 * time.Millisecond
	s, err := New(Config{Shards: 1, QueueDepth: 4, TickDelay: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadSpecSource(parser.Print("OcpSimpleRead", ocp.SimpleReadChart())); err != nil {
		t.Fatal(err)
	}
	var canceled atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.Handler().ServeHTTP(w, r)
		if r.URL.Query().Get("wait") == "1" && r.Context().Err() != nil {
			canceled.Add(1)
		}
	}))
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	sess := createSession(t, ts.URL, "detect", "OcpSimpleRead")
	addr := strings.TrimPrefix(ts.URL, "http://")

	const slack = 2 * time.Second
	for _, tc := range []struct {
		name, path, part string
		want             int
	}{
		{"ticks", "/sessions/" + sess.ID + "/ticks", string(strictBody(1)), http.StatusBadRequest},
		{"ticks unknown session", "/sessions/nosuchsession/ticks", string(strictBody(1)), http.StatusNotFound},
		{"specs", "/specs", "chart Stalled {\n", http.StatusBadRequest},
		{"sessions", "/sessions", `{"specs":["OcpSimpleRead"`, http.StatusBadRequest},
		{"vcd", "/sessions/" + sess.ID + "/vcd", "$timescale 1ns $end\n$scope module top $end\n", http.StatusBadRequest},
	} {
		stalled, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		fmt.Fprintf(stalled, "POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s", tc.path, 10*len(tc.part), tc.part)
		stalled.SetReadDeadline(start.Add(BodyReadTimeout + slack))
		if resp, err := http.ReadResponse(bufio.NewReader(stalled), nil); err == nil {
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s: stalled body: status %d, want %d", tc.name, resp.StatusCode, tc.want)
			}
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Errorf("%s: stalled body: no answer or close within %v", tc.name, BodyReadTimeout+slack)
		}
		if d := time.Since(start); d > BodyReadTimeout+slack {
			t.Errorf("%s: stalled body cut off after %v, want within %v", tc.name, d, BodyReadTimeout+slack)
		}
		stalled.Close()
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	body := strictBody(4) // 4 ticks × TickDelay outlasts BodyReadTimeout
	for seq := 1; seq <= 2; seq++ {
		fmt.Fprintf(conn, "POST /sessions/%s/ticks?wait=1&seq=%d HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s", sess.ID, seq, len(body), body)
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("wait request %d: %v", seq, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("wait request %d: status %d, want 200", seq, resp.StatusCode)
		}
		if n := canceled.Load(); n != 0 {
			t.Fatalf("wait request %d: request context canceled during the wait", seq)
		}
	}
}

// TestVCDJournalFrozen uploads a fixed VCD to a journaling session and
// compares the NDJSON each chunk journals with the bytes frozen when
// VCD ticks were encoded by json.Marshal: replay reads those bytes, so
// they must not change with the encoder.
func TestVCDJournalFrozen(t *testing.T) {
	const vcd = `$timescale 1ns $end
$scope module dut $end
$var wire 1 ! MCmd_rd $end
$var wire 1 " Addr $end
$var wire 1 # SCmd_accept $end
$var wire 1 $ SResp $end
$var wire 1 % SData $end
$var wire 1 & busy $end
$upscope $end
$enddefinitions $end
#0
1!
1"
1#
1&
#1
0!
0"
0#
1$
1%
#2
0$
0%
0&
#3
1!
1"
#4
`
	const want = `{"events":["Addr","MCmd_rd","SCmd_accept"],"props":{"busy":true}}
{"events":["SData","SResp"],"props":{"busy":true}}
{}
{"events":["Addr","MCmd_rd"]}
`
	dir := t.TempDir()
	s, ts := newWALServer(t, dir, Config{Shards: 1, QueueDepth: 4, SnapshotEvery: -1})
	sess := createSession(t, ts.URL, "detect", "OcpSimpleRead")
	doJSON(t, "POST", fmt.Sprintf("%s/sessions/%s/vcd?props=busy", ts.URL, sess.ID), []byte(vcd), http.StatusOK, nil)
	s.Crash()
	ts.Close()

	mgr, err := wal.OpenManager(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	j, err := mgr.OpenJournal(sess.ID, func(rec wal.Record) error {
		if rec.Kind == recBatchRawTraced {
			_, _, _, raw, err := parseRawBatch(rec)
			if err != nil {
				return err
			}
			got = append(got, raw...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Abandon()
	if string(got) != want {
		t.Fatalf("journaled VCD ticks:\n%s\nwant:\n%s", got, want)
	}
}
