package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/faultinject"
	"repro/internal/ocp"
	"repro/internal/parser"
	"repro/internal/server"
)

// fastOpts keeps test backoffs tiny and deterministic.
func fastOpts(url string) Options {
	return Options{
		BaseURL:        url,
		RequestTimeout: 2 * time.Second,
		MaxAttempts:    4,
		BackoffBase:    time.Millisecond,
		BackoffCap:     5 * time.Millisecond,
		Seed:           1,
	}
}

// TestRetryOn5xx checks transient server errors are retried and the
// eventual success is returned.
func TestRetryOn5xx(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"transient"}`, http.StatusBadGateway)
			return
		}
		fmt.Fprint(w, `{"status":"ok"}`)
	}))
	defer ts.Close()
	c := New(fastOpts(ts.URL))
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("health after retries: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
	if got := c.Retries(); got != 2 {
		t.Fatalf("client counted %d retries, want 2", got)
	}
}

// TestTerminalErrorNoRetry pins how each error status is classified.
// Retried statuses are the ones a stream rides through a cluster handoff
// or promotion (409 with Retry-After, a 502 from a proxy hop whose owner
// died) and ordinary backpressure (a plain 429); each fails once and
// then succeeds. Terminal statuses surface as an APIError on the first
// call without burning attempts.
func TestTerminalErrorNoRetry(t *testing.T) {
	for _, tc := range []struct {
		name    string
		code    int
		header  map[string]string
		retried bool
	}{
		{name: "404", code: http.StatusNotFound},
		{name: "409 bare", code: http.StatusConflict},
		{name: "409 Retry-After", code: http.StatusConflict, header: map[string]string{"Retry-After": "0"}, retried: true},
		{name: "502", code: http.StatusBadGateway, retried: true},
		{name: "429 plain", code: http.StatusTooManyRequests, retried: true},
		{name: "429 shed sessions", code: http.StatusTooManyRequests, header: map[string]string{"X-Cesc-Shed": "sessions"}},
		{name: "429 quota sessions", code: http.StatusTooManyRequests, header: map[string]string{"X-Cesc-Quota": "sessions"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if calls.Add(1) > 1 {
					fmt.Fprint(w, `{"id":"s1"}`)
					return
				}
				for k, v := range tc.header {
					w.Header().Set(k, v)
				}
				http.Error(w, `{"error":"refused"}`, tc.code)
			}))
			defer ts.Close()
			c := New(fastOpts(ts.URL))
			sess, err := c.CreateSession(context.Background(), "detect", "S")
			if tc.retried {
				if err != nil || sess.ID != "s1" {
					t.Fatalf("CreateSession = %v, %v; want s1 after one retry", sess, err)
				}
				if got := calls.Load(); got != 2 {
					t.Fatalf("server saw %d calls, want 2", got)
				}
				return
			}
			var apiErr *APIError
			if !errors.As(err, &apiErr) || apiErr.Code != tc.code {
				t.Fatalf("err = %v, want %d APIError", err, tc.code)
			}
			if apiErr.Message != "refused" {
				t.Fatalf("message = %q", apiErr.Message)
			}
			if apiErr.Shed != tc.header["X-Cesc-Shed"] || apiErr.Quota != tc.header["X-Cesc-Quota"] {
				t.Fatalf("shed/quota = %q/%q, want the response headers %v", apiErr.Shed, apiErr.Quota, tc.header)
			}
			if got := calls.Load(); got != 1 {
				t.Fatalf("server saw %d calls, want 1 (terminal, no retry)", got)
			}
		})
	}
}

// TestGivesUpAfterMaxAttempts checks the retry loop is bounded and the
// final error wraps the last failure.
func TestGivesUpAfterMaxAttempts(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"still down"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()
	c := New(fastOpts(ts.URL))
	err := c.Health(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusInternalServerError {
		t.Fatalf("err = %v, want wrapped 500", err)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("server saw %d calls, want MaxAttempts=4", got)
	}
}

// TestRetryAfterHonored checks a 429's Retry-After raises the backoff
// floor above the configured (tiny) exponential delay.
func TestRetryAfterHonored(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"slow down"}`, http.StatusTooManyRequests)
			return
		}
		fmt.Fprint(w, `{}`)
	}))
	defer ts.Close()
	c := New(fastOpts(ts.URL))
	start := time.Now()
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("health: %v", err)
	}
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Fatalf("retried after %v, Retry-After demanded >= 1s", elapsed)
	}
}

// TestContextCancellation checks a caller's context deadline cuts
// through the retry loop.
func TestContextCancellation(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer ts.Close()
	c := New(fastOpts(ts.URL))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.Health(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("cancellation took %v", time.Since(start))
	}
}

// --- end-to-end against the real daemon --------------------------------

func newDaemon(t *testing.T, cfg server.Config) (*server.Server, *Client) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	c := New(fastOpts(ts.URL))
	if _, err := c.LoadSpecs(context.Background(), parser.Print("OcpSimpleRead", ocp.SimpleReadChart()), false); err != nil {
		t.Fatal(err)
	}
	return srv, c
}

func wireTicks(tr []event.State) []server.StateJSON {
	out := make([]server.StateJSON, len(tr))
	for i, s := range tr {
		out[i] = server.EncodeState(s)
	}
	return out
}

// TestExactlyOnceUnderResponseLoss is the client/server contract test:
// the server applies a batch but the response is lost (injected fault on
// the respond path); the client retries the same seq and the server
// acknowledges the duplicate without re-stepping — the monitor sees each
// tick exactly once.
func TestExactlyOnceUnderResponseLoss(t *testing.T) {
	faults := faultinject.New(1).Add(faultinject.Rule{
		Point: "server.ingest.respond", Kind: faultinject.KindError, After: 2, Count: 1,
	})
	srv, c := newDaemon(t, server.Config{Shards: 1, QueueDepth: 16, Faults: faults})
	ctx := context.Background()
	sess, err := c.CreateSession(ctx, "detect", "OcpSimpleRead")
	if err != nil {
		t.Fatal(err)
	}
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 23, FaultRate: 0.2}).GenerateTrace(100)
	ticks := wireTicks(tr)
	var dupes int
	for at := 0; at < len(ticks); at += 20 {
		ack, err := sess.SendTicks(ctx, ticks[at:at+20], true)
		if err != nil {
			t.Fatalf("batch at %d: %v", at, err)
		}
		if ack.Duplicate {
			dupes++
		}
	}
	if c.Retries() == 0 {
		t.Fatal("fault never fired: no retries observed")
	}
	if dupes != 1 {
		t.Fatalf("duplicate acks = %d, want 1", dupes)
	}
	v, err := sess.Verdicts(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v.Monitors[0].Steps != len(tr) {
		t.Fatalf("steps = %d, want %d (tick lost or double-applied)", v.Monitors[0].Steps, len(tr))
	}
	if got := srv.Metrics().BatchesDeduped; got != 1 {
		t.Fatalf("batches_deduped = %d, want 1", got)
	}
}

// TestRetryOnInjected429 drives the backpressure path: the server
// answers 429 + Retry-After for a few attempts, the client backs off and
// the stream completes with no ticks lost.
func TestRetryOnInjected429(t *testing.T) {
	faults := faultinject.New(1).Add(faultinject.Rule{
		Point: "server.ingest", Kind: faultinject.KindError, Err: server.ErrInjected429, After: 1, Every: 1, Count: 2,
	})
	_, c := newDaemon(t, server.Config{Shards: 1, QueueDepth: 16, Faults: faults})
	ctx := context.Background()
	sess, err := c.CreateSession(ctx, "detect", "OcpSimpleRead")
	if err != nil {
		t.Fatal(err)
	}
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 29}).GenerateTrace(60)
	ticks := wireTicks(tr)
	for at := 0; at < len(ticks); at += 20 {
		if _, err := sess.SendTicks(ctx, ticks[at:at+20], true); err != nil {
			t.Fatalf("batch at %d: %v", at, err)
		}
	}
	if c.Retries() < 2 {
		t.Fatalf("retries = %d, want >= 2 (two injected 429s)", c.Retries())
	}
	v, err := sess.Verdicts(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v.Monitors[0].Steps != len(tr) {
		t.Fatalf("steps = %d, want %d", v.Monitors[0].Steps, len(tr))
	}
}

// TestResumeAfterCrash is the full robustness loop: a journaling server
// crashes mid-stream, a new server recovers from the WAL, and the client
// resumes the same session — re-sending the batch whose ack it never
// saw, which the recovered server deduplicates off the journaled
// watermark. Final verdicts match an uninterrupted run.
func TestResumeAfterCrash(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{Shards: 1, QueueDepth: 16, SnapshotEvery: 2, WALDir: dir}
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 31, FaultRate: 0.2}).GenerateTrace(200)
	ticks := wireTicks(tr)
	ctx := context.Background()

	// Reference run, no crash.
	_, refC := newDaemon(t, server.Config{Shards: 1, QueueDepth: 16})
	refSess, err := refC.CreateSession(ctx, "assert", "OcpSimpleRead")
	if err != nil {
		t.Fatal(err)
	}
	for at := 0; at < len(ticks); at += 20 {
		if _, err := refSess.SendTicks(ctx, ticks[at:at+20], true); err != nil {
			t.Fatal(err)
		}
	}
	refV, err := refSess.Verdicts(ctx)
	if err != nil {
		t.Fatal(err)
	}

	srv1, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	c1 := New(fastOpts(ts1.URL))
	if _, err := c1.LoadSpecs(ctx, parser.Print("OcpSimpleRead", ocp.SimpleReadChart()), false); err != nil {
		t.Fatal(err)
	}
	sess, err := c1.CreateSession(ctx, "assert", "OcpSimpleRead")
	if err != nil {
		t.Fatal(err)
	}
	var acked uint64
	for at := 0; at < 100; at += 20 {
		if _, err := sess.SendTicks(ctx, ticks[at:at+20], true); err != nil {
			t.Fatal(err)
		}
		acked++
	}
	srv1.Crash()
	ts1.Close()

	srv2, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		srv2.Close()
	})
	c2 := New(fastOpts(ts2.URL))
	// The client never saw batch 5 fail, but a cautious resume re-sends
	// from the last acked batch: the recovered watermark absorbs it.
	resumed := c2.Resume(sess.ID, acked)
	ack, err := resumed.SendTicks(ctx, ticks[80:100], true)
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Duplicate {
		t.Fatalf("re-sent batch not deduped: %+v", ack)
	}
	for at := 100; at < len(ticks); at += 20 {
		if _, err := resumed.SendTicks(ctx, ticks[at:at+20], true); err != nil {
			t.Fatal(err)
		}
	}
	gotV, err := resumed.Verdicts(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(gotV.Monitors)
	want, _ := json.Marshal(refV.Monitors)
	if string(got) != string(want) {
		t.Fatalf("resumed stream verdicts diverged:\n got %s\nwant %s", got, want)
	}
}

// TestTraceIDPropagation checks the client's half of the tracing
// contract: every request carries Accept: application/json and an
// X-Cesc-Trace id, the id is stable across retry attempts of one
// logical call, a caller-chosen id (WithTraceID) wins over the client's
// own, and the acked id is retained on the session.
func TestTraceIDPropagation(t *testing.T) {
	var calls atomic.Int64
	seen := make(chan string, 8)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen <- r.Header.Get("X-Cesc-Trace")
		if r.Header.Get("Accept") != "application/json" {
			t.Errorf("missing Accept: application/json on %s %s", r.Method, r.URL.Path)
		}
		if calls.Add(1) == 1 {
			http.Error(w, `{"error":"transient"}`, http.StatusBadGateway)
			return
		}
		fmt.Fprint(w, `{"status":"ok","accepted":0,"trace":"ignored"}`)
	}))
	defer ts.Close()
	c := New(fastOpts(ts.URL))
	sess := c.Resume("fake", 0)
	ticks := []server.StateJSON{{}}
	if _, err := sess.SendTicks(context.Background(), ticks, false); err != nil {
		t.Fatalf("send: %v", err)
	}
	first, second := <-seen, <-seen
	if first == "" || first != second {
		t.Errorf("retry changed trace id: %q then %q", first, second)
	}

	const chosen = "caller-chose-this"
	ctx := WithTraceID(context.Background(), chosen)
	if _, err := sess.SendTicks(ctx, ticks, false); err != nil {
		t.Fatalf("send with trace: %v", err)
	}
	if got := <-seen; got != chosen {
		t.Errorf("WithTraceID sent %q, want %q", got, chosen)
	}
	if got := TraceIDFrom(ctx); got != chosen {
		t.Errorf("TraceIDFrom = %q, want %q", got, chosen)
	}
}

// TestTraceIDEndToEnd drives a real daemon with tracing enabled and
// checks SendTicks retains the server-acked trace id, which then
// correlates spans on GET /debug/trace.
func TestTraceIDEndToEnd(t *testing.T) {
	srv, c := newDaemon(t, server.Config{Shards: 2, TraceDepth: 128})
	sess, err := c.CreateSession(context.Background(), "detect", "OcpSimpleRead")
	if err != nil {
		t.Fatal(err)
	}
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 2}).GenerateTrace(32)
	ack, err := sess.SendTicks(context.Background(), wireTicks(tr), true)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Trace == "" || sess.LastTrace() != ack.Trace {
		t.Fatalf("acked trace %q, LastTrace %q", ack.Trace, sess.LastTrace())
	}
	snap := srv.Metrics()
	if snap.TraceSpans == 0 {
		t.Fatal("server recorded no spans")
	}
}

// TestEncodeTicksBody checks the body SendTicks posts is json.Encoder's
// NDJSON for the same ticks.
func TestEncodeTicksBody(t *testing.T) {
	var ticks []server.StateJSON
	for _, st := range ocp.NewModel(ocp.Config{Gap: 1, Seed: 3, FaultRate: 0.2}).GenerateTrace(256) {
		ticks = append(ticks, server.EncodeState(st))
	}
	ticks = append(ticks, server.StateJSON{}, server.StateJSON{
		Events: []string{"a"}, Props: map[string]bool{"up": true, "down": false},
	})
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for _, tk := range ticks {
		if err := enc.Encode(tk); err != nil {
			t.Fatal(err)
		}
	}
	got := make(chan []byte, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		got <- body
		fmt.Fprint(w, `{"accepted":0}`)
	}))
	defer ts.Close()
	if _, err := New(fastOpts(ts.URL)).Resume("fake", 0).SendTicks(context.Background(), ticks, false); err != nil {
		t.Fatal(err)
	}
	if body := <-got; !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("SendTicks body differs from json.Encoder:\n got %q\nwant %q", body, want.Bytes())
	}
}
