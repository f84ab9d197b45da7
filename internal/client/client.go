// Package client is the Go client for the cescd daemon: request
// timeouts, context cancellation, and transparent retry with
// exponential backoff and jitter. Tick batches carry client-assigned
// sequence numbers, which the server's dedup watermark turns into
// exactly-once ingestion — a retry of a batch the server already
// applied (because only the response was lost) is acknowledged without
// being re-processed, so it is always safe to retry.
//
// A batch travels as the daemon's NDJSON tick format, written by
// server.AppendTicks into a fresh buffer per call (not pooled: the
// transport can still be reading a body after Do returns on an early
// response): the bytes json.Encoder would write, without its reflection
// and per-tick allocations. The verdicts and diagnostics bodies a
// client polls while it streams come back through the server package's
// strict one-pass decoders (server.DecodeVerdicts, DecodeDiagnostics);
// every response is read in one buffer sized from its Content-Length.
package client

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// traceKey carries a caller-chosen X-Cesc-Trace id through a context.
type traceKey struct{}

// WithTraceID pins the trace id attached to requests made with ctx, so a
// caller can correlate its own logs with the daemon's /debug/trace spans.
func WithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceKey{}, id)
}

// TraceIDFrom extracts a trace id set by WithTraceID ("" when absent).
func TraceIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}

// Options tunes a Client; zero values select the documented defaults.
type Options struct {
	// BaseURL is the daemon's root URL (required), e.g. "http://host:8080".
	BaseURL string
	// HTTPClient overrides the transport (default: http.Client with
	// RequestTimeout).
	HTTPClient *http.Client
	// RequestTimeout bounds each individual attempt (default 10s). The
	// caller's context still bounds the whole call including backoff.
	RequestTimeout time.Duration
	// MaxAttempts is the total number of tries per request, first
	// included (default 5).
	MaxAttempts int
	// BackoffBase and BackoffCap shape the exponential backoff between
	// attempts: base*2^n capped, plus up to 50% jitter (defaults 50ms
	// and 2s). A 429's Retry-After raises the delay when larger.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Seed makes the jitter deterministic in tests (0 seeds from the
	// backoff parameters, still deterministic but arbitrary).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 5
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffCap <= 0 {
		o.BackoffCap = 2 * time.Second
	}
	return o
}

// APIError is an HTTP error response: terminal, or the last one seen
// when retries ran out. RetryAfter echoes the response's Retry-After
// header when present. Quota and Shed echo the daemon's X-Cesc-Quota /
// X-Cesc-Shed headers on 429s, distinguishing a per-tenant quota
// refusal from overload shedding (and both from ordinary queue
// backpressure).
type APIError struct {
	Code       int
	Message    string
	RetryAfter time.Duration
	Quota      string
	Shed       string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("cescd: %d: %s", e.Code, e.Message)
}

// Client talks to one cescd daemon. Safe for concurrent use.
type Client struct {
	opts Options
	http *http.Client
	base string

	mu  sync.Mutex
	rng *rand.Rand

	retries atomic.Uint64 // attempts beyond the first, across all calls
}

// New builds a client for the daemon at opts.BaseURL.
func New(opts Options) *Client {
	opts = opts.withDefaults()
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: opts.RequestTimeout}
	}
	seed := opts.Seed
	if seed == 0 {
		seed = int64(opts.BackoffBase) ^ int64(opts.BackoffCap)
	}
	return &Client{
		opts: opts,
		http: hc,
		base: strings.TrimRight(opts.BaseURL, "/"),
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// Retries reports the attempts beyond the first across all calls — a
// test and observability hook.
func (c *Client) Retries() uint64 { return c.retries.Load() }

// backoff computes the sleep before retry attempt n (0-based), honoring
// a server-provided floor (Retry-After).
func (c *Client) backoff(n int, floor time.Duration) time.Duration {
	d := c.opts.BackoffBase << uint(n)
	if d > c.opts.BackoffCap || d <= 0 {
		d = c.opts.BackoffCap
	}
	c.mu.Lock()
	d += time.Duration(c.rng.Int63n(int64(d)/2 + 1))
	c.mu.Unlock()
	if d < floor {
		d = floor
	}
	return d
}

// retryAfter parses a 429/503 Retry-After header (seconds form).
func retryAfter(resp *http.Response) time.Duration {
	if v := resp.Header.Get("Retry-After"); v != "" {
		if sec, err := strconv.Atoi(v); err == nil && sec >= 0 {
			return time.Duration(sec) * time.Second
		}
	}
	return 0
}

// newTraceID mints a client-side correlation id from the seeded rng, so
// test runs produce reproducible trace ids.
func (c *Client) newTraceID() string {
	var b [8]byte
	c.mu.Lock()
	for i := range b {
		b[i] = byte(c.rng.Intn(256))
	}
	c.mu.Unlock()
	return hex.EncodeToString(b[:])
}

// do runs one API call with per-attempt timeouts and retry on
// network errors, 429, and 5xx. Terminal HTTP errors come back as
// *APIError. The body is replayed from memory on each attempt, which is
// what makes retrying POSTs safe (combined with ?seq dedup for ticks).
// The X-Cesc-Trace header is the caller's id from WithTraceID when set;
// retries reuse the same id, so one logical call is one trace.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	var lastErr error
	traceID := TraceIDFrom(ctx)
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
		}
		var floor time.Duration
		retryable := false
		lastErr, floor, retryable = c.attempt(ctx, method, path, body, traceID, out)
		if lastErr == nil || !retryable {
			return lastErr
		}
		if attempt == c.opts.MaxAttempts-1 {
			break
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(c.backoff(attempt, floor)):
		}
	}
	return fmt.Errorf("cescd: %s %s: giving up after %d attempts: %w",
		method, path, c.opts.MaxAttempts, lastErr)
}

// maxResponseBytes bounds the body of one response.
const maxResponseBytes = 8 << 20

// decode decodes a response body into out. The verdicts and
// diagnostics bodies, which a client may poll while it streams, take
// the server package's strict one-pass decoders; every other body takes
// encoding/json.
func decode(data []byte, out any) (err error) {
	switch o := out.(type) {
	case *server.VerdictsJSON:
		*o, err = server.DecodeVerdicts(data)
	case *server.DiagnosticsJSON:
		*o, err = server.DecodeDiagnostics(data)
	default:
		err = json.Unmarshal(data, out)
	}
	return err
}

// attempt performs one HTTP round trip and classifies the outcome.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, traceID string, out any) (err error, floor time.Duration, retryable bool) {
	actx, cancel := context.WithTimeout(ctx, c.opts.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err, 0, false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/json")
	if traceID != "" {
		req.Header.Set("X-Cesc-Trace", traceID)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		// Network-level failure (or attempt timeout): retryable unless
		// the caller's context is done.
		if ctx.Err() != nil {
			return ctx.Err(), 0, false
		}
		return err, 0, true
	}
	defer resp.Body.Close()
	data, err := server.ReadBody(io.LimitReader(resp.Body, maxResponseBytes), resp.ContentLength)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err(), 0, false
		}
		return err, 0, true
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if out != nil {
			if err := decode(data, out); err != nil {
				return fmt.Errorf("cescd: decoding %s %s response: %w", method, path, err), 0, false
			}
		}
		return nil, 0, false
	}
	msg := strings.TrimSpace(string(data))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		msg = e.Error
	}
	apiErr := &APIError{
		Code: resp.StatusCode, Message: msg, RetryAfter: retryAfter(resp),
		Quota: resp.Header.Get("X-Cesc-Quota"),
		Shed:  resp.Header.Get("X-Cesc-Shed"),
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		// Three distinct 429s. A session-count quota refusal is terminal:
		// the tenant is at its cap and retrying the same request cannot
		// succeed. A shed session create is terminal too: a cluster node
		// proxies a create to a cooler peer whenever gossip shows one
		// (cluster.Node.route), so a shed means no cooler member was
		// known. Everything else (tick-rate quota, full shard queue) is
		// pacing: honor Retry-After and retry here.
		if apiErr.Quota == "sessions" || apiErr.Shed == "sessions" {
			return apiErr, apiErr.RetryAfter, false
		}
		return apiErr, apiErr.RetryAfter, true
	case resp.StatusCode == http.StatusServiceUnavailable:
		return apiErr, apiErr.RetryAfter, true
	case resp.StatusCode == http.StatusConflict:
		// 409 with Retry-After is a transient cluster condition (a
		// session mid-handoff or mid-promotion): honor the server's
		// pacing and retry. A bare 409 (e.g. a spec-name conflict) is
		// a real conflict and stays terminal.
		if resp.Header.Get("Retry-After") != "" {
			return apiErr, apiErr.RetryAfter, true
		}
		return apiErr, 0, false
	case resp.StatusCode >= 500:
		return apiErr, 0, true
	default:
		return apiErr, 0, false
	}
}

// Health checks GET /healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Metrics fetches the daemon metrics snapshot.
func (c *Client) Metrics(ctx context.Context) (server.MetricsSnapshot, error) {
	var m server.MetricsSnapshot
	err := c.do(ctx, http.MethodGet, "/metrics", nil, &m)
	return m, err
}

// LoadSpecs POSTs .cesc source; replace overwrites existing names.
func (c *Client) LoadSpecs(ctx context.Context, src string, replace bool) ([]string, error) {
	path := "/specs"
	if replace {
		path += "?replace=1"
	}
	var out struct {
		Loaded []string `json:"loaded"`
	}
	if err := c.do(ctx, http.MethodPost, path, []byte(src), &out); err != nil {
		return nil, err
	}
	return out.Loaded, nil
}

// CreateSession opens a monitoring session over the named specs.
func (c *Client) CreateSession(ctx context.Context, mode string, specs ...string) (*Session, error) {
	return c.CreateSessionDiag(ctx, mode, 0, specs...)
}

// CreateSessionDiag opens a session with an explicit violation-
// diagnostics window (0 keeps the mode default: 8 for assert, off for
// detect), so detect-mode sessions can serve provenance too.
func (c *Client) CreateSessionDiag(ctx context.Context, mode string, diagDepth int, specs ...string) (*Session, error) {
	body, err := json.Marshal(map[string]any{"specs": specs, "mode": mode, "diag_depth": diagDepth})
	if err != nil {
		return nil, err
	}
	var info server.SessionInfoJSON
	if err := c.do(ctx, http.MethodPost, "/sessions", body, &info); err != nil {
		return nil, err
	}
	return &Session{c: c, ID: info.ID}, nil
}

// Session is one server-side monitor bank plus the client-side sequence
// counter that makes its tick stream idempotent under retries.
type Session struct {
	c  *Client
	ID string

	seq       atomic.Uint64
	lastTrace atomic.Value // string: trace id of the last SendTicks
}

// LastTrace reports the trace id attached to the most recent SendTicks
// call ("" before the first) — the handle into GET /debug/trace?trace=….
func (s *Session) LastTrace() string {
	id, _ := s.lastTrace.Load().(string)
	return id
}

// Resume rebinds a session handle to an existing (possibly recovered)
// server session. nextSeq is the first unused sequence number; pass
// lastAcked+1 when resuming a stream.
func (c *Client) Resume(id string, nextSeq uint64) *Session {
	s := &Session{c: c, ID: id}
	if nextSeq > 0 {
		s.seq.Store(nextSeq - 1)
	}
	return s
}

// TickAck is the ingest acknowledgment. Trace echoes the batch's
// X-Cesc-Trace correlation id when the daemon has tracing enabled.
type TickAck struct {
	Accepted  int    `json:"accepted"`
	Processed bool   `json:"processed"`
	Seq       uint64 `json:"seq"`
	Duplicate bool   `json:"duplicate"`
	Trace     string `json:"trace"`
}

// SendTicks streams one batch of valuation ticks. Each call consumes the
// next sequence number, so a batch retried after a lost response is
// deduplicated server-side: the ack then reports Duplicate with the
// original seq. wait makes the call block until the batch is processed.
func (s *Session) SendTicks(ctx context.Context, ticks []server.StateJSON, wait bool) (TickAck, error) {
	body := server.AppendTicks(nil, ticks)
	seq := s.seq.Add(1)
	path := fmt.Sprintf("/sessions/%s/ticks?seq=%d", s.ID, seq)
	if wait {
		path += "&wait=1"
	}
	// Every batch travels under a trace id (caller's via WithTraceID, or a
	// fresh client-minted one), so any slow or violating batch can be
	// looked up in the daemon's /debug/trace afterwards.
	traceID := TraceIDFrom(ctx)
	if traceID == "" {
		traceID = s.c.newTraceID()
		ctx = WithTraceID(ctx, traceID)
	}
	var ack TickAck
	if err := s.c.do(ctx, http.MethodPost, path, body, &ack); err != nil {
		return TickAck{}, err
	}
	s.lastTrace.Store(traceID)
	return ack, nil
}

// Diagnostics fetches the session's violation-provenance reports.
func (s *Session) Diagnostics(ctx context.Context) (server.DiagnosticsJSON, error) {
	var d server.DiagnosticsJSON
	err := s.c.do(ctx, http.MethodGet, "/sessions/"+s.ID+"/diagnostics", nil, &d)
	return d, err
}

// Verdicts fetches the session's accumulated verdicts.
func (s *Session) Verdicts(ctx context.Context) (server.VerdictsJSON, error) {
	var v server.VerdictsJSON
	err := s.c.do(ctx, http.MethodGet, "/sessions/"+s.ID+"/verdicts", nil, &v)
	return v, err
}

// Info fetches the session's current info.
func (s *Session) Info(ctx context.Context) (server.SessionInfoJSON, error) {
	var info server.SessionInfoJSON
	err := s.c.do(ctx, http.MethodGet, "/sessions/"+s.ID, nil, &info)
	return info, err
}

// Delete tears the session down server-side.
func (s *Session) Delete(ctx context.Context) error {
	return s.c.do(ctx, http.MethodDelete, "/sessions/"+s.ID, nil, nil)
}
