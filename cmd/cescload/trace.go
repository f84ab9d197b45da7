package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from cescload's own code into a layer's public
// surface. Spans of one request share the root's ID through Parent.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Phase  string `json:"phase,omitempty"`
	Kind   string `json:"kind,omitempty"` // direct, proxied or probe for ring sends
	Worker int    `json:"worker"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Ticks  int    `json:"ticks,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, which is how untraced phases run.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span ID, so children can name their parent before
// the parent span ends.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record closes a span that began at start.
func (t *tracer) record(s span, start time.Time) {
	if t == nil {
		return
	}
	end := time.Now()
	s.Start, s.End = int64(start.Sub(t.t0)), int64(end.Sub(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as one JSON document.
func (t *tracer) write(path, workload string, seed int64) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanKey carries the enclosing span's ID through a request context, so
// the transport can parent its round-trip spans.
type spanKey struct{}

func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

// transport wraps every HTTP attempt the generator makes through
// internal/client. It always counts attempts and failures (transport
// errors and 4xx/5xx answers, which includes 429 refusals the client
// retries internally); with a tracer it also records an http.roundtrip
// span per attempt, from sending the request until the body is closed.
type transport struct {
	base      *http.Transport
	tr        *tracer
	worker    int
	attempted atomic.Int64
	failed    atomic.Int64
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.attempted.Add(1)
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil || resp.StatusCode >= 400 {
		t.failed.Add(1)
	}
	tr := t.tr
	if tr == nil {
		return resp, err
	}
	parent, _ := req.Context().Value(spanKey{}).(uint64)
	s := span{ID: tr.newID(), Parent: parent, Name: "http.roundtrip", Worker: t.worker}
	if err != nil {
		tr.record(s, start)
		return resp, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { tr.record(s, start) }}
	return resp, nil
}

// timedBody ends a round-trip span when the client closes the body.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}
