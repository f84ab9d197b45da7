package server_test

// TestOverloadSoak is the overload acceptance soak (`make soaktest`):
// one node with a deliberately tiny memory budget takes a population of
// sessions, each streaming the Fig. 6 OCP trace through the retrying
// client, while the janitor pages and the governor sheds. The contract
// under pressure is absolute: zero lost verdicts (every session ends
// byte-identical to an unloaded reference), session memory settles back
// under budget, and the Prometheus exposition stays well-formed.
//
// It lives in the external test package so it can drive the real
// internal/client retry loop against the server without an import
// cycle, the same way an operator's ingest pipeline would.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/ocp"
	"repro/internal/parser"
	"repro/internal/server"
)

// soakServer builds a journaling server with the OCP simple-read spec.
func soakServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	cfg.WALDir = t.TempDir()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.LoadSpecSource(parser.Print("OcpSimpleRead", ocp.SimpleReadChart())); err != nil {
		t.Fatalf("loading spec: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// soakMonitors fetches a session's verdicts with the session-specific
// fields stripped, for byte-level parity.
func soakMonitors(t *testing.T, c *client.Client, id string) []byte {
	t.Helper()
	v, err := c.Resume(id, 0).Verdicts(context.Background())
	if err != nil {
		t.Fatalf("verdicts %s: %v", id, err)
	}
	data, err := json.MarshalIndent(v.Monitors, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestOverloadSoak(t *testing.T) {
	nSessions := 12
	if v := os.Getenv("SOAK_SESSIONS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("SOAK_SESSIONS=%q is not a positive integer", v)
		}
		nSessions = n
	}
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 6, FaultRate: 0.2}).GenerateTrace(240)
	ticks := make([]server.StateJSON, len(tr))
	for i, st := range tr {
		ticks[i] = server.EncodeState(st)
	}

	// Unloaded reference run — and a footprint measurement to size the
	// budget at roughly a third of the hot population.
	refSrv, refTS := soakServer(t, server.Config{Shards: 1, QueueDepth: 16})
	refClient := client.New(client.Options{BaseURL: refTS.URL, Seed: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	refSess, err := refClient.CreateSession(ctx, "assert", "OcpSimpleRead")
	if err != nil {
		t.Fatalf("reference session: %v", err)
	}
	fp := refSrv.MemUsed()
	if _, err := refSess.SendTicks(ctx, ticks, true); err != nil {
		t.Fatalf("reference stream: %v", err)
	}
	want := soakMonitors(t, refClient, refSess.ID)

	budget := fp * int64(nSessions) / 3
	cfg := server.Config{
		Shards:          2,
		QueueDepth:      8,
		SnapshotEvery:   8,
		MemBudget:       budget,
		SweepEvery:      20 * time.Millisecond,
		GovernorLatency: 50 * time.Millisecond,
	}
	s, ts := soakServer(t, cfg)

	ids := make([]string, nSessions)
	errs := make(chan error, nSessions)
	var wg sync.WaitGroup
	for i := 0; i < nSessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := client.New(client.Options{
				BaseURL:     ts.URL,
				MaxAttempts: 10,
				BackoffBase: 2 * time.Millisecond,
				BackoffCap:  50 * time.Millisecond,
				Seed:        int64(i + 1),
			})
			// Session creation may be shed (429 X-Cesc-Shed: sessions,
			// terminal per call so a router could hop); a single node
			// just honors Retry-After and tries again.
			var sess *client.Session
			for {
				created, cerr := c.CreateSession(ctx, "assert", "OcpSimpleRead")
				if cerr == nil {
					sess = created
					break
				}
				var apiErr *client.APIError
				if errors.As(cerr, &apiErr) && apiErr.Code == http.StatusTooManyRequests {
					d := apiErr.RetryAfter
					if d <= 0 || d > 100*time.Millisecond {
						d = 100 * time.Millisecond
					}
					select {
					case <-time.After(d):
						continue
					case <-ctx.Done():
						errs <- fmt.Errorf("session %d: create timed out: %w", i, ctx.Err())
						return
					}
				}
				errs <- fmt.Errorf("session %d: create: %w", i, cerr)
				return
			}
			ids[i] = sess.ID
			for at := 0; at < len(ticks); at += 24 {
				end := at + 24
				if end > len(ticks) {
					end = len(ticks)
				}
				// The client retries queue-full 429s, paged-out 409s, and
				// lost responses internally; the seq watermark keeps the
				// retries exactly-once.
				if _, err := sess.SendTicks(ctx, ticks[at:end], true); err != nil {
					errs <- fmt.Errorf("session %d batch at %d: %w", i, at, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Zero lost verdicts: every session — hot or revived from its WAL
	// checkpoint — reports verdicts byte-identical to the unloaded run.
	check := client.New(client.Options{BaseURL: ts.URL, Seed: 99})
	for i, id := range ids {
		if got := soakMonitors(t, check, id); !bytes.Equal(got, want) {
			t.Fatalf("session %d (%s) diverged from unloaded reference:\n got %s\nwant %s", i, id, got, want)
		}
		info, err := check.Resume(id, 0).Info(ctx)
		// The janitor may page the session out again between the
		// verdicts read that revived it and this info read; a cold entry
		// reports no step count, so revive it and ask again.
		for attempt := 0; err == nil && info.Cold && attempt < 20; attempt++ {
			soakMonitors(t, check, id)
			info, err = check.Resume(id, 0).Info(ctx)
		}
		if err != nil {
			t.Fatalf("info %s: %v", id, err)
		}
		if info.Steps != len(tr) {
			t.Fatalf("session %d steps = %d, want %d", i, info.Steps, len(tr))
		}
	}

	// The budget was real: paging happened, nothing was deleted, and the
	// hot set settles back under budget once the janitor catches up.
	m := s.Metrics()
	if m.SessionsPaged == 0 {
		t.Fatal("soak never paged a session; the budget was not exercised")
	}
	if m.SessionsDeleted != 0 {
		t.Fatalf("sessions_deleted = %d under paging, want 0 (eviction must not lose state)", m.SessionsDeleted)
	}
	if m.SessionsActive+m.SessionsCold != nSessions {
		t.Fatalf("hot %d + cold %d != population %d", m.SessionsActive, m.SessionsCold, nSessions)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.MemUsed() > budget {
		if time.Now().After(deadline) {
			t.Fatalf("mem used %d never settled under budget %d", s.MemUsed(), budget)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The Prometheus exposition stays valid under the new families.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ValidatePromText(string(text))
	if err != nil {
		t.Fatalf("invalid /metrics exposition after soak: %v", err)
	}
	if samples == 0 {
		t.Fatal("no samples in /metrics exposition")
	}
	for _, family := range []string{
		"cescd_sessions_paged_total", "cescd_sessions_revived_total",
		"cescd_mem_used_bytes", "cescd_governor_level", "cescd_shed_total",
		"cescd_tenant_sessions",
	} {
		if !bytes.Contains(text, []byte(family)) {
			t.Errorf("/metrics missing %s after soak", family)
		}
	}
	t.Logf("soak: %d sessions, paged=%d revived=%d shed_wait=%d shed_sessions=%d shed_pageouts=%d retries(ref client)=%d",
		nSessions, m.SessionsPaged, m.SessionsRevived, m.ShedWait, m.ShedSessions, m.ShedPageouts, refClient.Retries())
}
