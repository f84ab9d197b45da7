package cluster_test

// Fleet observability tests: the cluster-merged trace timeline, the
// federated Prometheus exposition, and cluster-aware readiness — all
// against an in-process ring (run under -race via `make clustertest`).

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/ocp"
)

// tracedGet issues a GET carrying a trace id, the way a ring-unaware
// but trace-aware caller would.
func tracedGet(t *testing.T, url, traceID string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Cesc-Trace", traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func clusterTrace(t *testing.T, base, traceID string) cluster.ClusterTraceJSON {
	t.Helper()
	resp, err := http.Get(base + "/cluster/trace?trace=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /cluster/trace: status %d", resp.StatusCode)
	}
	var out cluster.ClusterTraceJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestClusterTraceMergedTimeline drives one pinned trace id through the
// ring — ingest on the owner, a transparent proxy hop through a
// non-owner — and requires GET /cluster/trace to merge the spans from
// both nodes into one causally ordered timeline.
func TestClusterTraceMergedTimeline(t *testing.T) {
	tc := newTestCluster(t, 0, "alpha", "beta", "gamma")
	const traceID = "trace-merged-timeline"
	ctx := client.WithTraceID(context.Background(), traceID)

	sess, err := tc.clientAt("alpha").CreateSession(ctx, "assert", "OcpSimpleRead")
	if err != nil {
		t.Fatal(err)
	}
	states := toStatesJSON(ocp.NewModel(ocp.Config{Gap: 2, Seed: 21}).GenerateTrace(64))
	if _, err := sess.SendTicks(ctx, states, true); err != nil {
		t.Fatal(err)
	}
	if sess.LastTrace() != traceID {
		t.Fatalf("LastTrace = %q, want the pinned %q", sess.LastTrace(), traceID)
	}
	owner, ok := tc.holder(sess.ID)
	if !ok {
		t.Fatalf("no holder for %s", sess.ID)
	}

	// A traced read through every non-owner is transparently proxied to
	// the owner; each hop records a proxy span under the same trace.
	for _, name := range tc.names {
		if name == owner {
			continue
		}
		resp := tracedGet(t, tc.srvs[name].URL+"/sessions/"+sess.ID, traceID)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("proxied GET via %s: status %d", name, resp.StatusCode)
		}
	}

	out := clusterTrace(t, tc.srvs["alpha"].URL, traceID)
	if out.Trace != traceID {
		t.Fatalf("answer for trace %q, want %q", out.Trace, traceID)
	}
	contributing := 0
	for name, count := range out.Nodes {
		if count < 0 {
			t.Fatalf("node %s unreachable in a healthy ring: %+v", name, out.Nodes)
		}
		if count > 0 {
			contributing++
		}
	}
	if contributing < 2 {
		t.Fatalf("spans from %d nodes, want >= 2: %+v", contributing, out.Nodes)
	}
	nodes := map[string]bool{}
	var proxies, steps int
	for i, sp := range out.Spans {
		if sp.Trace != traceID {
			t.Fatalf("span %d carries trace %q", i, sp.Trace)
		}
		if sp.Node == "" || sp.HLC == 0 {
			t.Fatalf("span %d missing node/HLC attribution: %+v", i, sp)
		}
		if i > 0 && sp.HLC < out.Spans[i-1].HLC {
			t.Fatalf("timeline not HLC-ordered at %d: %d after %d", i, sp.HLC, out.Spans[i-1].HLC)
		}
		nodes[sp.Node] = true
		switch {
		case sp.Kind == "proxy":
			proxies++
			if sp.Stage != obs.StageProxy {
				t.Fatalf("proxy span stage = %q", sp.Stage)
			}
		case sp.Stage == obs.StageStep:
			steps++
		}
	}
	if len(nodes) < 2 {
		t.Fatalf("merged spans name %d nodes, want >= 2", len(nodes))
	}
	if proxies < 2 || steps == 0 {
		t.Fatalf("timeline has %d proxy spans and %d step spans, want >= 2 and >= 1:\n%+v",
			proxies, steps, out.Spans)
	}

	// The text rendering serves the same timeline for a terminal.
	resp, err := http.Get(tc.srvs["beta"].URL + "/cluster/trace?trace=" + traceID + "&format=text")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "[proxy]") || !strings.Contains(string(body), owner) {
		t.Fatalf("text timeline missing proxy hop or owner:\n%s", body)
	}

	// Parameter validation: no trace id, bad n.
	for _, path := range []string{"/cluster/trace", "/cluster/trace?trace=x&n=0"} {
		resp, err := http.Get(tc.srvs["alpha"].URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: status %d, want 400", path, resp.StatusCode)
		}
	}
}

// TestClusterTraceFanoutDuringIngest hammers the /cluster/trace fan-out
// from every node while ticks stream through the ring — the -race
// exercise for the merge path against live span writes.
func TestClusterTraceFanoutDuringIngest(t *testing.T) {
	tc := newTestCluster(t, 0, "alpha", "beta")
	const traceID = "trace-fanout-race"
	ctx := client.WithTraceID(context.Background(), traceID)

	sess, err := tc.clientAt("alpha").CreateSession(ctx, "assert", "OcpSimpleRead")
	if err != nil {
		t.Fatal(err)
	}
	states := toStatesJSON(ocp.NewModel(ocp.Config{Gap: 2, Seed: 23}).GenerateTrace(300))

	done := make(chan error, 1)
	go func() {
		for at := 0; at < len(states); at += 10 {
			end := min(at+10, len(states))
			if _, err := sess.SendTicks(ctx, states[at:end], true); err != nil {
				done <- fmt.Errorf("SendTicks[%d:%d]: %w", at, end, err)
				return
			}
		}
		done <- nil
	}()

	var wg sync.WaitGroup
	for _, name := range tc.names {
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(base string) {
				defer wg.Done()
				for j := 0; j < 25; j++ {
					out := clusterTrace(t, base, traceID)
					for k := 1; k < len(out.Spans); k++ {
						if out.Spans[k].HLC < out.Spans[k-1].HLC {
							t.Errorf("mid-ingest timeline unordered at %d", k)
							return
						}
					}
				}
			}(tc.srvs[name].URL)
		}
	}
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	out := clusterTrace(t, tc.srvs["beta"].URL, traceID)
	if len(out.Spans) == 0 {
		t.Fatal("no spans after ingest settled")
	}
}

// TestClusterMetricsFederation requires GET /cluster/metrics to serve
// one ValidatePromText-clean exposition with every member's samples
// under a node label, and to degrade (up=0), not fail, when a member
// dies.
func TestClusterMetricsFederation(t *testing.T) {
	tc := newTestCluster(t, 0, "alpha", "beta")
	ctx := context.Background()
	sess, err := tc.clientAt("alpha").CreateSession(ctx, "assert", "OcpSimpleRead")
	if err != nil {
		t.Fatal(err)
	}
	states := toStatesJSON(ocp.NewModel(ocp.Config{Gap: 2, Seed: 29}).GenerateTrace(40))
	if _, err := sess.SendTicks(ctx, states, true); err != nil {
		t.Fatal(err)
	}

	fetch := func(base string) string {
		t.Helper()
		resp, err := http.Get(base + "/cluster/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
			t.Fatalf("Content-Type = %q", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	text := fetch(tc.srvs["alpha"].URL)
	if n, err := obs.ValidatePromText(text); err != nil || n == 0 {
		t.Fatalf("federated exposition invalid (%d samples): %v\n%s", n, err, text)
	}
	for _, want := range []string{
		`cescd_node_up{node="alpha"} 1`,
		`cescd_node_up{node="beta"} 1`,
		`cescd_ticks_total{node="`,
		`cescd_build_info{node="alpha"`,
		`cescd_cluster_ring_epoch{node="`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("federated exposition missing %q:\n%s", want, text)
		}
	}
	// Family declarations from the two nodes collapse into one.
	if got := strings.Count(text, "# TYPE cescd_ticks_total "); got != 1 {
		t.Fatalf("cescd_ticks_total declared %d times, want 1", got)
	}

	// Kill beta: the federation keeps answering, beta degrades to up=0,
	// and the document stays valid.
	tc.kill("beta")
	text = fetch(tc.srvs["alpha"].URL)
	if _, err := obs.ValidatePromText(text); err != nil {
		t.Fatalf("half-dead federation invalid: %v\n%s", err, text)
	}
	if !strings.Contains(text, `cescd_node_up{node="beta"} 0`) {
		t.Fatalf("dead member not reported down:\n%s", text)
	}
}

// TestReadyzClusterAware checks the load-balancer contract: ready while
// serving, 503 with a named reason once draining.
func TestReadyzClusterAware(t *testing.T) {
	tc := newTestCluster(t, 0, "alpha", "beta")

	resp, err := http.Get(tc.srvs["alpha"].URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh node /readyz = %d, want 200", resp.StatusCode)
	}

	// Drain alpha out of the ring: it must stop advertising readiness
	// (both the draining flag and its absence from its own ring view).
	tc.post(t, "alpha", "/cluster/drain", map[string]string{}, nil)
	resp, err = http.Get(tc.srvs["alpha"].URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining node /readyz = %d, want 503", resp.StatusCode)
	}
	var body struct {
		Ready   bool              `json:"ready"`
		Reasons map[string]string `json:"reasons"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Ready || len(body.Reasons) == 0 {
		t.Fatalf("draining /readyz body = %+v, want named reasons", body)
	}

	// The healthy peer still answers ready.
	resp2, err := http.Get(tc.srvs["beta"].URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("peer /readyz = %d, want 200", resp2.StatusCode)
	}
}
