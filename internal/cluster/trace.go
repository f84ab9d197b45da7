package cluster

// Fleet observability endpoints. Each node can answer for the whole
// cluster:
//
//	GET /cluster/trace?trace=ID    fan out to every ring member's local
//	                               /debug/trace, merge the spans into one
//	                               causally ordered timeline (the HLC on
//	                               every span makes cross-node order
//	                               meaningful), and serve it as JSON or —
//	                               with ?format=text — as a rendered
//	                               timeline for a terminal.
//	GET /cluster/metrics           scrape every member's /metrics and
//	                               re-emit the union with a node label on
//	                               every sample, one ValidatePromText-clean
//	                               exposition for a fleet dashboard.
//	GET /readyz                    cluster-aware readiness: the wrapped
//	                               server's checks (not crashed, governor
//	                               not shedding, WAL writable) plus ring
//	                               membership — a node that is not in its
//	                               own ring view (draining, or not yet
//	                               joined) should not take traffic.
//
// Fan-outs are best effort: a dead peer contributes nothing to a trace
// merge and reports up=0 in the federation, never an error — these are
// the endpoints an operator leans on mid-incident, when nodes being
// unreachable is exactly what is being debugged.

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/server"
)

// clusterTraceDefaultN bounds per-node span fetches when the caller does
// not pass ?n=.
const clusterTraceDefaultN = 512

// traceBody is the envelope of a member's GET /debug/trace answer.
type traceBody struct {
	Spans []obs.Span `json:"spans"`
}

// ClusterTraceJSON is the merged-timeline answer of GET /cluster/trace.
type ClusterTraceJSON struct {
	Trace string `json:"trace"`
	// Nodes maps each ring member to the span count it contributed; a
	// member that could not be reached maps to -1.
	Nodes map[string]int `json:"nodes"`
	Spans []obs.Span     `json:"spans"`
}

// handleClusterTrace merges one trace's spans from every ring member
// into a single causally ordered timeline.
func (n *Node) handleClusterTrace(w http.ResponseWriter, r *http.Request) {
	traceID := r.URL.Query().Get("trace")
	if traceID == "" {
		server.WriteError(w, http.StatusBadRequest, "trace query parameter is required")
		return
	}
	limit := clusterTraceDefaultN
	if v := r.URL.Query().Get("n"); v != "" {
		i, err := strconv.Atoi(v)
		if err != nil || i <= 0 {
			server.WriteError(w, http.StatusBadRequest, "n must be a positive integer")
			return
		}
		limit = i
	}

	members := n.currentRing().Members()
	perNode := make([][]obs.Span, len(members))
	counts := make(map[string]int, len(members))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, m := range members {
		if m.Name == n.self.Name {
			spans := n.srv.TraceSpans(traceID, limit)
			perNode[i] = spans
			mu.Lock()
			counts[m.Name] = len(spans)
			mu.Unlock()
			continue
		}
		wg.Add(1)
		go func(i int, m Member) {
			defer wg.Done()
			var body traceBody
			path := fmt.Sprintf("/debug/trace?trace=%s&n=%d", queryEscape(traceID), limit)
			_, err := n.getJSONHdr(m.URL, path, &body)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				counts[m.Name] = -1
				return
			}
			perNode[i] = body.Spans
			counts[m.Name] = len(body.Spans)
		}(i, m)
	}
	wg.Wait()

	merged := obs.MergeTimeline(perNode...)
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, obs.RenderTimeline(merged))
		return
	}
	server.WriteJSON(w, http.StatusOK, ClusterTraceJSON{Trace: traceID, Nodes: counts, Spans: merged})
}

// queryEscape is the tiny subset of url.QueryEscape the trace ids the
// client mints ever need, kept inline so the fan-out path builds its
// URLs without allocating a Values map.
func queryEscape(s string) string {
	if !strings.ContainsAny(s, " %&+=?#") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if strings.IndexByte(" %&+=?#", c) >= 0 {
			fmt.Fprintf(&b, "%%%02X", c)
		} else {
			b.WriteByte(c)
		}
	}
	return b.String()
}

// handleClusterMetrics federates every member's Prometheus exposition
// under a node label. cescd_node_up reports which members answered the
// scrape, so a half-dead fleet still yields a usable (and valid) body.
func (n *Node) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	members := n.currentRing().Members()
	texts := make([]string, len(members))
	up := make([]bool, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		if m.Name == n.self.Name {
			texts[i] = string(n.localMetricsText())
			up[i] = true
			continue
		}
		wg.Add(1)
		go func(i int, m Member) {
			defer wg.Done()
			body, err := n.getText(m.URL, "/metrics")
			if err != nil {
				return
			}
			texts[i], up[i] = body, true
		}(i, m)
	}
	wg.Wait()

	pw := obs.NewPromWriter()
	pw.Family("cescd_node_up", "gauge", "Whether the member answered the federation scrape.")
	for i, m := range members {
		pw.Sample("cescd_node_up", []obs.L{{Name: "node", Value: m.Name}}, b2f(up[i]))
	}
	for i, m := range members {
		if !up[i] {
			continue
		}
		// A peer's exposition is its own /metrics body — already valid
		// text 0.0.4 — re-emitted sample by sample with the node label
		// prepended; colliding family names across nodes collapse into
		// one family, which is the point of federation.
		_, _ = pw.AppendExposition(texts[i], []obs.L{{Name: "node", Value: m.Name}})
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(pw.Bytes())
}

// localMetricsText renders this node's full exposition (server families
// plus cluster families) without going through the network.
func (n *Node) localMetricsText() []byte {
	req, _ := http.NewRequest(http.MethodGet, "/metrics", nil)
	rec := &respBuffer{hdr: make(http.Header)}
	n.srv.Handler().ServeHTTP(rec, req)
	return append(rec.buf.Bytes(), n.promText()...)
}

// getText fetches a peer endpoint as plain text.
func (n *Node) getText(baseURL, path string) (string, error) {
	req, err := http.NewRequest(http.MethodGet, strings.TrimRight(baseURL, "/")+path, nil)
	if err != nil {
		return "", err
	}
	resp, err := n.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("cluster: GET %s: %s", path, resp.Status)
	}
	return string(raw), nil
}

// handleReadyz answers the load balancer with cluster-aware readiness:
// everything the wrapped server checks, plus ring membership.
func (n *Node) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	ready, reasons := n.srv.Ready()
	n.mu.RLock()
	_, inRing := n.ring.Lookup(n.self.Name)
	draining := n.draining
	n.mu.RUnlock()
	if !inRing {
		ready, reasons["ring"] = false, "node is not a member of its own ring view"
	}
	if draining {
		ready, reasons["draining"] = false, "node is draining"
	}
	if !ready {
		server.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reasons": reasons})
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{"ready": true})
}

// traceParentToken mints the X-Cesc-Parent token for an outbound hop:
// the token carries this node's HLC reading, which the receiver folds
// into its clock before stamping its own spans, so the downstream spans
// order causally after ours in a merged timeline.
func (n *Node) traceParentToken() (uint64, string) {
	h := obs.Clock.Now()
	return h, obs.ParentToken(n.self.Name, h)
}
