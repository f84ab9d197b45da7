package cluster_test

// Cluster differential end-to-end tests: the Fig. 6 OCP trace streamed
// through a 3-node ring — with a live migration mid-trace and a
// kill + standby-promotion — must produce monitor verdicts
// byte-identical to a standalone server that saw the same trace, and
// exactly-once ingest must hold across every move (Steps equals the
// tick count, no duplicates, no loss).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/ocp"
	"repro/internal/parser"
	"repro/internal/server"
	"repro/internal/trace"
)

func specSource() string {
	return parser.Print("OcpSimpleRead", ocp.SimpleReadChart()) +
		parser.Print("OcpSimpleReadB", ocp.SimpleReadChart())
}

// toStateJSON converts a trace tick to the ingest wire form the same
// way the server does (sorted events, true props only).
func toStateJSON(s event.State) server.StateJSON {
	out := server.StateJSON{}
	for e, v := range s.Events {
		if v {
			out.Events = append(out.Events, e)
		}
	}
	sort.Strings(out.Events)
	for p, v := range s.Props {
		if v {
			if out.Props == nil {
				out.Props = make(map[string]bool)
			}
			out.Props[p] = true
		}
	}
	return out
}

func toStatesJSON(tr trace.Trace) []server.StateJSON {
	out := make([]server.StateJSON, len(tr))
	for i, s := range tr {
		out[i] = toStateJSON(s)
	}
	return out
}

// monitorsJSON renders a verdict set for byte-level comparison.
func monitorsJSON(t *testing.T, v server.VerdictsJSON) []byte {
	t.Helper()
	data, err := json.MarshalIndent(v.Monitors, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// referenceVerdicts streams the whole trace through one standalone
// server and returns the canonical verdict bytes.
func referenceVerdicts(t *testing.T, tr trace.Trace, batchLen int) []byte {
	t.Helper()
	srv, err := server.New(server.Config{Shards: 2, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	if _, err := srv.LoadSpecSource(specSource()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := client.New(client.Options{BaseURL: ts.URL})
	ctx := context.Background()
	sess, err := c.CreateSession(ctx, "assert", "OcpSimpleRead", "OcpSimpleReadB")
	if err != nil {
		t.Fatal(err)
	}
	states := toStatesJSON(tr)
	for at := 0; at < len(states); at += batchLen {
		end := min(at+batchLen, len(states))
		if _, err := sess.SendTicks(ctx, states[at:end], true); err != nil {
			t.Fatalf("reference SendTicks at %d: %v", at, err)
		}
	}
	v, err := sess.Verdicts(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return monitorsJSON(t, v)
}

// handlerBox gives atomic.Value a single concrete type to hold while
// the stored handler changes concrete type (placeholder → node mux).
type handlerBox struct{ h http.Handler }

// testCluster is an in-process ring of cluster.Nodes, each behind its own
// httptest listener so peers and clients reach them over real HTTP.
type testCluster struct {
	t     *testing.T
	names []string
	nodes map[string]*cluster.Node
	srvs  map[string]*httptest.Server
	dead  map[string]bool
}

func newTestCluster(t *testing.T, refresh time.Duration, names ...string) *testCluster {
	t.Helper()
	tc := &testCluster{
		t:     t,
		names: names,
		nodes: make(map[string]*cluster.Node),
		srvs:  make(map[string]*httptest.Server),
		dead:  make(map[string]bool),
	}
	handlers := make(map[string]*atomic.Value)
	var peers []cluster.Member
	for _, name := range names {
		h := &atomic.Value{}
		h.Store(handlerBox{http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "node starting", http.StatusServiceUnavailable)
		})})
		hv := h
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hv.Load().(handlerBox).h.ServeHTTP(w, r)
		}))
		handlers[name] = h
		tc.srvs[name] = ts
		peers = append(peers, cluster.Member{Name: name, URL: ts.URL})
	}
	for _, name := range names {
		dir := t.TempDir()
		n, err := cluster.New(cluster.Config{
			Name:         name,
			AdvertiseURL: tc.srvs[name].URL,
			Peers:        peers,
			RefreshEvery: refresh,
			StandbyDir:   filepath.Join(dir, "standby"),
			Server: server.Config{
				Shards:        2,
				QueueDepth:    16,
				SnapshotEvery: 4,
				WALDir:        filepath.Join(dir, "wal"),
				TraceDepth:    256,
			},
		})
		if err != nil {
			t.Fatalf("node %s: %v", name, err)
		}
		if _, err := n.Server().LoadSpecSource(specSource()); err != nil {
			t.Fatalf("loading specs on %s: %v", name, err)
		}
		handlers[name].Store(handlerBox{n.Handler()})
		tc.nodes[name] = n
	}
	t.Cleanup(func() {
		for _, name := range names {
			if tc.dead[name] {
				continue
			}
			tc.srvs[name].Close()
			tc.nodes[name].Close()
		}
	})
	return tc
}

// holder returns the node currently holding a session.
func (tc *testCluster) holder(id string) (string, bool) {
	for name, n := range tc.nodes {
		if !tc.dead[name] && n.Server().HasSession(id) {
			return name, true
		}
	}
	return "", false
}

// kill simulates abrupt node death: the listener drops and the wrapped
// server crashes without a final sync.
func (tc *testCluster) kill(name string) {
	tc.srvs[name].Close()
	tc.nodes[name].Kill()
	tc.dead[name] = true
}

func (tc *testCluster) post(t *testing.T, name, path string, body any, out any) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(tc.srvs[name].URL+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST %s on %s: %v", path, name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s on %s: status %d", path, name, resp.StatusCode)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s on %s: decoding: %v", path, name, err)
		}
	}
}

// clientAt builds a plain client whose every request enters the ring at
// one node; that node serves or proxies it to the session's owner.
func (tc *testCluster) clientAt(name string) *client.Client {
	return client.New(client.Options{
		BaseURL:        tc.srvs[name].URL,
		RequestTimeout: 5 * time.Second,
		MaxAttempts:    6,
		BackoffBase:    20 * time.Millisecond,
		BackoffCap:     500 * time.Millisecond,
	})
}

// TestClusterDifferentialParity is the acceptance test of ISSUE 6: the
// Fig. 6 OCP trace through a 3-node ring with one mid-trace drain
// migration and one kill + standby promotion must match a single node
// byte-for-byte, with exactly-once ingest throughout.
func TestClusterDifferentialParity(t *testing.T) {
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 3, FaultRate: 0.2}).GenerateTrace(600)
	states := toStatesJSON(tr)
	want := referenceVerdicts(t, tr, 32)

	tc := newTestCluster(t, 0, "alpha", "beta", "gamma")
	ctx := context.Background()

	sess, err := tc.clientAt("alpha").CreateSession(ctx, "assert", "OcpSimpleRead", "OcpSimpleReadB")
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	first, ok := tc.holder(sess.ID)
	if !ok {
		t.Fatalf("no node holds freshly created session %s", sess.ID)
	}
	if owner, ok := tc.nodes[first].Ring().Owner(sess.ID); !ok || owner.Name != first {
		t.Fatalf("session %s minted on %s but ring owner is %v", sess.ID, first, owner)
	}

	var batches uint64 // batches acked so far: the stream's ?seq high-water mark
	send := func(from, to int) {
		t.Helper()
		for at := from; at < to; at += 32 {
			end := min(at+32, to)
			if _, err := sess.SendTicks(ctx, states[at:end], true); err != nil {
				t.Fatalf("SendTicks[%d:%d]: %v", at, end, err)
			}
			batches++
		}
	}

	// Phase 1: first 300 ticks land on the minting owner.
	send(0, 300)

	// Live migration: drain the owner out of the ring. The handler is
	// synchronous, so when it returns the session lives elsewhere.
	var drained struct {
		Migrated int `json:"migrated"`
	}
	tc.post(t, first, "/cluster/drain", map[string]string{}, &drained)
	if drained.Migrated != 1 {
		t.Fatalf("drain migrated %d sessions, want 1", drained.Migrated)
	}
	second, ok := tc.holder(sess.ID)
	if !ok || second == first {
		t.Fatalf("after drain, session holder = %q (was %q)", second, first)
	}
	var survivor string
	for _, name := range tc.names {
		if name != first && name != second {
			survivor = name
		}
	}

	// Phase 2: the stream moves to the node that is neither drained nor
	// about to be killed. It proxies to the new owner, and the resumed
	// ?seq counter keeps ingest exactly-once across the move.
	sess = tc.clientAt(survivor).Resume(sess.ID, batches+1)
	send(300, 450)

	// Ship the WAL tail to the standby before the owner dies, so the
	// failover loses nothing (at most the unacked tail is at risk, and
	// here everything is acked).
	var flush struct {
		Lag int64 `json:"lag_bytes"`
	}
	tc.post(t, second, "/cluster/flush", map[string]string{}, &flush)
	if flush.Lag != 0 {
		t.Fatalf("replication lag %d bytes after flush, want 0", flush.Lag)
	}

	// Failover: kill the owner, declare it dead on the survivor, and
	// let standby promotion take over.
	tc.kill(second)
	tc.post(t, survivor, "/cluster/leave", map[string]string{"name": second}, nil)

	// The promotion counter moves after AdoptSession has registered the
	// session, so wait for both before checking there was exactly one.
	deadline := time.Now().Add(10 * time.Second)
	for !tc.nodes[survivor].Server().HasSession(sess.ID) || tc.nodes[survivor].Status().Promotions == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("standby promotion of %s on %s did not happen", sess.ID, survivor)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := tc.nodes[survivor].Status(); st.Promotions != 1 {
		t.Fatalf("survivor promotions = %d, want 1", st.Promotions)
	}

	// Phase 3: the rest of the trace, served by the promoted session on
	// the node the stream already enters at.
	send(450, 600)

	info, err := sess.Info(ctx)
	if err != nil {
		t.Fatalf("Info: %v", err)
	}
	if info.Steps != 600 {
		t.Fatalf("steps after two moves = %d, want exactly 600 (exactly-once violated)", info.Steps)
	}
	v, err := sess.Verdicts(ctx)
	if err != nil {
		t.Fatalf("Verdicts: %v", err)
	}
	if got := monitorsJSON(t, v); string(got) != string(want) {
		t.Fatalf("cluster verdicts differ from single-node run:\n got %s\nwant %s", got, want)
	}
}

// TestClusterRingEndpointAndProxy covers the routing surface directly:
// /cluster/ring serves the table, and a client talking to a non-owner is
// transparently proxied — even one still sending the retired
// X-Cesc-Route: redirect opt-in, since proxying is the only route.
func TestClusterRingEndpointAndProxy(t *testing.T) {
	tc := newTestCluster(t, 0, "alpha", "beta")
	ctx := context.Background()

	resp, err := http.Get(tc.srvs["alpha"].URL + "/cluster/ring")
	if err != nil {
		t.Fatal(err)
	}
	var info cluster.RingInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(info.Members) != 2 || info.Epoch != 1 {
		t.Fatalf("ring = %+v, want 2 members at epoch 1", info)
	}

	// Create on alpha; alpha mints an ID it owns.
	alpha := client.New(client.Options{BaseURL: tc.srvs["alpha"].URL})
	sess, err := alpha.CreateSession(ctx, "assert", "OcpSimpleRead")
	if err != nil {
		t.Fatal(err)
	}
	if owner, _ := tc.nodes["alpha"].Ring().Owner(sess.ID); owner.Name != "alpha" {
		t.Fatalf("alpha minted %s but does not own it", sess.ID)
	}

	// A plain client pointed at beta is proxied to alpha transparently.
	beta := client.New(client.Options{BaseURL: tc.srvs["beta"].URL})
	betaSess := beta.Resume(sess.ID, 1)
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 7}).GenerateTrace(20)
	if _, err := betaSess.SendTicks(ctx, toStatesJSON(tr), true); err != nil {
		t.Fatalf("proxied SendTicks via beta: %v", err)
	}
	if st := tc.nodes["beta"].Status(); st.Proxied == 0 {
		t.Fatalf("beta proxied = 0, want > 0")
	}
	info2, err := betaSess.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Steps != 20 {
		t.Fatalf("steps via proxy = %d, want 20", info2.Steps)
	}

	// The retired redirect opt-in is ignored: the request is proxied.
	proxied := tc.nodes["beta"].Status().Proxied
	req, _ := http.NewRequest(http.MethodGet, tc.srvs["beta"].URL+"/sessions/"+sess.ID, nil)
	req.Header.Set("X-Cesc-Route", "redirect")
	rresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("redirect-opted status = %d, want 200", rresp.StatusCode)
	}
	if st := tc.nodes["beta"].Status(); st.Proxied != proxied+1 {
		t.Fatalf("beta proxied = %d after a redirect-opted request, want %d", st.Proxied, proxied+1)
	}
}

// TestClusterMembershipChurnDuringIngest stresses concurrent ring
// changes against a live tick stream (run under -race via `make
// clustertest`): a session keeps ingesting through one entry node while
// a member repeatedly leaves and rejoins, forcing migrations back and
// forth. Exactly-once must hold and the final verdicts must match a
// standalone run.
func TestClusterMembershipChurnDuringIngest(t *testing.T) {
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 11, FaultRate: 0.15}).GenerateTrace(400)
	states := toStatesJSON(tr)
	want := referenceVerdicts(t, tr, 10)

	tc := newTestCluster(t, 50*time.Millisecond, "alpha", "beta")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	sess, err := tc.clientAt("alpha").CreateSession(ctx, "assert", "OcpSimpleRead", "OcpSimpleReadB")
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}

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

	// Churn: beta leaves and rejoins the ring while ticks flow.
	beta := cluster.Member{Name: "beta", URL: tc.srvs["beta"].URL}
	for i := 0; i < 3; i++ {
		time.Sleep(80 * time.Millisecond)
		tc.post(t, "alpha", "/cluster/leave", map[string]string{"name": "beta"}, nil)
		time.Sleep(80 * time.Millisecond)
		tc.post(t, "alpha", "/cluster/join", beta, nil)
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Let the last rebalance settle, then check exactly-once and parity.
	deadline := time.Now().Add(10 * time.Second)
	for {
		info, err := sess.Info(ctx)
		if err == nil && info.Steps == len(states) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("steps never settled at %d (last: %+v, err %v)", len(states), info, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	v, err := sess.Verdicts(ctx)
	if err != nil {
		t.Fatalf("Verdicts: %v", err)
	}
	if got := monitorsJSON(t, v); string(got) != string(want) {
		t.Fatalf("verdicts after churn differ from standalone run:\n got %s\nwant %s", got, want)
	}
}
