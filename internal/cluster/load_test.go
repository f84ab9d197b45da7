package cluster_test

// Overload load-routing e2e: a node whose admission governor is
// throttling new sessions must gossip that level on the ring probe,
// and a create POSTed at the hot node must be proxied to the cooler
// peer instead of answering 429 — while a request a peer already
// forwarded is served (and shed) locally, so two hot nodes can never
// ping-pong a create between them.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/faultinject"
	"repro/internal/ocp"
	"repro/internal/server"
)

// newSplitCluster mirrors newTestCluster but takes a per-node server
// configuration, so one node can run with a deliberately hot admission
// governor while its peer stays cool, and the peer HTTP client (nil for
// the default). WALDir is filled in per node.
func newSplitCluster(t *testing.T, refresh time.Duration, hc *http.Client, cfgs map[string]server.Config, names ...string) *testCluster {
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
		scfg := cfgs[name]
		scfg.WALDir = filepath.Join(dir, "wal")
		n, err := cluster.New(cluster.Config{
			Name:         name,
			AdvertiseURL: tc.srvs[name].URL,
			Peers:        peers,
			RefreshEvery: refresh,
			StandbyDir:   filepath.Join(dir, "standby"),
			HTTPClient:   hc,
			Server:       scfg,
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

// waitForCluster polls until cond holds or the deadline passes.
func waitForCluster(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestClusterOverloadRoutesCreatesToCoolerPeer(t *testing.T) {
	base := server.Config{Shards: 2, QueueDepth: 16, SnapshotEvery: 4}
	hotCfg := base
	// The fault plane pins the hot node's governor at the
	// session-throttling level — GovernorState folds fault forcing in,
	// so the gossiped load matches what admission actually enforces.
	hotCfg.Faults = faultinject.New(1).Add(faultinject.Rule{
		Point: "governor.force.sessions", Kind: faultinject.KindError, Every: 1,
	})
	tc := newSplitCluster(t, 20*time.Millisecond, nil, map[string]server.Config{
		"hot": hotCfg, "cool": base,
	}, "hot", "cool")
	hot, cool := tc.nodes["hot"], tc.nodes["cool"]

	// The ring probe doubles as load gossip: the hot node advertises its
	// throttling level on X-Cesc-Load, and learns that its peer is idle.
	resp, err := http.Get(tc.srvs["hot"].URL + "/cluster/ring")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if load := resp.Header.Get(cluster.HeaderLoad); !strings.HasPrefix(load, "2 ") {
		t.Fatalf("hot node gossips %s %q, want level 2", cluster.HeaderLoad, load)
	}
	waitForCluster(t, 5*time.Second, func() bool {
		st := hot.Status()
		pl, ok := st.PeerLoads["cool"]
		return ok && pl.Level == 0 && st.GovernorLevel >= server.GovLevelThrottleSessions
	})
	if st := cool.Status(); st.GovernorLevel != 0 {
		t.Fatalf("cool node governor level = %d, want 0", st.GovernorLevel)
	}

	// A create POSTed at the hot node is proxied to the cooler peer: the
	// client sees a plain 201, the session materializes on the cool node,
	// and the hot node counts the routed create.
	body, _ := json.Marshal(map[string]any{"mode": "assert", "specs": []string{"OcpSimpleRead"}})
	resp, err = http.Post(tc.srvs["hot"].URL+"/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var info server.SessionInfoJSON
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create via hot node: status %d, want 201", resp.StatusCode)
	}
	if !cool.Server().HasSession(info.ID) {
		t.Fatalf("session %s not on cool node after overload routing", info.ID)
	}
	if hot.Server().HasSession(info.ID) {
		t.Fatalf("session %s landed on the throttling node", info.ID)
	}
	if routed := hot.Status().LoadRouted; routed < 1 {
		t.Fatalf("hot node LoadRouted = %d, want >= 1", routed)
	}

	// Ping-pong guard: a create that already carries the forwarded marker
	// must be served locally, which on the hot node means the honest 429.
	req, err := http.NewRequest("POST", tc.srvs["hot"].URL+"/sessions", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.HeaderForwarded, "cool")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("forwarded create on hot node: status %d, want 429", resp.StatusCode)
	}
	if shed := resp.Header.Get("X-Cesc-Shed"); shed != "sessions" {
		t.Fatalf("forwarded create X-Cesc-Shed = %q, want \"sessions\"", shed)
	}
	if routed := hot.Status().LoadRouted; routed != 1 {
		t.Fatalf("LoadRouted = %d after forwarded create, want still 1", routed)
	}

	// The routed session is fully usable where it landed: stream the
	// Fig. 6 trace at the cool node and read complete verdicts back.
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 7, FaultRate: 0.2}).GenerateTrace(96)
	states := toStatesJSON(tr)
	ctx := context.Background()
	c := client.New(client.Options{BaseURL: tc.srvs["cool"].URL})
	sess := c.Resume(info.ID, 0)
	for at := 0; at < len(states); at += 32 {
		if _, err := sess.SendTicks(ctx, states[at:at+32], true); err != nil {
			t.Fatalf("SendTicks at %d: %v", at, err)
		}
	}
	got, err := sess.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Steps != len(tr) {
		t.Fatalf("routed session steps = %d, want %d", got.Steps, len(tr))
	}
	if _, err := sess.Verdicts(ctx); err != nil {
		t.Fatalf("verdicts from routed session: %v", err)
	}
}
