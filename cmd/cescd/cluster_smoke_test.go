package main

// Process-level cluster smoke test: build the real binary, run a
// three-node ring as separate OS processes, stream ticks through a
// plain client, SIGKILL the session owner, resume the stream on a
// survivor, and require the standby promotion to take over within the
// failure-detection window.
// This is the closest test to production: real sockets, real processes,
// real kill -9.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/ocp"
	"repro/internal/server"
	"repro/internal/trace"
)

// freePorts reserves n distinct TCP ports by listening and closing.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, 0, n)
	listeners := make([]net.Listener, 0, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners = append(listeners, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	for _, l := range listeners {
		l.Close()
	}
	return ports
}

func buildCescd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cescd")
	if runtime.GOOS == "windows" {
		bin += ".exe"
	}
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building cescd: %v\n%s", err, out)
	}
	return bin
}

func waitHealthy(t *testing.T, base string, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("node at %s never became healthy: %v", base, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func smokeStates(n int) []server.StateJSON {
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 5, FaultRate: 0.1}).GenerateTrace(n)
	return tracesToStates(tr)
}

func tracesToStates(tr trace.Trace) []server.StateJSON {
	out := make([]server.StateJSON, len(tr))
	for i, s := range tr {
		st := server.StateJSON{}
		for e, v := range s.Events {
			if v {
				st.Events = append(st.Events, e)
			}
		}
		for p, v := range s.Props {
			if v {
				if st.Props == nil {
					st.Props = make(map[string]bool)
				}
				st.Props[p] = true
			}
		}
		out[i] = st
	}
	return out
}

func TestClusterSmokeKillMinusNine(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level smoke test")
	}
	bin := buildCescd(t)
	ports := freePorts(t, 3)
	names := []string{"n1", "n2", "n3"}
	var peerList []string
	urls := make(map[string]string)
	for i, name := range names {
		urls[name] = fmt.Sprintf("http://127.0.0.1:%d", ports[i])
		peerList = append(peerList, name+"="+urls[name])
	}
	peers := strings.Join(peerList, ",")

	procs := make(map[string]*exec.Cmd)
	for i, name := range names {
		dir := t.TempDir()
		cmd := exec.Command(bin,
			"-addr", fmt.Sprintf("127.0.0.1:%d", ports[i]),
			"-cluster-name", name,
			"-advertise", urls[name],
			"-peers", peers,
			"-refresh-every", "200ms",
			"-fail-after", "5",
			"-replicate-every", "100ms",
			"-wal-dir", filepath.Join(dir, "wal"),
			"-specs", filepath.Join("..", "..", "specs"),
			"-snapshot-every", "4",
			"-trace-depth", "256",
		)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting %s: %v", name, err)
		}
		procs[name] = cmd
		name := name
		t.Cleanup(func() {
			if p := procs[name]; p != nil && p.Process != nil {
				_ = p.Process.Kill()
				_, _ = p.Process.Wait()
			}
		})
	}
	for _, name := range names {
		waitHealthy(t, urls[name], 10*time.Second)
	}

	clientAt := func(name string) *client.Client {
		return client.New(client.Options{
			BaseURL:        urls[name],
			RequestTimeout: 5 * time.Second,
			MaxAttempts:    5,
			BackoffBase:    50 * time.Millisecond,
			BackoffCap:     time.Second,
		})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	// Every batch travels under one pinned trace id, so after the kill -9
	// the cluster-merged timeline must tell the whole story: ingest on the
	// owner, the proxy hop through a non-owner, and the standby promotion
	// replay attributed to the same trace.
	const traceID = "smoke-kill-nine-trace"
	tctx := client.WithTraceID(ctx, traceID)

	sess, err := clientAt("n1").CreateSession(tctx, "assert", "OcpSimpleRead")
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	states := smokeStates(200)
	batches := uint64(0)
	for at := 0; at < 100; at += 20 {
		if _, err := sess.SendTicks(tctx, states[at:at+20], true); err != nil {
			t.Fatalf("SendTicks at %d: %v", at, err)
		}
		batches++
	}

	// Locate the owner process via the ring, let replication ship the
	// tail, then kill -9 the owner.
	resp, err := http.Get(urls["n1"] + "/cluster/ring")
	if err != nil {
		t.Fatalf("GET /cluster/ring: %v", err)
	}
	var ringInfo cluster.RingInfo
	err = json.NewDecoder(resp.Body).Decode(&ringInfo)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decoding /cluster/ring: %v", err)
	}
	ring := cluster.NewRingFromInfo(ringInfo)
	if ring.Len() != 3 {
		t.Fatalf("ring has %d members, want 3", ring.Len())
	}
	owner, ok := ring.Owner(sess.ID)
	if !ok {
		t.Fatalf("no ring owner for %s", sess.ID)
	}
	var flush struct {
		Lag int64 `json:"lag_bytes"`
	}
	flushDeadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Post(urls[owner.Name]+"/cluster/flush", "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatalf("flush on %s: %v", owner.Name, err)
		}
		err = json.NewDecoder(resp.Body).Decode(&flush)
		resp.Body.Close()
		if err == nil && flush.Lag == 0 {
			break
		}
		if time.Now().After(flushDeadline) {
			t.Fatalf("replication lag never reached 0 (last %d)", flush.Lag)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if err := procs[owner.Name].Process.Kill(); err != nil {
		t.Fatalf("killing %s: %v", owner.Name, err)
	}
	_, _ = procs[owner.Name].Process.Wait()
	procs[owner.Name] = nil
	t.Logf("killed owner %s", owner.Name)

	// The survivors' failure detector (5 × 200ms probes) removes the
	// dead node; the standby holder promotes. The stream resumes on a
	// survivor, which serves or proxies it to the promoted owner. Poll
	// while detection converges, bounded at 15s.
	for _, name := range names {
		if name != owner.Name {
			sess = clientAt(name).Resume(sess.ID, batches+1)
			break
		}
	}
	promoteDeadline := time.Now().Add(15 * time.Second)
	for {
		if time.Now().After(promoteDeadline) {
			t.Fatalf("no survivor took over session %s within 15s", sess.ID)
		}
		if info, err := sess.Info(ctx); err == nil && info.Steps >= 100 {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}
	for at := 100; at < 200; at += 20 {
		if _, err := sess.SendTicks(tctx, states[at:at+20], true); err != nil {
			t.Fatalf("post-failover SendTicks at %d: %v", at, err)
		}
	}
	info, err := sess.Info(ctx)
	if err != nil {
		t.Fatalf("Info after failover: %v", err)
	}
	if info.Steps != 200 {
		t.Fatalf("steps after kill -9 failover = %d, want 200", info.Steps)
	}

	// The promoted node should report the takeover on /cluster/status.
	sawPromotion := false
	for _, name := range names {
		if name == owner.Name {
			continue
		}
		resp, err := http.Get(urls[name] + "/cluster/status")
		if err != nil {
			continue
		}
		var st cluster.StatusJSON
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err == nil && st.Promotions > 0 {
			sawPromotion = true
		}
	}
	if !sawPromotion {
		t.Fatalf("no survivor reported a standby promotion")
	}

	// Force one transparent proxy hop under the trace: a traced GET
	// through whichever survivor does not hold the session records a
	// proxy span on its way to the holder.
	for _, name := range names {
		if name == owner.Name {
			continue
		}
		req, _ := http.NewRequest(http.MethodGet, urls[name]+"/sessions/"+sess.ID, nil)
		req.Header.Set("X-Cesc-Trace", traceID)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("traced GET via %s: %v", name, err)
		}
		resp.Body.Close()
	}

	// One trace id, one merged timeline: spans from at least two of the
	// surviving processes, in causal (HLC) order, including the standby
	// promotion replay attributed to the originating trace.
	var merged cluster.ClusterTraceJSON
	for _, name := range names {
		if name == owner.Name {
			continue
		}
		resp, err := http.Get(urls[name] + "/cluster/trace?trace=" + traceID)
		if err != nil {
			t.Fatalf("GET /cluster/trace via %s: %v", name, err)
		}
		err = json.NewDecoder(resp.Body).Decode(&merged)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decoding /cluster/trace via %s: %v", name, err)
		}
		break
	}
	spanNodes := map[string]bool{}
	var sawPromotionSpan, sawProxySpan bool
	for i, sp := range merged.Spans {
		if sp.Trace != traceID {
			t.Fatalf("span %d carries trace %q, want %q", i, sp.Trace, traceID)
		}
		if i > 0 && sp.HLC < merged.Spans[i-1].HLC {
			t.Fatalf("merged timeline not causally ordered at span %d", i)
		}
		if sp.Node != "" {
			spanNodes[sp.Node] = true
		}
		if sp.Stage == obs.StageWALReplay && sp.Kind == "promotion" {
			sawPromotionSpan = true
		}
		if sp.Kind == "proxy" {
			sawProxySpan = true
		}
	}
	if len(spanNodes) < 2 {
		t.Fatalf("merged timeline names %d nodes, want >= 2 (nodes %+v)", len(spanNodes), merged.Nodes)
	}
	if !sawPromotionSpan {
		t.Fatalf("merged timeline missing the promotion replay span:\n%+v", merged.Spans)
	}
	if !sawProxySpan {
		t.Fatalf("merged timeline missing a proxy hop span:\n%+v", merged.Spans)
	}
}
