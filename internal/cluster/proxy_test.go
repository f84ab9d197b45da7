package cluster_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/ocp"
	"repro/internal/server"
)

// gatedReader serves head, then blocks until gate closes, then serves
// tail: a request body that stalls mid-way.
type gatedReader struct {
	head, tail io.Reader
	gate       <-chan struct{}
}

func (g *gatedReader) Read(p []byte) (int, error) {
	if n, err := g.head.Read(p); err != io.EOF {
		return n, err
	}
	<-g.gate
	return g.tail.Read(p)
}

// TestProxyOutlivesPeerTimeout sends two requests through a non-owner
// whose peer client times out after 200 ms, each taking longer than
// that: a ticks body that stalls until a gate opens, and a ?wait=1 batch
// the owner steps slowly. The proxy hop has no total timeout, so the
// owner answers both instead of the hop answering 502.
func TestProxyOutlivesPeerTimeout(t *testing.T) {
	const peerTimeout = 200 * time.Millisecond
	cfg := server.Config{Shards: 1, QueueDepth: 4, TickDelay: peerTimeout / 4}
	tc := newSplitCluster(t, 0, &http.Client{Timeout: peerTimeout},
		map[string]server.Config{"alpha": cfg, "beta": cfg}, "alpha", "beta")
	ctx := context.Background()
	sess, err := client.New(client.Options{BaseURL: tc.srvs["alpha"].URL}).CreateSession(ctx, "detect", "OcpSimpleRead")
	if err != nil {
		t.Fatal(err)
	}
	if owner, _ := tc.nodes["beta"].Ring().Owner(sess.ID); owner.Name != "alpha" {
		t.Fatalf("session %s is owned by %s, want alpha", sess.ID, owner.Name)
	}
	ticks := server.AppendTicks(nil, toStatesJSON(ocp.NewModel(ocp.Config{Gap: 2, Seed: 3}).GenerateTrace(12)))
	url := tc.srvs["beta"].URL + "/sessions/" + sess.ID + "/ticks"
	post := func(t *testing.T, url string, body io.Reader, want int) {
		resp, err := http.Post(url, "application/x-ndjson", body)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("status %d (%s), want %d", resp.StatusCode, msg, want)
		}
	}
	t.Run("stalled body", func(t *testing.T) {
		gate := make(chan struct{})
		time.AfterFunc(3*peerTimeout, func() { close(gate) })
		half := len(ticks) / 2
		post(t, url, &gatedReader{bytes.NewReader(ticks[:half]), bytes.NewReader(ticks[half:]), gate}, http.StatusAccepted)
	})
	t.Run("wait", func(t *testing.T) {
		start := time.Now()
		post(t, url+"?wait=1", bytes.NewReader(ticks), http.StatusOK)
		if took := time.Since(start); took < peerTimeout {
			t.Fatalf("the batch took %v, not past the peer timeout", took)
		}
	})
	if info, err := client.New(client.Options{BaseURL: tc.srvs["alpha"].URL}).Resume(sess.ID, 0).Info(ctx); err != nil {
		t.Fatal(err)
	} else if want := 2 * 12; info.Steps != want {
		t.Fatalf("owner stepped %d ticks, want %d", info.Steps, want)
	}
}
