package server

import (
	"bytes"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/ocp"
)

// ocpMiningCorpus renders an OCP simple-read corpus in the daemon's
// NDJSON wire format, one trace segment per gap so inter-transaction
// spacing varies across segments.
func ocpMiningCorpus(t *testing.T, ticks int) []byte {
	t.Helper()
	var b bytes.Buffer
	for gap := 1; gap <= 6; gap++ {
		if gap > 1 {
			b.WriteByte('\n')
		}
		m := ocp.NewModel(ocp.Config{Gap: gap, Seed: int64(gap)})
		b.Write(ndjson(t, m.GenerateTrace(ticks)))
	}
	return b.Bytes()
}

// TestMineSpecsEndpoint posts a trace corpus to POST /specs/mine and
// then runs a session on the mined chart: the full loop from raw traces
// to a live monitor without a hand-written spec.
func TestMineSpecsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1})

	var mined struct {
		Loaded []string `json:"loaded"`
		Mined  []struct {
			Name   string `json:"name"`
			Loaded bool   `json:"loaded"`
			Result struct {
				Pass    bool `json:"pass"`
				Accepts int  `json:"accepts"`
				Mutants int  `json:"mutants"`
				Killed  int  `json:"killed"`
			} `json:"result"`
		} `json:"mined"`
	}
	doJSON(t, "POST", ts.URL+"/specs/mine?name=ocp_mined&clock=ocp_clk",
		ocpMiningCorpus(t, 160), http.StatusCreated, &mined)
	if len(mined.Loaded) == 0 {
		t.Fatal("no mined specs loaded")
	}
	var scenario string
	for _, m := range mined.Mined {
		if m.Loaded {
			if !m.Result.Pass || m.Result.Mutants == 0 || m.Result.Killed < m.Result.Mutants {
				t.Fatalf("loaded chart %s with weak gate result: %+v", m.Name, m.Result)
			}
			scenario = m.Name
		}
	}
	if scenario == "" {
		t.Fatal("no loaded chart in mined report")
	}

	var specs struct {
		Specs []struct {
			Name string `json:"name"`
		} `json:"specs"`
	}
	doJSON(t, "GET", ts.URL+"/specs", nil, http.StatusOK, &specs)
	found := false
	for _, sp := range specs.Specs {
		found = found || sp.Name == scenario
	}
	if !found {
		t.Fatalf("mined chart %s not listed in /specs (%+v)", scenario, specs.Specs)
	}

	// Run a live session on the mined scenario chart over a clean trace:
	// it must accept and never violate.
	sess := createSession(t, ts.URL, "detect", scenario)
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 99}).GenerateTrace(120)
	streamTicks(t, ts.URL, sess.ID, tr, 64)
	verdict := verdictFor(t, ts.URL, sess.ID, scenario)
	if verdict.Accepts == 0 || verdict.Violations != 0 {
		t.Fatalf("mined monitor on clean trace: accepts=%d violations=%d", verdict.Accepts, verdict.Violations)
	}
}

// TestMineSpecsNothingPasses posts a corpus with no mineable structure
// and expects 422 with nothing loaded; the one symbol no chart can name
// is reported as skipped.
func TestMineSpecsNothingPasses(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1})
	// One event at irregular, segment-varying offsets: no offset after
	// any anchor holds across windows, so nothing clears confidence 1.0.
	var b bytes.Buffer
	for seg, at := range [][]int{{0, 3, 7}, {1, 6, 11}, {2, 5, 9}} {
		if seg > 0 {
			b.WriteByte('\n')
		}
		hit := map[int]bool{}
		for _, i := range at {
			hit[i] = true
		}
		for i := 0; i < 12; i++ {
			if seg == 0 && i == 0 {
				fmt.Fprintln(&b, `{"events":["a","9lives"]}`)
			} else if hit[i] {
				fmt.Fprintln(&b, `{"events":["a"]}`)
			} else {
				fmt.Fprintln(&b, `{"events":[]}`)
			}
		}
	}
	var out struct {
		Error   string   `json:"error"`
		Skipped []string `json:"skipped_symbols"`
	}
	doJSON(t, "POST", ts.URL+"/specs/mine", b.Bytes(), http.StatusUnprocessableEntity, &out)
	if out.Error == "" {
		t.Fatal("expected an error message")
	}
	if len(out.Skipped) != 1 || out.Skipped[0] != "9lives" {
		t.Errorf("skipped_symbols = %q, want [9lives]", out.Skipped)
	}
	var specs struct {
		Specs []struct {
			Name string `json:"name"`
		} `json:"specs"`
	}
	doJSON(t, "GET", ts.URL+"/specs", nil, http.StatusOK, &specs)
	for _, sp := range specs.Specs {
		if sp.Name != "OcpSimpleRead" {
			t.Fatalf("unexpected spec %q registered by failed mine", sp.Name)
		}
	}
}

// TestMineSpecsBadRequests covers malformed corpora and parameters.
func TestMineSpecsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1})
	var out struct {
		Error string `json:"error"`
	}
	doJSON(t, "POST", ts.URL+"/specs/mine", []byte("not json\n"), http.StatusBadRequest, &out)
	doJSON(t, "POST", ts.URL+"/specs/mine?confidence=2",
		[]byte(`{"events":["a"]}`+"\n"), http.StatusBadRequest, &out)
	doJSON(t, "POST", ts.URL+"/specs/mine?min_support=x",
		[]byte(`{"events":["a"]}`+"\n"), http.StatusBadRequest, &out)
}
