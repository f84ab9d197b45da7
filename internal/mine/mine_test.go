package mine

import (
	"strings"
	"testing"

	"repro/internal/amba"
	"repro/internal/axi"
	"repro/internal/ocp"
	"repro/internal/trace"
)

// modelCorpus builds a mixed-gap corpus so fixed-period artifacts (the
// next transaction starting a constant number of idle cycles after the
// previous one) do not masquerade as invariants.
func axiCorpus() *Corpus {
	var segs []trace.Trace
	for gap := 1; gap <= 4; gap++ {
		m := axi.NewModel(axi.Config{Gap: gap, Seed: int64(gap)})
		segs = append(segs, m.GenerateTrace(200))
	}
	return &Corpus{Segments: segs}
}

func ocpCorpus() *Corpus {
	var segs []trace.Trace
	for gap := 1; gap <= 4; gap++ {
		m := ocp.NewModel(ocp.Config{Gap: gap, Seed: int64(gap)})
		segs = append(segs, m.GenerateTrace(160))
	}
	return &Corpus{Segments: segs}
}

func ahbCorpus() *Corpus {
	var segs []trace.Trace
	for gap := 1; gap <= 4; gap++ {
		m := amba.NewModel(amba.Config{Gap: gap, Seed: int64(gap)})
		segs = append(segs, m.GenerateTrace(160))
	}
	return &Corpus{Segments: segs}
}

// passing returns the charts that clear the validation gate.
func passing(t *testing.T, c *Corpus, cfg Config) []*Mined {
	t.Helper()
	ms, rs, err := MineValidated(c, cfg)
	if err != nil {
		t.Fatalf("MineValidated: %v", err)
	}
	var out []*Mined
	for i, m := range ms {
		if rs[i].Pass {
			out = append(out, m)
		} else {
			t.Logf("rejected %s: %s", m.Name, rs[i].Reason)
		}
	}
	return out
}

// TestMineAXIBurst recovers the AXI4 burst-read structure: the address
// handshake line, a latency line, four beat lines with RLAST closing,
// and a causality arrow from the handshake to the last beat.
func TestMineAXIBurst(t *testing.T) {
	got := passing(t, axiCorpus(), Config{ChartName: "axi", Clock: "aclk"})
	if len(got) == 0 {
		t.Fatalf("no chart cleared the gate")
	}
	var burst *Mined
	for _, m := range got {
		if len(m.Scenario.Lines) == 1+(axi.RespLatency-1)+axi.BurstLen {
			burst = m
		}
	}
	if burst == nil {
		t.Fatalf("no full burst pattern mined (got %d charts)", len(got))
	}
	if n := len(burst.Scenario.Lines[0].Events); n != 3 {
		t.Fatalf("handshake line has %d markers, want 3\n%s", n, burst.Source())
	}
	if n := len(burst.Scenario.Lines[1].Events); n != 0 {
		t.Fatalf("latency line has %d markers, want 0\n%s", n, burst.Source())
	}
	lastLine := burst.Scenario.Lines[len(burst.Scenario.Lines)-1]
	found := false
	for _, es := range lastLine.Events {
		if es.Event == axi.EvRLast {
			found = true
		}
	}
	if !found {
		t.Fatalf("RLAST missing from final line\n%s", burst.Source())
	}
	if len(burst.Scenario.Arrows) == 0 {
		t.Fatalf("no causality arrow mined\n%s", burst.Source())
	}
	hasRLastArrow := false
	for _, a := range burst.Scenario.Arrows {
		if strings.Contains(a.To, "rlast") {
			hasRLastArrow = true
		}
	}
	if !hasRLastArrow {
		t.Fatalf("expected handshake→RLAST arrow, got %v", burst.Scenario.Arrows)
	}
}

// TestMineOCPFig6 recovers the paper's Fig. 6 shape: command/address/
// accept on one line, response with data on the next.
func TestMineOCPFig6(t *testing.T) {
	got := passing(t, ocpCorpus(), Config{ChartName: "ocp", Clock: "ocp_clk"})
	var fig6 *Mined
	for _, m := range got {
		if len(m.Scenario.Lines) == 2 && len(m.Scenario.Lines[0].Events) == 3 {
			fig6 = m
		}
	}
	if fig6 == nil {
		t.Fatalf("Fig. 6 pattern not mined (%d passing charts)", len(got))
	}
	line1 := map[string]bool{}
	for _, es := range fig6.Scenario.Lines[1].Events {
		line1[es.Event] = true
	}
	if !line1[ocp.EvSResp] || !line1[ocp.EvSData] {
		t.Fatalf("response line missing SResp/SData\n%s", fig6.Source())
	}
}

// TestMineAHBCLI recovers the 3-cycle AHB CLI transaction with the
// closing master_response uniquely positioned (arrow target).
func TestMineAHBCLI(t *testing.T) {
	got := passing(t, ahbCorpus(), Config{ChartName: "ahb", Clock: "ahb_clk"})
	var cli *Mined
	for _, m := range got {
		if len(m.Scenario.Lines) == 3 {
			cli = m
		}
	}
	if cli == nil {
		t.Fatalf("CLI pattern not mined (%d passing charts)", len(got))
	}
	if n := len(cli.Scenario.Lines[0].Events); n != 5 {
		t.Fatalf("setup line has %d markers, want 5\n%s", n, cli.Source())
	}
	last := cli.Scenario.Lines[2].Events
	if len(last) != 1 || last[0].Event != amba.EvMasterResponse {
		t.Fatalf("closing line should be master_response alone\n%s", cli.Source())
	}
	arrowed := false
	for _, a := range cli.Scenario.Arrows {
		if strings.Contains(a.To, "master_response") {
			arrowed = true
		}
	}
	if !arrowed {
		t.Fatalf("no arrow to master_response\n%s", cli.Source())
	}
}

// TestMineRejectsFaultyCorpusPatterns mines a corpus with injected
// faults: the gate must reject any pattern the faults contradict, and
// the clean-corpus invariants must survive at reduced confidence.
func TestMineFaultyCorpusLowersConfidence(t *testing.T) {
	var segs []trace.Trace
	for gap := 1; gap <= 4; gap++ {
		m := axi.NewModel(axi.Config{Gap: gap, Seed: int64(gap), FaultRate: 0.3})
		segs = append(segs, m.GenerateTrace(200))
	}
	c := &Corpus{Segments: segs}
	// At full confidence the faulty beats break the window invariants.
	strict, _, err := MineValidated(c, Config{ChartName: "axf"})
	if err != nil {
		t.Fatalf("MineValidated: %v", err)
	}
	for _, m := range strict {
		if len(m.Scenario.Lines) == 6 {
			t.Fatalf("full burst pattern should not survive confidence 1.0 on a faulty corpus")
		}
	}
}

// TestMineDeterministic asserts byte-identical output across runs.
func TestMineDeterministic(t *testing.T) {
	c := axiCorpus()
	a, ra, err := MineValidated(c, Config{ChartName: "axi"})
	if err != nil {
		t.Fatal(err)
	}
	b, rb, err := MineValidated(axiCorpus(), Config{ChartName: "axi"})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Source() != b[i].Source() {
			t.Fatalf("chart %d differs across runs", i)
		}
		if ra[i].Pass != rb[i].Pass || ra[i].Killed != rb[i].Killed || ra[i].Mutants != rb[i].Mutants {
			t.Fatalf("result %d differs across runs", i)
		}
	}
}

// TestValidateCountsMutants sanity-checks the discrimination half of
// the gate on the AXI corpus.
func TestValidateCountsMutants(t *testing.T) {
	c := axiCorpus()
	ms, rs, err := MineValidated(c, Config{ChartName: "axi"})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range ms {
		if !rs[i].Pass {
			continue
		}
		if rs[i].Mutants == 0 {
			t.Fatalf("%s passed with zero mutants", m.Name)
		}
		if rs[i].KillRate() < 0.95 {
			t.Fatalf("%s passed with kill rate %.2f", m.Name, rs[i].KillRate())
		}
		if rs[i].Accepts < m.Support/2 {
			t.Fatalf("%s accepts %d, support %d", m.Name, rs[i].Accepts, m.Support)
		}
	}
}

// nonIdentCorpus is the reproducer for symbols the parser cannot read:
// an event named by digits alone beside a req/ack pattern. Mining it
// with negated markers once put !00000000000 in a chart, which then
// failed Mine's own round-trip check.
const nonIdentCorpus = `{"events":["00000000000"]}` + "\n" +
	"#000000000000000000\n" +
	`{"events":["req"]}` + "\n" + `{"events":["ack"]}` + "\n" +
	`{"events":["req"]}` + "\n" + `{"events":["ack"]}` + "\n"

// TestMineSkipsNonIdentifiers: a symbol that is not a CESC identifier
// (or a prop named like a literal) is skipped and reported, never put
// in a marker, and the rest of the corpus still mines.
func TestMineSkipsNonIdentifiers(t *testing.T) {
	c, err := ReadNDJSON(strings.NewReader(nonIdentCorpus))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := Mine(c, Config{MinSupport: 2, MaxWindow: 4, Negatives: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("req/ack pattern not mined")
	}
	for _, m := range ms {
		if strings.Contains(m.Source(), "00000000000") {
			t.Errorf("%s names the skipped symbol:\n%s", m.Name, m.Source())
		}
	}
	if got := c.SkippedSymbols(); len(got) != 1 || got[0] != "00000000000" {
		t.Errorf("SkippedSymbols = %q, want [00000000000]", got)
	}

	lit, err := ReadNDJSON(strings.NewReader(strings.Repeat(
		`{"events":["req"],"props":{"true":true,"p-q":true}}`+"\n"+`{"events":["ack"]}`+"\n\n", 3)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Mine(lit, Config{MinSupport: 2, MaxWindow: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if got := lit.SkippedSymbols(); strings.Join(got, ",") != "p-q,true" {
		t.Errorf("SkippedSymbols = %q, want [p-q true]", got)
	}
}
