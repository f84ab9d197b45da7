package monitor_test

import (
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/amba"
	"repro/internal/chart"
	"repro/internal/event"
	"repro/internal/monitor"
	"repro/internal/ocp"
	"repro/internal/parser"
	"repro/internal/synth"
)

// TestLaneBankFigMonitors is the acceptance-criterion differential on
// the paper's protocol figures: 64 lanes of each synthesized monitor,
// each lane fed its own deterministic model traffic, must match 64
// independent Compiled instances on every verdict, state, and
// scoreboard count.
func TestLaneBankFigMonitors(t *testing.T) {
	cases := []struct {
		name    string
		chart   chart.Chart
		traffic func(seed int64) []event.State
	}{
		{"Fig6OCP", ocp.SimpleReadChart(), func(seed int64) []event.State {
			return ocp.NewModel(ocp.Config{Gap: 2, Seed: seed}).GenerateTrace(1024)
		}},
		{"Fig7OCPBurst", ocp.BurstReadChart(), func(seed int64) []event.State {
			return ocp.NewModel(ocp.Config{Gap: 2, Seed: seed, Burst: true}).GenerateTrace(1024)
		}},
		{"Fig8AHB", amba.TransactionChart(), func(seed int64) []event.State {
			return amba.NewModel(amba.Config{Gap: 2, Seed: seed}).GenerateTrace(1024)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := synth.Synthesize(tc.chart, nil)
			if err != nil {
				t.Fatal(err)
			}
			tab, err := monitor.CompileTable(m)
			if err != nil {
				t.Fatal(err)
			}
			bank := monitor.NewLaneBank(tab)
			refs := make([]*monitor.Compiled, monitor.MaxLanes)
			traces := make([][]event.State, monitor.MaxLanes)
			for i := range refs {
				if _, ok := bank.Join(); !ok {
					t.Fatal("bank full")
				}
				refs[i] = tab.NewInstance()
				traces[i] = tc.traffic(int64(i + 1))
			}
			var vals [monitor.MaxLanes]uint64
			for tick := 0; tick < 1024; tick++ {
				for l := range vals {
					vals[l] = uint64(tab.Support().Valuation(traces[l][tick]))
				}
				acceptMask, violMask := bank.StepAll(&vals)
				for l, c := range refs {
					prevViol := c.Violations()
					accepted := c.Step(traces[l][tick])
					if got := acceptMask>>uint(l)&1 == 1; got != accepted {
						t.Fatalf("tick %d lane %d: accept %v, reference %v", tick, l, got, accepted)
					}
					if got := violMask>>uint(l)&1 == 1; got != (c.Violations() > prevViol) {
						t.Fatalf("tick %d lane %d: violation bit mismatch", tick, l)
					}
					if bank.State(l) != c.State() {
						t.Fatalf("tick %d lane %d: state %d, reference %d", tick, l, bank.State(l), c.State())
					}
				}
			}
			for l, c := range refs {
				if bank.Accepts(l) != c.Accepts() || bank.Violations(l) != c.Violations() {
					t.Fatalf("lane %d: counters diverged (%d/%d vs %d/%d)",
						l, bank.Accepts(l), bank.Violations(l), c.Accepts(), c.Violations())
				}
				for _, e := range tab.ChkEvents() {
					if bank.Count(l, e) != c.Count(e) {
						t.Fatalf("lane %d: count[%s] %d, reference %d", l, e, bank.Count(l, e), c.Count(e))
					}
				}
			}
			if bank.Spilled() != 0 {
				t.Fatal("unexpected spill on fig traffic")
			}
		})
	}
}

// fig5Src is Figure 5 of the paper: guarded events, an empty grid line,
// and a causality arrow (so its monitor tests the scoreboard).
const fig5Src = `
cesc Fig5 {
  prop p1, p3;
  scesc on clk {
    instances A, B;
    tick { e1 = p1: e1_ev @ A -> B;  e2_ev @ B -> A; }
    tick { }
    tick { e3 = p3: e3_ev @ A -> B; }
    arrow e1 -> e3;
  }
}
`

// TestEngineTableParity pins what Engine.UseTable promises: the table
// only replaces the guard scan, so on the paper's figure monitors —
// chk-bearing Fig. 5-8 charts included, over faulty traffic that forces
// fallbacks and hard resets — a table-bound engine (map and packed
// input) matches the guard-scanning program engine on every step
// result, stat, scoreboard count and diagnostic, in both modes.
func TestEngineTableParity(t *testing.T) {
	cases := []struct {
		name    string
		chart   chart.Chart
		traffic func(sup *event.Support) []event.State
	}{
		{"Fig5", parser.MustParseChart(fig5Src), func(sup *event.Support) []event.State {
			r := rand.New(rand.NewSource(5))
			out := make([]event.State, 2000)
			for i := range out {
				out[i] = sup.State(event.Valuation(r.Uint64() & (sup.NumValuations() - 1)))
			}
			return out
		}},
		{"Fig6OCP", ocp.SimpleReadChart(), func(*event.Support) []event.State {
			return ocp.NewModel(ocp.Config{Gap: 1, Seed: 6, FaultRate: 0.2}).GenerateTrace(2000)
		}},
		{"Fig7OCPBurst", ocp.BurstReadChart(), func(*event.Support) []event.State {
			return ocp.NewModel(ocp.Config{Gap: 1, Seed: 7, FaultRate: 0.2, Burst: true}).GenerateTrace(2000)
		}},
		{"Fig8AHB", amba.TransactionChart(), func(*event.Support) []event.State {
			return amba.NewModel(amba.Config{Gap: 1, Seed: 8, FaultRate: 0.2}).GenerateTrace(2000)
		}},
	}
	for _, tc := range cases {
		for _, mode := range []monitor.Mode{monitor.ModeDetect, monitor.ModeAssert} {
			m, err := synth.Synthesize(tc.chart, nil)
			if err != nil {
				t.Fatal(err)
			}
			p, err := monitor.CompileProgram(m)
			if err != nil {
				t.Fatal(err)
			}
			tab, err := monitor.CompileTable(m)
			if err != nil {
				t.Fatal(err)
			}
			ref := p.NewEngine(nil, mode)
			onMap := p.NewEngine(nil, mode)
			onPacked := p.NewEngine(nil, mode)
			for _, e := range []*monitor.Engine{ref, onMap, onPacked} {
				e.EnableDiagnostics(4)
			}
			for _, e := range []*monitor.Engine{onMap, onPacked} {
				if err := e.UseTable(tab); err != nil {
					t.Fatalf("%s: UseTable: %v", tc.name, err)
				}
			}
			sup := p.Support()
			for tick, s := range tc.traffic(sup) {
				want := ref.Step(s)
				if got := onMap.Step(s); got != want {
					t.Fatalf("%s mode %d tick %d: table Step %+v, program %+v", tc.name, mode, tick, got, want)
				}
				if got := onPacked.StepPacked(sup.Pack(s)); got != want {
					t.Fatalf("%s mode %d tick %d: table StepPacked %+v, program %+v", tc.name, mode, tick, got, want)
				}
			}
			wantDiag, _ := json.Marshal(ref.Diagnostics())
			for _, e := range []*monitor.Engine{onMap, onPacked} {
				if e.Stats() != ref.Stats() {
					t.Fatalf("%s mode %d: stats %+v, program %+v", tc.name, mode, e.Stats(), ref.Stats())
				}
				if got, want := e.Scoreboard().String(), ref.Scoreboard().String(); got != want {
					t.Fatalf("%s mode %d: scoreboard %s, program %s", tc.name, mode, got, want)
				}
				if gotDiag, _ := json.Marshal(e.Diagnostics()); string(gotDiag) != string(wantDiag) {
					t.Fatalf("%s mode %d: diagnostics diverged:\n got %s\nwant %s", tc.name, mode, gotDiag, wantDiag)
				}
			}
			if mode == monitor.ModeAssert && ref.Stats().Violations == 0 {
				t.Errorf("%s: faulty traffic raised no assert violation", tc.name)
			}
		}
	}
}

// TestUseTableRejects: a table is only a valid resolver for the engine
// it was compiled for, fed input in the table's support order.
func TestUseTableRejects(t *testing.T) {
	m, err := synth.Synthesize(ocp.SimpleReadChart(), nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := monitor.CompileProgram(m)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := monitor.CompileTable(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := monitor.NewEngine(m, nil, monitor.ModeDetect).UseTable(tab); err == nil {
		t.Error("interpreted engine accepted a table")
	}
	other, err := synth.Synthesize(ocp.BurstReadChart(), nil)
	if err != nil {
		t.Fatal(err)
	}
	otherTab, err := monitor.CompileTable(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.NewEngine(nil, monitor.ModeDetect).UseTable(otherTab); err == nil {
		t.Error("engine accepted another monitor's table")
	}
	// A vocabulary with a symbol declared ahead of the support packs the
	// support at shifted slots; one with a trailing symbol is wider.
	shifted := event.NewVocabulary()
	shifted.MustDeclare("pad", event.KindEvent)
	wider := event.NewVocabulary()
	for _, v := range []*event.Vocabulary{shifted, wider} {
		if err := v.DeclareSupport(p.Support()); err != nil {
			t.Fatal(err)
		}
	}
	wider.MustDeclare("pad", event.KindEvent)
	for name, v := range map[string]*event.Vocabulary{"shifted": shifted, "wider": wider} {
		e, err := p.NewEngineVocab(nil, monitor.ModeDetect, v)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.UseTable(tab); err == nil {
			t.Errorf("%s vocabulary accepted", name)
		}
	}
	exact := event.NewVocabulary()
	if err := exact.DeclareSupport(p.Support()); err != nil {
		t.Fatal(err)
	}
	e, err := p.NewEngineVocab(nil, monitor.ModeDetect, exact)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.UseTable(tab); err != nil {
		t.Errorf("support-exact vocabulary refused: %v", err)
	}
}
