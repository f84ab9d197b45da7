package monitor_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/amba"
	"repro/internal/chart"
	"repro/internal/event"
	"repro/internal/expr"
	"repro/internal/monitor"
	"repro/internal/ocp"
	"repro/internal/parser"
	"repro/internal/synth"
)

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
			if tab.TableBytes() <= 0 {
				t.Fatalf("%s: table size not reported", tc.name)
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

// TestCompileRejectsWideMonitors: a guard over 21 events needs a 2^21
// cell-per-state table, over the 20-bit compile cap.
func TestCompileRejectsWideMonitors(t *testing.T) {
	m := monitor.New("wide", "clk", 2)
	var terms []expr.Expr
	for i := 0; i < 21; i++ {
		terms = append(terms, expr.Ev(fmt.Sprintf("w%02d", i)))
	}
	m.AddTransition(0, monitor.Transition{To: 1, Guard: expr.And(terms...)})
	m.AddTransition(0, monitor.Transition{To: 0, Guard: expr.Not(expr.And(terms...))})
	m.AddTransition(1, monitor.Transition{To: 0, Guard: expr.True})
	if _, err := monitor.CompileTable(m); err == nil {
		t.Error("oversized table accepted")
	}
}

func TestCompileRejectsInvalidMonitor(t *testing.T) {
	bad := monitor.New("bad", "clk", 2)
	bad.AddTransition(0, monitor.Transition{To: 7, Guard: expr.True})
	if _, err := monitor.CompileTable(bad); err == nil {
		t.Error("invalid monitor compiled")
	}
}
