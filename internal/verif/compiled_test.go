package verif

import (
	"math/rand"
	"testing"

	"repro/internal/amba"
	"repro/internal/chart"
	"repro/internal/event"
	"repro/internal/expr"
	"repro/internal/monitor"
	"repro/internal/ocp"
	"repro/internal/synth"
)

// TestCompiledParityCaseStudies: the table-bound engine (the step
// table-eligible cescd sessions run) and the interpreted engine accept
// at identical ticks on every case-study monitor over mixed clean/faulty
// traffic.
func TestCompiledParityCaseStudies(t *testing.T) {
	cases := []struct {
		name  string
		chart chart.Chart
		trace func() []event.State
	}{
		{"ocp-simple", ocp.SimpleReadChart(), func() []event.State {
			return ocp.NewModel(ocp.Config{Gap: 1, Seed: 101, FaultRate: 0.3}).GenerateTrace(3000)
		}},
		{"ocp-burst", ocp.BurstReadChart(), func() []event.State {
			return ocp.NewModel(ocp.Config{Gap: 1, Seed: 102, FaultRate: 0.3, Burst: true}).GenerateTrace(3000)
		}},
		{"ocp-write", ocp.WriteChart(), func() []event.State {
			return ocp.NewModel(ocp.Config{Gap: 1, Seed: 103, FaultRate: 0.3, Write: true}).GenerateTrace(3000)
		}},
		{"ahb-write", amba.TransactionChart(), func() []event.State {
			return amba.NewModel(amba.Config{Gap: 1, Seed: 104, FaultRate: 0.3}).GenerateTrace(3000)
		}},
		{"ahb-read", amba.ReadChart(), func() []event.State {
			return amba.NewModel(amba.Config{Gap: 1, Seed: 105, FaultRate: 0.3, Read: true}).GenerateTrace(3000)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := synth.Synthesize(tc.chart, nil)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := monitor.CompileProgram(m)
			if err != nil {
				t.Fatal(err)
			}
			tab, err := monitor.CompileTable(m)
			if err != nil {
				t.Fatal(err)
			}
			table := prog.NewEngine(nil, monitor.ModeDetect)
			if err := table.UseTable(tab); err != nil {
				t.Fatal(err)
			}
			eng := monitor.NewEngine(m, nil, monitor.ModeDetect)
			for i, s := range tc.trace() {
				got := table.Step(s).Outcome == monitor.Accepted
				want := eng.Step(s).Outcome == monitor.Accepted
				if got != want {
					t.Fatalf("tick %d: table=%v engine=%v", i, got, want)
				}
			}
			if table.Stats().Accepts == 0 {
				t.Error("no acceptances exercised")
			}
		})
	}
}

// randGuard builds a random guard over the support symbols and the
// scoreboard event pool.
func randGuard(r *rand.Rand, sup []event.Symbol, chkPool []string, depth int) expr.Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(6) {
		case 0:
			return expr.True
		case 1:
			return expr.False
		case 2, 3:
			sym := sup[r.Intn(len(sup))]
			if sym.Kind == event.KindEvent {
				return expr.Ev(sym.Name)
			}
			return expr.Pr(sym.Name)
		default:
			return expr.Chk(chkPool[r.Intn(len(chkPool))])
		}
	}
	switch r.Intn(3) {
	case 0:
		return expr.Not(randGuard(r, sup, chkPool, depth-1))
	case 1:
		return expr.And(randGuard(r, sup, chkPool, depth-1), randGuard(r, sup, chkPool, depth-1))
	default:
		return expr.Or(randGuard(r, sup, chkPool, depth-1), randGuard(r, sup, chkPool, depth-1))
	}
}

// randMonitor builds a random monitor over the support and scoreboard
// pool. A total one ends every state with a catch-all transition, so no
// input ever hard-resets it; a partial one may leave inputs uncovered.
func randMonitor(r *rand.Rand, sup []event.Symbol, chkPool []string, total bool) *monitor.Monitor {
	states := 3 + r.Intn(3)
	m := monitor.New("fuzz", "clk", states)
	randActions := func() []monitor.Action {
		var acts []monitor.Action
		for _, e := range chkPool {
			switch r.Intn(4) {
			case 0:
				acts = append(acts, monitor.Add(e))
			case 1:
				acts = append(acts, monitor.Del(e))
			}
		}
		return acts
	}
	for s := 0; s < states; s++ {
		n := 1 + r.Intn(3)
		for i := 0; i < n; i++ {
			m.AddTransition(s, monitor.Transition{
				To:      r.Intn(states),
				Guard:   randGuard(r, sup, chkPool, 3),
				Actions: randActions(),
			})
		}
		if total {
			m.AddTransition(s, monitor.Transition{
				To:      r.Intn(states),
				Guard:   expr.True,
				Actions: randActions(),
			})
		}
	}
	return m
}

// TestDifferentialEngines cross-checks independent implementations of
// the paper's transition relation Tr over random monitors and random
// tick streams, in detect and in assert mode: the interpreted AST
// engine, the compiled guard-program engine (both the map-input Step and
// the vocabulary-packed StepPacked path, the latter exercising slot
// remapping), and the table-bound program engine. Half the monitors are
// partial, so hard resets (and the reversal of pending Add_evt entries
// they trigger) are exercised too. Verdicts, automaton states, accept
// counts, and scoreboard contents must agree tick for tick.
func TestDifferentialEngines(t *testing.T) {
	supSyms := []event.Symbol{
		{Name: "a", Kind: event.KindEvent},
		{Name: "b", Kind: event.KindEvent},
		{Name: "c", Kind: event.KindEvent},
		{Name: "p", Kind: event.KindProp},
	}
	chkPool := []string{"x", "y"}
	r := rand.New(rand.NewSource(42))
	assertViolations := 0
	for iter := 0; iter < 300; iter++ {
		total := iter%2 == 0
		m := randMonitor(r, supSyms, chkPool, total)
		prog, err := monitor.CompileProgram(m)
		if err != nil {
			t.Fatalf("iter %d: CompileProgram: %v", iter, err)
		}
		tab, err := monitor.CompileTable(m)
		if err != nil {
			t.Fatalf("iter %d: CompileTable: %v", iter, err)
		}
		// Vocabulary with padding symbols declared first, so the packed
		// slot space differs from the support's and remapping is real.
		vocab := event.NewVocabulary()
		vocab.MustDeclare("pad0", event.KindEvent)
		vocab.MustDeclare("pad1", event.KindProp)
		if err := vocab.DeclareSupport(prog.Support()); err != nil {
			t.Fatalf("iter %d: DeclareSupport: %v", iter, err)
		}

		for _, mode := range []monitor.Mode{monitor.ModeDetect, monitor.ModeAssert} {
			ast := monitor.NewEngine(m, nil, mode)
			pmap := prog.NewEngine(nil, mode)
			ppacked, err := prog.NewEngineVocab(nil, mode, vocab)
			if err != nil {
				t.Fatalf("iter %d: NewEngineVocab: %v", iter, err)
			}
			ptable := prog.NewEngine(nil, mode)
			if err := ptable.UseTable(tab); err != nil {
				t.Fatalf("iter %d: UseTable: %v", iter, err)
			}
			engines := map[string]*monitor.Engine{"prog": pmap, "packed": ppacked, "table-engine": ptable}

			var buf event.Packed
			for tick := 0; tick < 120; tick++ {
				s := event.NewState()
				for _, sym := range supSyms {
					if r.Intn(2) == 0 {
						continue
					}
					if sym.Kind == event.KindEvent {
						s.Events[sym.Name] = true
					} else {
						s.Props[sym.Name] = true
					}
				}
				ra := ast.Step(s)
				buf = vocab.PackInto(s, buf)
				got := map[string]monitor.StepResult{
					"prog":         pmap.Step(s),
					"packed":       ppacked.StepPacked(buf),
					"table-engine": ptable.Step(s),
				}
				for name, rb := range got {
					if rb != ra {
						t.Fatalf("iter %d mode %d tick %d: %s step diverged on %s:\n ast=%+v\n %s=%+v\nmonitor:\n%s",
							iter, mode, tick, name, s, ra, name, rb, m)
					}
				}
				for _, e := range chkPool {
					na := ast.Scoreboard().Count(e)
					for name, eng := range engines {
						if n := eng.Scoreboard().Count(e); n != na {
							t.Fatalf("iter %d mode %d tick %d: scoreboard[%s] ast=%d %s=%d", iter, mode, tick, e, na, name, n)
						}
					}
				}
			}
			for name, eng := range engines {
				if eng.Stats() != ast.Stats() {
					t.Fatalf("iter %d mode %d: %s stats %+v, ast %+v", iter, mode, name, eng.Stats(), ast.Stats())
				}
			}
			if mode == monitor.ModeAssert {
				assertViolations += ast.Stats().Violations
			}
		}
	}
	if assertViolations == 0 {
		t.Fatal("no assert-mode violation raised; the assert half compared nothing")
	}
}
