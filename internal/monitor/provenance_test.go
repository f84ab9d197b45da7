package monitor

import (
	"encoding/json"
	"testing"

	"repro/internal/event"
	"repro/internal/expr"
)

// provMonitor builds a complete (total-guard) monitor with an explicit
// violation sink, scoreboard traffic, and guards deep enough to exercise
// program decompilation: and/or/not over events plus Chk_evt.
func provMonitor() *Monitor {
	m := New("prov", "clk", 4)
	m.Linear = true
	m.Final = 2
	m.Violation = 3
	// State 0: advance on a (or the x&&y alias); noise records tok.
	m.AddTransition(0, Transition{To: 1, Guard: expr.Or(expr.Ev("a"), expr.And(expr.Ev("x"), expr.Ev("y")))})
	m.AddTransition(0, Transition{To: 0,
		Guard:   expr.Not(expr.Or(expr.Ev("a"), expr.And(expr.Ev("x"), expr.Ev("y")))),
		Actions: []Action{Add("tok")}})
	// State 1: accept only when tok was seen; everything else violates.
	m.AddTransition(1, Transition{To: 2, Guard: expr.And(expr.Ev("b"), expr.Chk("tok")), Actions: []Action{Del("tok")}})
	m.AddTransition(1, Transition{To: 3, Guard: expr.And(expr.Ev("b"), expr.Not(expr.Chk("tok")))})
	m.AddTransition(1, Transition{To: 3, Guard: expr.Not(expr.Ev("b"))})
	// Final and sink re-arm unconditionally (the sink is never dwelt in:
	// engines reset to initial in the violating tick).
	m.AddTransition(2, Transition{To: 0, Guard: expr.True})
	m.AddTransition(3, Transition{To: 0, Guard: expr.True})
	return m
}

// provTrace drives two violations: first the chk-guard branch (b with no
// tok recorded), then the !b branch with tok live on the scoreboard.
func provTrace() []event.State {
	return []event.State{
		st("a"),      // 0 -> 1, no tok yet
		st("b"),      // b && !Chk(tok): violation 1
		st(),         // noise at 0, Add tok
		st("x", "y"), // alias advance 0 -> 1
		st(),         // !b: violation 2, tok live
		st("a"),      // 0 -> 1
		st("b"),      // accept (tok live), Del tok
	}
}

// diagJSON normalizes reports for cross-tier comparison.
func diagJSON(t *testing.T, diags []Diagnostic) string {
	t.Helper()
	b, err := json.Marshal(diags)
	if err != nil {
		t.Fatalf("marshal diagnostics: %v", err)
	}
	return string(b)
}

// TestProvenanceIdenticalAcrossTiers is the conformance-style check the
// observability plane promises: the interpreted engine, the compiled
// guard-program engine (map input and vocabulary-packed input), and the
// table-bound engine must emit byte-identical structured provenance for
// the same violations.
func TestProvenanceIdenticalAcrossTiers(t *testing.T) {
	m := provMonitor()
	trace := provTrace()
	const depth = 3

	// Tier 1: interpreted AST engine.
	interp := NewEngine(m, nil, ModeDetect)
	interp.EnableDiagnostics(depth)
	for _, s := range trace {
		interp.Step(s)
	}

	// Tier 2a: program engine fed map states.
	p, err := CompileProgram(m)
	if err != nil {
		t.Fatalf("CompileProgram: %v", err)
	}
	prog := p.NewEngine(nil, ModeDetect)
	prog.EnableDiagnostics(depth)
	for _, s := range trace {
		prog.Step(s)
	}

	// Tier 2b: program engine fed valuations packed with a session
	// vocabulary that is a strict superset of the support, so the remap
	// and diagnostic unpack paths are exercised.
	v := event.NewVocabulary()
	v.MustDeclare("unrelated", event.KindEvent)
	if err := v.DeclareSupport(p.Support()); err != nil {
		t.Fatalf("DeclareSupport: %v", err)
	}
	v.MustDeclare("trailing", event.KindProp)
	packed, err := p.NewEngineVocab(nil, ModeDetect, v)
	if err != nil {
		t.Fatalf("NewEngineVocab: %v", err)
	}
	packed.EnableDiagnostics(depth)
	for _, s := range trace {
		packed.StepPacked(v.Pack(s))
	}

	// Tier 3: program engine resolving fired transitions via the table.
	tab, err := CompileTable(m)
	if err != nil {
		t.Fatalf("CompileTable: %v", err)
	}
	table := p.NewEngine(nil, ModeDetect)
	if err := table.UseTable(tab); err != nil {
		t.Fatalf("UseTable: %v", err)
	}
	table.EnableDiagnostics(depth)
	for _, s := range trace {
		table.Step(s)
	}

	want := diagJSON(t, interp.Diagnostics())
	if len(interp.Diagnostics()) != 2 {
		t.Fatalf("interpreted tier recorded %d diagnostics, want 2:\n%s",
			len(interp.Diagnostics()), want)
	}
	for name, got := range map[string]string{
		"program":        diagJSON(t, prog.Diagnostics()),
		"program/packed": diagJSON(t, packed.Diagnostics()),
		"table":          diagJSON(t, table.Diagnostics()),
	} {
		if got != want {
			t.Errorf("%s tier provenance diverged:\n got %s\nwant %s", name, got, want)
		}
	}

	// Spot-check the provenance content itself.
	d := interp.Diagnostics()[0]
	if d.Monitor != "prov" || d.FromState != 1 || d.GridLine != 1 {
		t.Errorf("first violation site = %q state %d line %d", d.Monitor, d.FromState, d.GridLine)
	}
	if d.Guard != "b & !Chk_evt(tok)" {
		t.Errorf("first violation guard = %q", d.Guard)
	}
	if len(d.Guards) != 3 || d.Guards[0] != "b & Chk_evt(tok)" {
		t.Errorf("candidate guards = %v", d.Guards)
	}
	if len(d.Scoreboard) != 0 {
		t.Errorf("first violation scoreboard = %v, want empty", d.Scoreboard)
	}
	d2 := interp.Diagnostics()[1]
	if d2.Guard != "!b" || len(d2.Scoreboard) != 1 || d2.Scoreboard[0] != "tok" {
		t.Errorf("second violation guard/scoreboard = %q / %v", d2.Guard, d2.Scoreboard)
	}
	if d2.Valuation != 0 {
		t.Errorf("second violation valuation = %d, want 0 (empty input)", d2.Valuation)
	}
}

// TestGuardStringMatchesAST verifies the decompile-based rendering: every
// compiled guard, rendered purely from the program's slot names, equals
// the source AST's String().
func TestGuardStringMatchesAST(t *testing.T) {
	m := provMonitor()
	p, err := CompileProgram(m)
	if err != nil {
		t.Fatalf("CompileProgram: %v", err)
	}
	for s, ts := range m.Trans {
		for i, tr := range ts {
			if got, want := p.GuardString(s, i), tr.Guard.String(); got != want {
				t.Errorf("state %d trans %d: GuardString = %q, want %q", s, i, got, want)
			}
		}
	}
	if p.GuardString(-1, 0) != "" || p.GuardString(0, 99) != "" {
		t.Error("out-of-range GuardString should be empty")
	}
}

// TestProvenanceHardReset covers the no-guard-matched case: a partial
// monitor's uncovered input in assert mode reports an empty Guard and
// the full candidate list that all evaluated false.
func TestProvenanceHardReset(t *testing.T) {
	m := New("partial", "clk", 3)
	m.Linear = true
	m.AddTransition(0, Transition{To: 1, Guard: expr.Ev("x")})
	m.AddTransition(0, Transition{To: 0, Guard: expr.Not(expr.Ev("x"))})
	m.AddTransition(1, Transition{To: 2, Guard: expr.Ev("y")})

	p, err := CompileProgram(m)
	if err != nil {
		t.Fatalf("CompileProgram: %v", err)
	}
	for name, e := range map[string]*Engine{
		"interpreted": NewEngine(m, nil, ModeAssert),
		"program":     p.NewEngine(nil, ModeAssert),
	} {
		e.EnableDiagnostics(2)
		e.Step(st("x"))
		e.Step(st("z"))
		diags := e.Diagnostics()
		if len(diags) != 1 {
			t.Fatalf("%s: diagnostics = %d, want 1", name, len(diags))
		}
		d := diags[0]
		if d.Guard != "" {
			t.Errorf("%s: hard reset guard = %q, want empty", name, d.Guard)
		}
		if len(d.Guards) != 1 || d.Guards[0] != "y" {
			t.Errorf("%s: candidate guards = %v, want [y]", name, d.Guards)
		}
	}
}

// TestDiagnosticsRingDropsOldest pins the bounded-ring retention: once
// the cap is reached new reports displace the oldest, so the retained
// window always ends at the most recent violation.
func TestDiagnosticsRingDropsOldest(t *testing.T) {
	m := twoStep()
	e := NewEngine(m, nil, ModeAssert)
	e.EnableDiagnostics(2)
	for i := 0; i < maxDiagnostics+5; i++ {
		e.Step(st("a"))
		e.Step(st())
	}
	diags := e.Diagnostics()
	if len(diags) != maxDiagnostics {
		t.Fatalf("retained %d, want %d", len(diags), maxDiagnostics)
	}
	// Violations fire on every second step (odd ticks 1, 3, 5, ...); the
	// newest retained report must be the final violation.
	lastTick := (maxDiagnostics+5)*2 - 1
	if got := diags[len(diags)-1].Tick; got != lastTick {
		t.Errorf("newest retained tick = %d, want %d", got, lastTick)
	}
	if got := diags[0].Tick; got != lastTick-2*(maxDiagnostics-1) {
		t.Errorf("oldest retained tick = %d, want %d", got, lastTick-2*(maxDiagnostics-1))
	}
}
