package monitor

import (
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/expr"
)

func TestDiagnosticsCaptureViolation(t *testing.T) {
	m := twoStep()
	e := NewEngine(m, nil, ModeAssert)
	e.EnableDiagnostics(4)
	e.Step(st("x1")) // noise (stays at 0)
	e.Step(st("x2")) // noise
	e.Step(st("a"))  // anchor: progress to 1
	e.Step(st())     // abandon: violation
	diags := e.Diagnostics()
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %d, want 1", len(diags))
	}
	d := diags[0]
	if d.Tick != 3 || d.FromState != 1 {
		t.Errorf("diag tick/state = %d/%d, want 3/1", d.Tick, d.FromState)
	}
	if !d.Input.IsEmpty() {
		t.Errorf("offending input = %v, want empty", d.Input)
	}
	if len(d.Recent) != 3 {
		t.Fatalf("recent window = %d entries, want 3", len(d.Recent))
	}
	// Oldest first: x1, x2, a.
	if !d.Recent[0].Event("x1") || !d.Recent[2].Event("a") {
		t.Errorf("recent window wrong order: %v", d.Recent)
	}
	s := d.String()
	for _, want := range []string{"violation at tick 3", "offending input", "{a}"} {
		if !strings.Contains(s, want) {
			t.Errorf("diag string missing %q:\n%s", want, s)
		}
	}
}

func TestDiagnosticsScoreboardSnapshot(t *testing.T) {
	m := twoStep()
	e := NewEngine(m, nil, ModeAssert)
	e.EnableDiagnostics(2)
	e.Step(st("a")) // Add_evt(a) fires
	// Manually add an extra entry so the snapshot shows live state even
	// though the violation's Del reverses "a".
	e.Scoreboard().Add(0, "zombie")
	e.Step(st())
	diags := e.Diagnostics()
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %d", len(diags))
	}
	found := false
	for _, entry := range diags[0].Scoreboard {
		if entry == "zombie" {
			found = true
		}
	}
	if !found {
		t.Errorf("scoreboard snapshot = %v, want to include zombie", diags[0].Scoreboard)
	}
}

func TestDiagnosticsDisabled(t *testing.T) {
	m := twoStep()
	e := NewEngine(m, nil, ModeAssert)
	e.Step(st("a"))
	e.Step(st())
	if e.Diagnostics() != nil {
		t.Error("diagnostics recorded while disabled")
	}
	e.EnableDiagnostics(0)
	if e.Diagnostics() != nil {
		t.Error("depth 0 should disable diagnostics")
	}
}

func TestDiagnosticsCapped(t *testing.T) {
	m := twoStep()
	e := NewEngine(m, nil, ModeAssert)
	e.EnableDiagnostics(2)
	for i := 0; i < maxDiagnostics*3; i++ {
		e.Step(st("a"))
		e.Step(st())
	}
	if got := len(e.Diagnostics()); got != maxDiagnostics {
		t.Errorf("retained %d diagnostics, want cap %d", got, maxDiagnostics)
	}
	if e.Stats().Violations != maxDiagnostics*3 {
		t.Errorf("violations = %d, want %d (counting continues past cap)",
			e.Stats().Violations, maxDiagnostics*3)
	}
}

func TestDiagnosticsHardResetViolation(t *testing.T) {
	// Partial monitor: uncovered input in a progressed state violates in
	// assert mode and must also produce a diagnostic.
	m := New("partial", "clk", 3)
	m.Linear = true
	m.AddTransition(0, Transition{To: 1, Guard: expr.Ev("x")})
	m.AddTransition(0, Transition{To: 0, Guard: expr.Not(expr.Ev("x"))})
	m.AddTransition(1, Transition{To: 2, Guard: expr.Ev("y")})
	e := NewEngine(m, nil, ModeAssert)
	e.EnableDiagnostics(3)
	e.Step(st("x"))
	e.Step(st("z"))
	diags := e.Diagnostics()
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %d, want 1", len(diags))
	}
	if diags[0].FromState != 1 {
		t.Errorf("from state = %d, want 1", diags[0].FromState)
	}
}

func TestDiagnosticsRingWrap(t *testing.T) {
	m := twoStep()
	e := NewEngine(m, nil, ModeAssert)
	e.EnableDiagnostics(2)
	// More noise than the ring holds before the violation.
	for i := 0; i < 5; i++ {
		e.Step(st("noise"))
	}
	e.Step(st("a"))
	e.Step(st())
	diags := e.Diagnostics()
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %d", len(diags))
	}
	if len(diags[0].Recent) != 1 {
		t.Fatalf("recent = %d entries, want 1 (depth 2 minus offender)", len(diags[0].Recent))
	}
	if !diags[0].Recent[0].Event("a") {
		t.Errorf("recent entry = %v, want the anchor", diags[0].Recent[0])
	}
}

// TestRestoredRingQuotedVerbatim: a snapshot's ring entries are restored
// as the map states they were written as, so a violation right after the
// restore quotes them unprojected — including symbols outside the
// engine's vocabulary — even though the restored engine steps packed.
func TestRestoredRingQuotedVerbatim(t *testing.T) {
	p, err := CompileProgram(provMonitor())
	if err != nil {
		t.Fatal(err)
	}
	v := event.NewVocabulary()
	if err := v.DeclareSupport(p.Support()); err != nil {
		t.Fatal(err)
	}
	newEng := func() *Engine {
		e, err := p.NewEngineVocab(nil, ModeDetect, v)
		if err != nil {
			t.Fatal(err)
		}
		e.EnableDiagnostics(3)
		return e
	}
	ref := newEng()
	ref.Step(st("a", "noise")) // 0 -> 1, quoting a symbol v lacks
	restored := newEng()
	if err := restored.Restore(ref.Snapshot()); err != nil {
		t.Fatal(err)
	}
	ref.Step(st()) // !b: violation
	restored.StepPacked(v.Pack(st()))
	got, want := restored.Diagnostics(), ref.Diagnostics()
	if len(want) != 1 || len(want[0].Recent) != 1 || !want[0].Recent[0].Event("noise") {
		t.Fatalf("reference diagnostics = %+v", want)
	}
	if g, w := diagJSON(t, got), diagJSON(t, want); g != w {
		t.Errorf("restored-ring diagnostics\n got %s\nwant %s", g, w)
	}
}
