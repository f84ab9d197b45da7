package verif

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/event"
	"repro/internal/expr"
	"repro/internal/monitor"
	"repro/internal/ocp"
	"repro/internal/synth"
)

// wideMonitor builds a monitor whose support is `width` distinct events —
// past the table compiler's maxCompileBits the 2^bits table is
// impossible, which is exactly the shape the program tier exists for.
func wideMonitor(width int) *monitor.Monitor {
	m := monitor.New("wide", "clk", 3)
	evs := make([]expr.Expr, width)
	names := make([]string, width)
	for i := range evs {
		names[i] = fmt.Sprintf("w%02d", i)
		evs[i] = expr.Ev(names[i])
	}
	// 0 -> 1 when any of the first half occurs, 1 -> 2 (accept) when any
	// of the second half occurs; stutter otherwise.
	m.AddTransition(0, monitor.Transition{To: 1, Guard: expr.Or(evs[:width/2]...)})
	m.AddTransition(0, monitor.Transition{To: 0, Guard: expr.True})
	m.AddTransition(1, monitor.Transition{To: 2, Guard: expr.Or(evs[width/2:]...)})
	m.AddTransition(1, monitor.Transition{To: 1, Guard: expr.True})
	m.AddTransition(2, monitor.Transition{To: 0, Guard: expr.True})
	return m
}

// TestDetectorTiers checks NewDetector picks the strongest tier the
// monitor admits: table for narrow synthesized monitors, the program
// engine when the support exceeds the table compile limit, and the
// interpreted engine when even program compilation is impossible.
func TestDetectorTiers(t *testing.T) {
	m, err := synth.Synthesize(ocp.SimpleReadChart(), nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDetector(m)
	if err != nil {
		t.Fatal(err)
	}
	if d.Tier() != TierTable {
		t.Errorf("narrow monitor tier = %v, want table", d.Tier())
	}

	wide := wideMonitor(24)
	if _, err := monitor.CompileTable(wide); err == nil {
		t.Fatal("24-bit support unexpectedly fit the table compiler")
	}
	d, err = NewDetector(wide)
	if err != nil {
		t.Fatal(err)
	}
	if d.Tier() != TierProgram {
		t.Errorf("wide monitor tier = %v, want program", d.Tier())
	}

	// A guard needing more stack than expr.MaxProgramDepth defeats the
	// program compiler too; the detector must still come up, interpreted.
	deep := wideMonitor(expr.MaxProgramDepth + 2)
	if _, err := monitor.CompileProgram(deep); err == nil {
		t.Fatal("over-deep guard unexpectedly compiled to a program")
	}
	d, err = NewDetector(deep)
	if err != nil {
		t.Fatal(err)
	}
	if d.Tier() != TierInterp {
		t.Errorf("over-deep monitor tier = %v, want interpreted", d.Tier())
	}
}

// TestDetectorWideParity: on a support too wide for the table tier, the
// program-backed detector must agree tick for tick with the interpreted
// reference engine.
func TestDetectorWideParity(t *testing.T) {
	wide := wideMonitor(24)
	d, err := NewDetector(wide)
	if err != nil {
		t.Fatal(err)
	}
	if d.Tier() != TierProgram {
		t.Fatalf("tier = %v, want program", d.Tier())
	}
	ref := monitor.NewEngine(wide, nil, monitor.ModeDetect)
	r := rand.New(rand.NewSource(7))
	for tick := 0; tick < 5000; tick++ {
		s := event.NewState()
		// Sparse ticks with occasional bursts, so both halves of the
		// guard disjunction and the stutter paths are all exercised.
		for i := 0; i < 24; i++ {
			if r.Intn(24) == 0 {
				s.Events[fmt.Sprintf("w%02d", i)] = true
			}
		}
		got := d.StepDetect(s)
		want := ref.Step(s).Outcome == monitor.Accepted
		if got != want {
			t.Fatalf("tick %d: detector=%v reference=%v on %s", tick, got, want, s)
		}
	}
	if d.Accepts() == 0 {
		t.Error("no acceptances exercised")
	}
	if d.Accepts() != ref.Stats().Accepts {
		t.Errorf("accepts: detector=%d reference=%d", d.Accepts(), ref.Stats().Accepts)
	}
}

// TestDetectorHardResetParity is the regression for the table tier's
// hard reset: a match abandoned on an uncovered input must undo its
// Add_evt (the paper's Tr), so a later Chk_evt guard cannot see it. The
// monitor records x on a, abandons on an empty tick (state 1 covers only
// b), then offers Chk_evt(x) & c — which must not fire.
func TestDetectorHardResetParity(t *testing.T) {
	m := monitor.New("hard-reset", "clk", 3)
	m.AddTransition(0, monitor.Transition{To: 1, Guard: expr.Ev("a"), Actions: []monitor.Action{monitor.Add("x")}})
	m.AddTransition(0, monitor.Transition{To: 2, Guard: expr.And(expr.Chk("x"), expr.Ev("c"))})
	m.AddTransition(0, monitor.Transition{To: 0, Guard: expr.True})
	m.AddTransition(1, monitor.Transition{To: 2, Guard: expr.Ev("b")})
	m.AddTransition(2, monitor.Transition{To: 0, Guard: expr.True})

	d, err := NewDetector(m)
	if err != nil {
		t.Fatal(err)
	}
	if d.Tier() != TierTable {
		t.Fatalf("tier = %v, want table", d.Tier())
	}
	ref := monitor.NewEngine(m, nil, monitor.ModeDetect)
	tr := []event.State{event.NewState(), event.NewState(), event.NewState()}
	tr[0].Events["a"] = true
	tr[2].Events["c"] = true
	for tick, s := range tr {
		got := d.StepDetect(s)
		want := ref.Step(s).Outcome == monitor.Accepted
		if got != want {
			t.Fatalf("tier %v tick %d: detector %v, reference %v", d.Tier(), tick, got, want)
		}
	}
	if d.Accepts() != ref.Stats().Accepts {
		t.Fatalf("accepts: detector %d, reference %d", d.Accepts(), ref.Stats().Accepts)
	}
}
