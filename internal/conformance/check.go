package conformance

import (
	"fmt"

	"repro/internal/chart"
	"repro/internal/event"
	"repro/internal/monitor"
	"repro/internal/semantics"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/verif"
)

// checkChart runs the whole differential stack for one (chart, trace)
// pair and returns a non-nil divergence when any two parties disagree:
//
//   - in detect and in assert mode, the execution tiers (interpreted
//     engine, compiled guard-program engine via both the map and packed
//     step paths, and — when the monitor fits the table compiler — the
//     engine resolving fired transitions in the precomputed table) must
//     report their mode's verdict at identical ticks (see tierCheck);
//   - the semantics oracle sandwiches the monitor per chart class:
//     pattern-shaped charts get the exact-matcher equality and the
//     history-abstraction subset bounds, NFA-shaped charts get exact
//     equality, implications get the first-match subset bound.
//
// violated reports whether the assert-mode run raised at least one
// violation, so a campaign can show its assert checks were not vacuous.
func checkChart(c chart.Chart, tr trace.Trace) (d *Divergence, violated bool) {
	m, err := synth.Synthesize(c, nil)
	if err != nil {
		return &Divergence{Kind: "synth-error", Detail: err.Error()}, false
	}
	prog, err := monitor.CompileProgram(m)
	if err != nil {
		return &Divergence{Kind: "program-compile-error", Detail: err.Error()}, false
	}
	// A monitor too wide for the table compiler has no table tier.
	tab, _ := monitor.CompileTable(m)

	interp, d := tierCheck(m, prog, tab, tr, monitor.ModeDetect)
	if d != nil {
		return d, false
	}
	violations, d := tierCheck(m, prog, tab, tr, monitor.ModeAssert)
	if d != nil {
		return d, false
	}
	violated = len(violations) > 0

	// The tiered detector must agree with whichever tier it selected.
	if det, err := verif.NewDetector(m); err == nil {
		detTicks := acceptTicks(func(s event.State) monitor.StepResult {
			if det.StepDetect(s) {
				return monitor.StepResult{Outcome: monitor.Accepted}
			}
			return monitor.StepResult{}
		}, tr)
		if !sameInts(interp, detTicks) {
			return &Divergence{Kind: "tier-detector",
				Detail: fmt.Sprintf("interp accepts %v, %s detector accepts %v", interp, det.Tier(), detTicks)}, violated
		}
	}

	return oracleCheck(c, m, tr, interp), violated
}

// tierCheck steps every execution tier over tr in mode and requires the
// mode's verdict (accepts in detect, violations in assert) at the same
// ticks as the interpreted engine, whose ticks it returns. The tiers are
// the paths production runs: the program engine's map Step, its packed
// StepPacked (with diagnostics armed in assert mode, as assert sessions
// run it), and, when tab is non-nil, the table-bound engine.
// Disagreements are "tier-<tier>" divergences in detect mode and
// "assert-tier-<tier>" in assert mode.
func tierCheck(m *monitor.Monitor, prog *monitor.Program, tab *monitor.Table, tr trace.Trace, mode monitor.Mode) ([]int, *Divergence) {
	verdict, kind, verb := monitor.Accepted, "tier-", "accepts"
	if mode == monitor.ModeAssert {
		verdict, kind, verb = monitor.Violated, "assert-tier-", "violates"
	}
	want := outcomeTicks(monitor.NewEngine(m, nil, mode).Step, tr, verdict)

	packedEng := prog.NewEngine(nil, mode)
	if mode == monitor.ModeAssert {
		packedEng.EnableDiagnostics(4)
	}
	sup := prog.Support()
	type tier struct {
		name string
		step func(event.State) monitor.StepResult
	}
	tiers := []tier{
		{"program", prog.NewEngine(nil, mode).Step},
		{"packed", func(s event.State) monitor.StepResult { return packedEng.StepPacked(sup.Pack(s)) }},
	}
	if tab != nil {
		tblEng := prog.NewEngine(nil, mode)
		if err := tblEng.UseTable(tab); err != nil {
			return nil, &Divergence{Kind: "table-bind-error", Detail: err.Error()}
		}
		tiers = append(tiers, tier{"table", tblEng.Step})
	}
	for _, t := range tiers {
		if got := outcomeTicks(t.step, tr, verdict); !sameInts(want, got) {
			return nil, &Divergence{Kind: kind + t.name,
				Detail: fmt.Sprintf("interp %s %v, %s %s %v", verb, want, t.name, verb, got)}
		}
	}
	return want, nil
}

// oracleCheck sandwiches the monitor's accept ticks between what the
// reference semantics requires and permits, with bounds chosen per chart
// class (see package comment).
func oracleCheck(c chart.Chart, m *monitor.Monitor, tr trace.Trace, accepts []int) *Divergence {
	o := semantics.NewOracle(tr)
	want := o.EndTicks(c)

	if imp, ok := c.(*chart.Implies); ok {
		// The implication monitor commits to the first consequent start
		// (first-match semantics), so it accepts a subset of the oracle's
		// end ticks; every accept must still be semantically justified.
		if d := subsetOf(accepts, want, "implies-unsound"); d != nil {
			return d
		}
		_ = imp
		return nil
	}

	if p, ok := synth.WindowPattern(c); ok {
		// Pattern-shaped: the reference matcher is exact by construction
		// and must reproduce the oracle end ticks verbatim.
		exact := exactTicks(p, tr)
		if !sameInts(exact, want) {
			return &Divergence{Kind: "exact-vs-oracle",
				Detail: fmt.Sprintf("exact matcher ends %v, oracle ends %v", exact, want)}
		}
		// The default history abstraction (HistImplication) is sound:
		// every accept corresponds to a real window end.
		if d := subsetOf(accepts, want, "pattern-unsound"); d != nil {
			return d
		}
		orth, orthErr := p.Orthogonal()
		// On orthogonal patterns the abstraction is exact; causality Chk
		// guards can only act within a committed window there, so arrows
		// do not perturb acceptance.
		if orthErr == nil && orth && arrowFree(c) {
			if !sameInts(accepts, want) {
				return &Divergence{Kind: "orthogonal-incomplete",
					Detail: fmt.Sprintf("monitor accepts %v, oracle ends %v", accepts, want)}
			}
		}
		// The satisfiability abstraction over-approximates guard histories,
		// but the engine underneath is still deterministic first-match: a
		// tick that both ends one window and starts the next is consumed by
		// the finishing window, so on non-orthogonal patterns a real match
		// sharing its first tick with a completed window is missed (see
		// testdata/regressions/sat-incomplete-s9-c27). Coverage of every
		// oracle end is therefore only guaranteed on orthogonal, arrow-free
		// patterns (arrows because Chk guards can shrink the accept set
		// independently of the history abstraction).
		if orthErr == nil && orth && arrowFree(c) {
			msat, err := synth.Synthesize(c, &synth.Options{History: synth.HistSatisfiable})
			if err != nil {
				return &Divergence{Kind: "synth-sat-error", Detail: err.Error()}
			}
			sat := acceptTicks(monitor.NewEngine(msat, nil, monitor.ModeDetect).Step, tr)
			if d := subsetOf(want, sat, "sat-incomplete"); d != nil {
				d.Detail = fmt.Sprintf("oracle ends %v not covered by HistSatisfiable accepts %v", want, sat)
				return d
			}
		}
		return nil
	}

	// NFA-shaped (contains Alt/Loop or a non-mergeable Par): subset
	// construction tracks every live window, so acceptance is exact.
	if !sameInts(accepts, want) {
		return &Divergence{Kind: "nfa-vs-oracle",
			Detail: fmt.Sprintf("monitor accepts %v, oracle ends %v", accepts, want)}
	}
	return nil
}

// acceptTicks runs one engine step function over the trace and returns
// the 0-based ticks at which it accepted.
func acceptTicks(step func(event.State) monitor.StepResult, tr trace.Trace) []int {
	return outcomeTicks(step, tr, monitor.Accepted)
}

// outcomeTicks returns the 0-based ticks at which step reported o.
func outcomeTicks(step func(event.State) monitor.StepResult, tr trace.Trace, o monitor.Outcome) []int {
	var out []int
	for i, s := range tr {
		if step(s).Outcome == o {
			out = append(out, i)
		}
	}
	return out
}

// exactTicks runs the exact pattern matcher and returns the ticks where
// some window ends.
func exactTicks(p synth.Pattern, tr trace.Trace) []int {
	return synth.NewExactMatcher(p).MatchesIn(tr)
}

// arrowFree reports whether no SCESC leaf of c declares causality
// arrows.
func arrowFree(c chart.Chart) bool {
	for _, sc := range chart.Leaves(c) {
		if len(sc.Arrows) > 0 {
			return false
		}
	}
	return true
}

// subsetOf returns a divergence when some element of sub is missing from
// super.
func subsetOf(sub, super []int, kind string) *Divergence {
	in := make(map[int]bool, len(super))
	for _, t := range super {
		in[t] = true
	}
	for _, t := range sub {
		if !in[t] {
			return &Divergence{Kind: kind,
				Detail: fmt.Sprintf("tick %d accepted but not justified (accepts %v, reference %v)", t, sub, super)}
		}
	}
	return nil
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
