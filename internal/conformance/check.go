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
//   - the three execution tiers (interpreted engine, compiled
//     guard-program engine via both the map and packed step paths, and —
//     when the monitor's shape admits it — the engine resolving fired
//     transitions in the precomputed table) must produce identical
//     accept-tick sequences;
//   - the semantics oracle sandwiches the monitor per chart class:
//     pattern-shaped charts get the exact-matcher equality and the
//     history-abstraction subset bounds, NFA-shaped charts get exact
//     equality, implications get the first-match subset bound.
func checkChart(c chart.Chart, tr trace.Trace) *Divergence {
	m, err := synth.Synthesize(c, nil)
	if err != nil {
		return &Divergence{Kind: "synth-error", Detail: err.Error()}
	}

	interp := acceptTicks(monitor.NewEngine(m, nil, monitor.ModeDetect).Step, tr)

	prog, err := monitor.CompileProgram(m)
	if err != nil {
		return &Divergence{Kind: "program-compile-error", Detail: err.Error()}
	}
	progTicks := acceptTicks(prog.NewEngine(nil, monitor.ModeDetect).Step, tr)
	if !sameInts(interp, progTicks) {
		return &Divergence{Kind: "tier-program",
			Detail: fmt.Sprintf("interp accepts %v, program accepts %v", interp, progTicks)}
	}

	packedEng := prog.NewEngine(nil, monitor.ModeDetect)
	sup := prog.Support()
	packed := acceptTicksResult(func(s event.State) monitor.StepResult {
		return packedEng.StepPacked(sup.Pack(s))
	}, tr)
	if !sameInts(interp, packed) {
		return &Divergence{Kind: "tier-packed",
			Detail: fmt.Sprintf("interp accepts %v, packed accepts %v", interp, packed)}
	}

	// The table-bound engine is the table path production runs: the same
	// engine with fired transitions looked up instead of scanned.
	if tab, err := monitor.CompileTable(m); err == nil {
		tblEng := prog.NewEngine(nil, monitor.ModeDetect)
		if err := tblEng.UseTable(tab); err != nil {
			return &Divergence{Kind: "table-bind-error", Detail: err.Error()}
		}
		tblTicks := acceptTicks(tblEng.Step, tr)
		if !sameInts(interp, tblTicks) {
			return &Divergence{Kind: "tier-table",
				Detail: fmt.Sprintf("interp accepts %v, table accepts %v", interp, tblTicks)}
		}
	}

	// The Compiled cursors LaneBank is checked against cannot reverse
	// pending scoreboard actions on a hard reset the way the engines do, so
	// lane accepts are only comparable with the engines when no hard reset
	// can occur (total monitor) or no actions exist to reverse.
	total, _ := m.Total()
	if d := laneCheck(m, tr, interp, total || !m.HasActions()); d != nil {
		return d
	}

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
				Detail: fmt.Sprintf("interp accepts %v, %s detector accepts %v", interp, det.Tier(), detTicks)}
		}
	}

	return oracleCheck(c, m, tr, interp)
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

// laneCheck cross-checks the bit-sliced lane tier. A full LaneBank fed
// the trace through uniform valuations must agree lane-for-lane — on
// accept bit, violation bit, and state — with 64 per-session Compiled
// cursors at every tick (that parity is unconditional: lanes mirror the
// full chk-bit and action-counter semantics of the table). Lane accept
// ticks are additionally compared against the interpreted engine only
// when comparable (no hard reset can undo pending adds, or none exist),
// since only then do the Compiled cursors match the engines. A second
// bank joins its lanes staggered, one per tick, so mid-stream membership
// churn is exercised against cursors created at the same offsets.
func laneCheck(m *monitor.Monitor, tr trace.Trace, interp []int, comparable bool) *Divergence {
	tbl, err := monitor.CompileTable(m)
	if err != nil {
		return nil // shape not table-compilable; the other tiers cover it
	}
	sup := tbl.Support()

	bank := monitor.NewLaneBank(tbl)
	refs := make([]*monitor.Compiled, 0, monitor.MaxLanes)
	for i := 0; i < monitor.MaxLanes; i++ {
		if _, ok := bank.Join(); !ok {
			return &Divergence{Kind: "lane-join",
				Detail: fmt.Sprintf("fresh bank refused lane %d", i)}
		}
		refs = append(refs, tbl.NewInstance())
	}
	var laneAccepts []int
	for tick, st := range tr {
		acceptMask, violMask := bank.StepUniform(uint64(sup.Valuation(st)))
		for l, c := range refs {
			prevViol := c.Violations()
			accepted := c.Step(st)
			if got := acceptMask>>uint(l)&1 == 1; got != accepted {
				return &Divergence{Kind: "lane-vs-compiled",
					Detail: fmt.Sprintf("tick %d lane %d: lane accept %v, compiled %v", tick, l, got, accepted)}
			}
			if got := violMask>>uint(l)&1 == 1; got != (c.Violations() > prevViol) {
				return &Divergence{Kind: "lane-vs-compiled",
					Detail: fmt.Sprintf("tick %d lane %d: violation bit mismatch", tick, l)}
			}
			if bank.State(l) != c.State() {
				return &Divergence{Kind: "lane-vs-compiled",
					Detail: fmt.Sprintf("tick %d lane %d: state %d, compiled %d", tick, l, bank.State(l), c.State())}
			}
		}
		if acceptMask&1 == 1 {
			laneAccepts = append(laneAccepts, tick)
		}
	}
	if comparable && !sameInts(interp, laneAccepts) {
		return &Divergence{Kind: "tier-lane",
			Detail: fmt.Sprintf("interp accepts %v, lane accepts %v", interp, laneAccepts)}
	}

	stag := monitor.NewLaneBank(tbl)
	joined := make([]*monitor.Compiled, 0, monitor.MaxLanes)
	for tick, st := range tr {
		if tick < monitor.MaxLanes {
			if _, ok := stag.Join(); !ok {
				return &Divergence{Kind: "lane-join",
					Detail: fmt.Sprintf("staggered bank refused lane %d", tick)}
			}
			joined = append(joined, tbl.NewInstance())
		}
		acceptMask, _ := stag.StepUniform(uint64(sup.Valuation(st)))
		for l, c := range joined {
			accepted := c.Step(st)
			if got := acceptMask>>uint(l)&1 == 1; got != accepted {
				return &Divergence{Kind: "lane-staggered",
					Detail: fmt.Sprintf("tick %d lane %d (joined at %d): lane accept %v, compiled %v",
						tick, l, l, got, accepted)}
			}
		}
	}
	return nil
}

// acceptTicks runs one engine step function over the trace and returns
// the 0-based ticks at which it accepted.
func acceptTicks(step func(event.State) monitor.StepResult, tr trace.Trace) []int {
	return acceptTicksResult(step, tr)
}

func acceptTicksResult(step func(event.State) monitor.StepResult, tr trace.Trace) []int {
	var out []int
	for i, s := range tr {
		if step(s).Outcome == monitor.Accepted {
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
