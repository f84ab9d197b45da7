package mine

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/event"
	"repro/internal/expr"
	"repro/internal/monitor"
	"repro/internal/semantics"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Result reports the validation gate's verdict for one mined chart.
// A chart passes only when (a) both views compile, (b) the assert view
// sees zero violations over the source corpus in every comparable
// execution tier and in the reference-semantics oracle (soundness on
// the corpus), (c) the scenario view's accepts agree across tiers,
// stay inside the oracle's end ticks, and are non-empty, and (d) the
// assert monitor flags at least MinKill of the constructed near-miss
// mutants (non-vacuity).
type Result struct {
	Name string `json:"name"`
	Pass bool   `json:"pass"`
	// Reason is the first gate failure ("" when passing).
	Reason string `json:"reason,omitempty"`
	// Accepts counts scenario-view accepts over the corpus.
	Accepts int `json:"accepts"`
	// Violations counts assert-view violations over the corpus
	// (interpreted engine; must be 0 to pass).
	Violations int `json:"violations"`
	// OracleViolations counts reference-semantics violations (must be 0).
	OracleViolations int `json:"oracle_violations"`
	// Mutants and Killed describe the discrimination check.
	Mutants int `json:"mutants"`
	Killed  int `json:"killed"`
	// Divergent marks a failure of tier parity or of the oracle sandwich
	// — a bug in the execution stack, not a property of the mined chart.
	// The conformance harness escalates these; ordinary gate rejections
	// (violations on the corpus, weak kill rate) it does not.
	Divergent bool `json:"divergent,omitempty"`
}

// KillRate returns the fraction of mutants flagged (1 when none built).
func (r *Result) KillRate() float64 {
	if r.Mutants == 0 {
		return 1
	}
	return float64(r.Killed) / float64(r.Mutants)
}

func (r *Result) fail(format string, args ...any) *Result {
	if r.Reason == "" {
		r.Reason = fmt.Sprintf(format, args...)
	}
	r.Pass = false
	return r
}

// segmentsFor resolves the segment set a mined chart was derived from.
func (c *Corpus) segmentsFor(domain string) []trace.Trace {
	if domain != "" {
		return c.Domains[domain]
	}
	return c.Segments
}

// Validate runs the full gate for one mined chart against its source
// corpus.
func Validate(m *Mined, c *Corpus, cfg Config) *Result {
	cfg = cfg.withDefaults()
	segs := c.segmentsFor(m.Domain)
	res := &Result{Name: m.Name}

	scenMon, err := synth.Synthesize(m.Scenario, nil)
	if err != nil {
		return res.fail("scenario does not compile: %v", err)
	}
	assertMon, err := synth.Synthesize(m.Assert, nil)
	if err != nil {
		return res.fail("assert view does not compile: %v", err)
	}
	scenProg, err := monitor.CompileProgram(scenMon)
	if err != nil {
		return res.fail("scenario program compile: %v", err)
	}
	assertProg, err := monitor.CompileProgram(assertMon)
	if err != nil {
		return res.fail("assert program compile: %v", err)
	}

	// The table-bound engines are the table path production runs; they
	// join the differential whenever the monitor fits the table compiler.
	scenTable := tableEngine(scenMon, scenProg)
	assertTable := tableEngine(assertMon, assertProg)

	for si, seg := range segs {
		// Scenario view: accept ticks must agree across tiers and stay
		// inside what the reference semantics justifies.
		interp := stepTicks(monitor.NewEngine(scenMon, nil, monitor.ModeDetect).Step, seg, monitor.Accepted)
		prog := stepTicks(scenProg.NewEngine(nil, monitor.ModeDetect).Step, seg, monitor.Accepted)
		if !equalInts(interp, prog) {
			res.Divergent = true
			return res.fail("segment %d: scenario tier divergence interp=%v program=%v", si, interp, prog)
		}
		packedEng := scenProg.NewEngine(nil, monitor.ModeDetect)
		sup := scenProg.Support()
		packed := stepTicks(func(s event.State) monitor.StepResult {
			return packedEng.StepPacked(sup.Pack(s))
		}, seg, monitor.Accepted)
		if !equalInts(interp, packed) {
			res.Divergent = true
			return res.fail("segment %d: scenario tier divergence interp=%v packed=%v", si, interp, packed)
		}
		if scenTable != nil {
			tblTicks := stepTicks(scenTable().Step, seg, monitor.Accepted)
			if !equalInts(interp, tblTicks) {
				res.Divergent = true
				return res.fail("segment %d: scenario tier divergence interp=%v table=%v", si, interp, tblTicks)
			}
		}
		o := semantics.NewOracle(seg)
		if d := missingFrom(interp, o.EndTicks(m.Scenario)); d >= 0 {
			res.Divergent = true
			return res.fail("segment %d: scenario accept at tick %d not justified by the oracle", si, d)
		}
		res.Accepts += len(interp)

		// Assert view: zero violations in every comparable tier and in
		// the oracle.
		aviol := stepTicks(monitor.NewEngine(assertMon, nil, monitor.ModeDetect).Step, seg, monitor.Violated)
		aprog := stepTicks(assertProg.NewEngine(nil, monitor.ModeDetect).Step, seg, monitor.Violated)
		if !equalInts(aviol, aprog) {
			res.Divergent = true
			return res.fail("segment %d: assert tier divergence interp=%v program=%v", si, aviol, aprog)
		}
		if assertTable != nil {
			tblViol := stepTicks(assertTable().Step, seg, monitor.Violated)
			if !equalInts(aviol, tblViol) {
				res.Divergent = true
				return res.fail("segment %d: assert tier divergence interp=%v table=%v", si, aviol, tblViol)
			}
		}
		res.Violations += len(aviol)
		res.OracleViolations += len(o.ImpliesViolations(m.Assert))
	}

	if res.Accepts == 0 {
		return res.fail("scenario never accepts on its own corpus")
	}
	if res.Violations > 0 {
		return res.fail("assert view violates its own corpus %d time(s)", res.Violations)
	}
	if res.OracleViolations > 0 {
		return res.fail("oracle reports %d violation(s) on the corpus", res.OracleViolations)
	}

	mutateAndCheck(m, segs, cfg, assertMon, res)
	if res.Reason != "" {
		return res
	}
	if res.Mutants == 0 {
		return res.fail("no near-miss mutants constructible (vacuous pattern)")
	}
	if res.KillRate() < cfg.MinKill {
		return res.fail("mutant kill rate %.2f below %.2f (%d/%d)",
			res.KillRate(), cfg.MinKill, res.Killed, res.Mutants)
	}
	res.Pass = true
	return res
}

// mutateAndCheck builds near-miss traces from the chart's own mining
// windows — one marker perturbed per mutant — and counts how many the
// assert monitor flags. Positive consequent markers are deleted at
// their offset, negated markers injected, and condition props flipped.
// A mutant only counts toward the denominator when the reference
// semantics agrees it is a violation, so engine kills are measured
// against semantically real near-misses.
func mutateAndCheck(m *Mined, segs []trace.Trace, cfg Config, assertMon *monitor.Monitor, res *Result) {
	L := len(m.Scenario.Lines)
	rng := rand.New(rand.NewSource(cfg.Seed))

	full := make([]anchorAt, 0, len(m.windows))
	for _, w := range m.windows {
		if w.tick+L <= len(segs[w.seg]) {
			full = append(full, w)
		}
	}
	if len(full) == 0 {
		return
	}

	type perturb struct {
		offset int
		apply  func(st event.State) bool // returns false when inapplicable
	}
	var perturbs []perturb
	for d := 1; d < L; d++ {
		line := m.Scenario.Lines[d]
		for _, es := range line.Events {
			ev := es.Event
			if es.Negated {
				perturbs = append(perturbs, perturb{offset: d, apply: func(st event.State) bool {
					if st.Events[ev] {
						return false
					}
					st.Events[ev] = true
					return true
				}})
			} else {
				perturbs = append(perturbs, perturb{offset: d, apply: func(st event.State) bool {
					if !st.Events[ev] {
						return false
					}
					delete(st.Events, ev)
					return true
				}})
			}
		}
		if line.Cond != nil {
			for _, sym := range exprProps(line.Cond) {
				p := sym
				perturbs = append(perturbs, perturb{offset: d, apply: func(st event.State) bool {
					st.Props[p] = !st.Props[p]
					return true
				}})
			}
		}
	}

	for _, pt := range perturbs {
		picks := sampleWindows(full, cfg.MutantsPerMarker, rng)
		for _, w := range picks {
			mut := cloneWindow(segs[w.seg], w.tick, L)
			if !pt.apply(mut[pt.offset]) {
				continue
			}
			if len(semantics.ImpliesViolations(m.Assert, mut)) == 0 {
				continue // perturbation happens to stay legal; not a near-miss
			}
			res.Mutants++
			viol := stepTicks(monitor.NewEngine(assertMon, nil, monitor.ModeDetect).Step, mut, monitor.Violated)
			if len(viol) > 0 {
				res.Killed++
			}
		}
	}
}

// exprProps lists the proposition symbols referenced by a condition.
func exprProps(e expr.Expr) []string {
	var out []string
	for _, s := range expr.SupportSymbols(e) {
		if s.Kind == event.KindProp {
			out = append(out, s.Name)
		}
	}
	sort.Strings(out)
	return out
}

// sampleWindows picks up to n windows via a seeded shuffle.
func sampleWindows(ws []anchorAt, n int, rng *rand.Rand) []anchorAt {
	if len(ws) <= n {
		return ws
	}
	idx := rng.Perm(len(ws))[:n]
	out := make([]anchorAt, n)
	for i, j := range idx {
		out[i] = ws[j]
	}
	return out
}

// cloneWindow deep-copies seg[tick : tick+n].
func cloneWindow(seg trace.Trace, tick, n int) trace.Trace {
	out := make(trace.Trace, n)
	for i := 0; i < n; i++ {
		src := seg[tick+i]
		st := event.NewState()
		for e, v := range src.Events {
			st.Events[e] = v
		}
		for p, v := range src.Props {
			st.Props[p] = v
		}
		out[i] = st
	}
	return out
}

// tableEngine compiles m's transition table once and returns a maker of
// fresh detect-mode program engines resolving through it; nil when m
// exceeds the table compiler's width.
func tableEngine(m *monitor.Monitor, p *monitor.Program) func() *monitor.Engine {
	tab, err := monitor.CompileTable(m)
	if err != nil {
		return nil
	}
	return func() *monitor.Engine {
		e := p.NewEngine(nil, monitor.ModeDetect)
		_ = e.UseTable(tab) // cannot fail: tab and p are compiled from m
		return e
	}
}

// stepTicks runs one engine step function over the trace and returns the
// ticks producing the wanted outcome.
func stepTicks(step func(event.State) monitor.StepResult, tr trace.Trace, want monitor.Outcome) []int {
	var out []int
	for i, s := range tr {
		if step(s).Outcome == want {
			out = append(out, i)
		}
	}
	return out
}

func equalInts(a, b []int) bool {
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

// missingFrom returns the first element of sub absent from super, or -1.
func missingFrom(sub, super []int) int {
	in := make(map[int]bool, len(super))
	for _, t := range super {
		in[t] = true
	}
	for _, t := range sub {
		if !in[t] {
			return t
		}
	}
	return -1
}
