// Package monitor implements the paper's assertion monitor: a finite
// automaton <Q, Sigma, delta, s0, sf> whose transitions are labelled
// exp/act — a logical expression over EVENTS and PROP (including the
// scoreboard predicate Chk_evt) plus scoreboard actions Add_evt / Del_evt.
// Transitions are instantaneous and separated by single clock ticks,
// following the synchronous model. A sequence of transitions from the
// initial to the final state is an accepting run; the corresponding input
// trace is a finite word of the monitor's language.
package monitor

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/event"
	"repro/internal/expr"
)

// ActionKind distinguishes scoreboard operations.
type ActionKind int

const (
	// ActAdd is the paper's Add_evt: record event occurrences.
	ActAdd ActionKind = iota
	// ActDel is the paper's Del_evt: erase recorded occurrences (used on
	// backward transitions to reverse Add_evt actions of the abandoned
	// forward path).
	ActDel
)

// String returns Add_evt or Del_evt.
func (k ActionKind) String() string {
	if k == ActAdd {
		return "Add_evt"
	}
	return "Del_evt"
}

// Action is one scoreboard operation over a set of events.
type Action struct {
	Kind   ActionKind
	Events []string
	// Sticky marks Add_evt entries that record genuine cross-domain
	// event occurrences: they are not reversed when the engine abandons
	// the local window (see synth.InstrumentCrossDomain).
	Sticky bool
}

// String renders e.g. "Add_evt(MCmdRd, Burst4)".
func (a Action) String() string {
	return fmt.Sprintf("%s(%s)", a.Kind, strings.Join(a.Events, ", "))
}

// Add returns an Add_evt action.
func Add(events ...string) Action { return Action{Kind: ActAdd, Events: events} }

// Del returns a Del_evt action.
func Del(events ...string) Action { return Action{Kind: ActDel, Events: events} }

// Transition is one guarded edge of the monitor automaton.
type Transition struct {
	To      int
	Guard   expr.Expr
	Actions []Action
}

// String renders "-> 3 on a / Add_evt(e1)".
func (t Transition) String() string {
	s := fmt.Sprintf("-> %d on %s", t.To, t.Guard)
	for _, a := range t.Actions {
		s += " / " + a.String()
	}
	return s
}

// NoState marks an absent optional state (e.g. no violation state).
const NoState = -1

// Monitor is the synthesized automaton. States are integers 0..States-1;
// by the paper's construction for an SCESC of n ticks, States = n+1 with
// Initial = 0 and Final = n. Composition operators may introduce an
// explicit Violation sink for assertion mode.
type Monitor struct {
	Name   string
	Clock  string
	States int
	// Initial and Final are the paper's s0 and sf.
	Initial, Final int
	// Finals optionally lists additional accepting states produced by
	// composition (subset construction can yield several); when nil the
	// single Final applies.
	Finals []int
	// Linear marks monitors whose states are ordered by match progress
	// (the direct SCESC translation); the engine's fallback/violation
	// heuristics in assert mode rely on it.
	Linear bool
	// Violation is an explicit failure sink (NoState if none).
	Violation int
	// Trans lists the outgoing transitions per state. The engine fires
	// the first transition whose guard holds; synthesis produces disjoint
	// guards so order is immaterial for synthesized monitors.
	Trans [][]Transition
	// GuardNames optionally names guards for table rendering, mirroring
	// the paper's a, b, c... legends (keyed by guard string form).
	GuardNames map[string]string
}

// New returns a monitor with n states and no transitions.
func New(name, clock string, n int) *Monitor {
	return &Monitor{
		Name:      name,
		Clock:     clock,
		States:    n,
		Initial:   0,
		Final:     n - 1,
		Violation: NoState,
		Trans:     make([][]Transition, n),
	}
}

// IsFinal reports whether s is an accepting state.
func (m *Monitor) IsFinal(s int) bool {
	if len(m.Finals) == 0 {
		return s == m.Final
	}
	for _, f := range m.Finals {
		if f == s {
			return true
		}
	}
	return false
}

// AddTransition appends an edge from state `from`.
func (m *Monitor) AddTransition(from int, t Transition) {
	m.Trans[from] = append(m.Trans[from], t)
}

// NumTransitions counts all edges.
func (m *Monitor) NumTransitions() int {
	n := 0
	for _, ts := range m.Trans {
		n += len(ts)
	}
	return n
}

// Validate checks structural sanity: state indices in range, non-nil
// guards, initial/final valid.
func (m *Monitor) Validate() error {
	if m.States <= 0 {
		return fmt.Errorf("monitor %q: no states", m.Name)
	}
	if m.Initial < 0 || m.Initial >= m.States {
		return fmt.Errorf("monitor %q: initial state %d out of range", m.Name, m.Initial)
	}
	if m.Final < 0 || m.Final >= m.States {
		return fmt.Errorf("monitor %q: final state %d out of range", m.Name, m.Final)
	}
	if m.Violation != NoState && (m.Violation < 0 || m.Violation >= m.States) {
		return fmt.Errorf("monitor %q: violation state %d out of range", m.Name, m.Violation)
	}
	if len(m.Trans) != m.States {
		return fmt.Errorf("monitor %q: transition table has %d rows for %d states",
			m.Name, len(m.Trans), m.States)
	}
	for s, ts := range m.Trans {
		for i, t := range ts {
			if t.Guard == nil {
				return fmt.Errorf("monitor %q: state %d transition %d has nil guard", m.Name, s, i)
			}
			if t.To < 0 || t.To >= m.States {
				return fmt.Errorf("monitor %q: state %d transition %d targets %d (out of range)",
					m.Name, s, i, t.To)
			}
			for _, a := range t.Actions {
				if len(a.Events) == 0 {
					return fmt.Errorf("monitor %q: state %d transition %d has empty %s action",
						m.Name, s, i, a.Kind)
				}
			}
		}
	}
	return nil
}

// Support returns the input symbols referenced by any guard.
func (m *Monitor) Support() (*event.Support, error) {
	return event.NewSupport(m.Symbols())
}

// Symbols lists the input symbols referenced by each guard, in
// transition order with repeats. Unlike Support it has no width limit
// and accepts a name used as both an event and a prop.
func (m *Monitor) Symbols() []event.Symbol {
	var syms []event.Symbol
	for _, ts := range m.Trans {
		for _, t := range ts {
			syms = append(syms, expr.SupportSymbols(t.Guard)...)
		}
	}
	return syms
}

// GuardsDisjoint reports whether, in every state, at most one guard can
// hold per input valuation (ignoring Chk_evt, which is checked separately
// at runtime). Used by tests on synthesized monitors.
func (m *Monitor) GuardsDisjoint() (bool, error) {
	sup, err := m.Support()
	if err != nil {
		return false, err
	}
	for s, ts := range m.Trans {
		for i := 0; i < len(ts); i++ {
			for j := i + 1; j < len(ts); j++ {
				a := stripChk(ts[i].Guard)
				b := stripChk(ts[j].Guard)
				if expr.Compatible(a, b, sup) {
					// Same input class may still be distinguished by
					// Chk_evt; only flag when both lack Chk refs.
					if len(expr.ChkRefs(ts[i].Guard)) == 0 && len(expr.ChkRefs(ts[j].Guard)) == 0 {
						return false, fmt.Errorf("monitor %q: state %d guards %d and %d overlap: %s vs %s",
							m.Name, s, i, j, ts[i].Guard, ts[j].Guard)
					}
				}
			}
		}
	}
	return true, nil
}

// Total reports whether every state has a transition for every input
// valuation (treating Chk_evt as satisfiable either way).
func (m *Monitor) Total() (bool, error) {
	sup, err := m.Support()
	if err != nil {
		return false, err
	}
	for s, ts := range m.Trans {
		guards := make([]expr.Expr, 0, len(ts))
		for _, t := range ts {
			guards = append(guards, stripChk(t.Guard))
		}
		cover := expr.Or(guards...)
		if !expr.Valid(cover, sup) {
			return false, fmt.Errorf("monitor %q: state %d transition guards do not cover all inputs", m.Name, s)
		}
		_ = s
	}
	return true, nil
}

// stripChk replaces Chk_evt(...) atoms by true, projecting a guard onto
// its input part.
func stripChk(e expr.Expr) expr.Expr {
	switch v := e.(type) {
	case expr.ChkExpr:
		return expr.True
	case expr.NotExpr:
		return expr.Not(stripChk(v.X))
	case expr.AndExpr:
		xs := make([]expr.Expr, len(v.Xs))
		for i, x := range v.Xs {
			xs[i] = stripChk(x)
		}
		return expr.And(xs...)
	case expr.OrExpr:
		xs := make([]expr.Expr, len(v.Xs))
		for i, x := range v.Xs {
			xs[i] = stripChk(x)
		}
		return expr.Or(xs...)
	default:
		return e
	}
}

// NameGuard records a display name for a guard, mirroring the paper's
// per-figure guard legends.
func (m *Monitor) NameGuard(name string, g expr.Expr) {
	if m.GuardNames == nil {
		m.GuardNames = make(map[string]string)
	}
	m.GuardNames[g.String()] = name
}

// GuardLegend returns "name = expr" lines sorted by name.
func (m *Monitor) GuardLegend() []string {
	var out []string
	for g, n := range m.GuardNames {
		out = append(out, fmt.Sprintf("%s = %s", n, g))
	}
	sort.Strings(out)
	return out
}

// String renders a readable transition table.
func (m *Monitor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "monitor %s (clock %s): %d states, initial %d, final %d",
		m.Name, m.Clock, m.States, m.Initial, m.Final)
	if m.Violation != NoState {
		fmt.Fprintf(&b, ", violation %d", m.Violation)
	}
	b.WriteByte('\n')
	for s, ts := range m.Trans {
		for _, t := range ts {
			fmt.Fprintf(&b, "  %d %s\n", s, t)
		}
	}
	for _, l := range m.GuardLegend() {
		fmt.Fprintf(&b, "  where %s\n", l)
	}
	return b.String()
}
