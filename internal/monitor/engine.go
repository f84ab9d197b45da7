package monitor

import (
	"fmt"

	"repro/internal/event"
)

// Mode selects how the engine interprets the automaton.
type Mode int

const (
	// ModeDetect runs the monitor as the paper defines it: a detector
	// whose accepting runs witness the specified scenario. Fallbacks are
	// ordinary matching behaviour.
	ModeDetect Mode = iota
	// ModeAssert runs the monitor as a protocol checker: once a scenario
	// has begun (progress beyond the initial state), abandoning it —
	// a backward transition that is not an acceptance, or an input no
	// transition covers — is reported as a violation. This is the mode
	// used when the synthesized monitors check implementations (the
	// paper's future-work application, experiment E12).
	ModeAssert
)

// Outcome classifies a single engine step.
type Outcome int

const (
	// Advanced: moved to a strictly later state (or stayed at a
	// non-initial state on a stutter).
	Advanced Outcome = iota
	// Stayed: remained in the initial state (nothing matched yet).
	Stayed
	// Accepted: reached the final state — the scenario was observed.
	Accepted
	// Fellback: took a backward transition (partial match abandoned or
	// re-anchored). A violation in ModeAssert.
	Fellback
	// Violated: entered the explicit violation state, or fell back /
	// had no enabled transition while in ModeAssert with progress made.
	Violated
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Advanced:
		return "advanced"
	case Stayed:
		return "stayed"
	case Accepted:
		return "accepted"
	case Fellback:
		return "fellback"
	case Violated:
		return "violated"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// StepResult describes what one input element did to the monitor.
type StepResult struct {
	Outcome  Outcome
	From, To int
	// TransIndex is the index (within Trans[From]) of the fired
	// transition, or -1 when no transition covered the input (hard
	// reset). Coverage collectors key on (From, TransIndex).
	TransIndex int
	// Tick is the engine-local tick index of this step (0-based).
	Tick int
}

// Stats aggregates an engine's history.
type Stats struct {
	Steps      int
	Accepts    int
	Violations int
	Fallbacks  int
	// LastAcceptTick is the tick of the most recent acceptance, -1 if none.
	LastAcceptTick int
}

// Engine executes a Monitor over an input trace, one state element per
// clock tick, evaluating guards against the element and the shared
// scoreboard and applying scoreboard actions of fired transitions.
type Engine struct {
	m     *Monitor
	sb    *Scoreboard
	mode  Mode
	state int
	tick  int
	// now yields the global time recorded with Add_evt entries; for a
	// single-clock engine it defaults to the local tick index.
	now   func() int64
	stats Stats
	// pending tracks Add_evt events performed since the last visit to the
	// initial state, so a hard reset (uncovered input) can reverse them.
	pending []string
	// diag, when armed via EnableDiagnostics, retains recent inputs and
	// produces violation reports.
	diag *diagState
	// b, when non-nil, makes the engine evaluate compiled guard programs
	// over packed valuations instead of interpreting guard ASTs (see
	// Program.NewEngine); classification and bookkeeping are shared.
	b *progBinding
}

// NewEngine returns an engine for m over scoreboard sb (a fresh
// scoreboard is created when sb is nil).
func NewEngine(m *Monitor, sb *Scoreboard, mode Mode) *Engine {
	if sb == nil {
		sb = NewScoreboard()
	}
	e := &Engine{m: m, sb: sb, mode: mode, state: m.Initial}
	e.now = func() int64 { return int64(e.tick) }
	e.stats.LastAcceptTick = -1
	return e
}

// SetClockFunc overrides the global-time source used to timestamp
// scoreboard entries (multi-clock coordinators install the global clock).
func (e *Engine) SetClockFunc(now func() int64) { e.now = now }

// State returns the current automaton state.
func (e *Engine) State() int { return e.state }

// Scoreboard returns the engine's scoreboard.
func (e *Engine) Scoreboard() *Scoreboard { return e.sb }

// Stats returns aggregate counts so far.
func (e *Engine) Stats() Stats { return e.stats }

// Monitor returns the automaton being executed.
func (e *Engine) Monitor() *Monitor { return e.m }

// guardContext evaluates guards against an input element plus the
// scoreboard.
type guardContext struct {
	s  event.State
	sb *Scoreboard
}

func (c guardContext) Event(name string) bool { return c.s.Event(name) }
func (c guardContext) Prop(name string) bool  { return c.s.Prop(name) }
func (c guardContext) ChkEvt(name string) bool {
	return c.sb.Chk(name)
}

// Step consumes one input element. It fires the first transition of the
// current state whose guard holds, applies its scoreboard actions, and
// classifies the move. An input covered by no transition hard-resets the
// monitor to its initial state, reversing pending Add_evt entries.
func (e *Engine) Step(s event.State) StepResult {
	if e.diag != nil {
		e.diag.observe(s)
	}
	var fired int
	if e.b != nil {
		e.b.scratch = e.b.prog.sup.PackInto(s, e.b.scratch)
		fired = e.firedPacked(e.b.scratch, nil)
	} else {
		fired = e.firedAST(s)
	}
	return e.finish(fired)
}

// StepPacked consumes one packed input element; the engine must have
// been built from a Program. Input packed with the program's support
// uses support slot order (NewEngine); input packed with a session
// vocabulary (NewEngineVocab) is translated through the binding's remap.
// When diagnostics are armed the input words are copied into the
// diagnostics ring; they are unpacked only if a violation quotes them.
func (e *Engine) StepPacked(in event.Packed) StepResult {
	if e.b == nil {
		panic("monitor: StepPacked on an engine without a compiled program")
	}
	if e.diag != nil {
		e.diag.observePacked(in)
	}
	return e.finish(e.firedPacked(in, e.b.remap))
}

// firedAST scans the current state's transitions interpreting guard
// ASTs; it returns the fired transition index or -1.
func (e *Engine) firedAST(s event.State) int {
	ctx := guardContext{s: s, sb: e.sb}
	for i := range e.m.Trans[e.state] {
		if e.m.Trans[e.state][i].Guard.Eval(ctx) {
			return i
		}
	}
	return -1
}

// firedPacked resolves the fired transition over a packed valuation,
// sampling the scoreboard once for all Chk_evt atoms — and not at all in
// states whose guards never test it. A table-bound engine (UseTable)
// looks the answer up; otherwise the state's compiled guards are scanned.
func (e *Engine) firedPacked(in event.Packed, remap []int32) int {
	var chk uint64
	if e.b.prog.chkByState[e.state] {
		chk = e.sb.ChkBits(e.b.chkSlots)
	}
	if t := e.b.tab; t != nil {
		var word uint64
		if len(in) > 0 {
			word = in[0]
		}
		return t.Fired(e.state, word|chk<<t.width)
	}
	for i, g := range e.b.prog.guards[e.state] {
		if g.EvalPacked(in, remap, chk) {
			return i
		}
	}
	return -1
}

// finish applies the fired transition (index into Trans[state], -1 for
// none) and classifies the move. A violation's diagnostics quote the
// step's input from the diagnostics ring, where Step/StepPacked put it.
func (e *Engine) finish(firedIdx int) StepResult {
	res := StepResult{From: e.state, TransIndex: firedIdx, Tick: e.tick}
	e.tick++
	e.stats.Steps++
	if firedIdx < 0 {
		// Uncovered input: hard reset.
		progressed := e.state != e.m.Initial
		e.reversePending()
		res.To = e.m.Initial
		e.state = e.m.Initial
		if progressed && e.mode == ModeAssert {
			e.stats.Violations++
			res.Outcome = Violated
			e.recordViolation(res)
		} else {
			res.Outcome = Stayed
		}
		return res
	}
	fired := &e.m.Trans[e.state][firedIdx]
	e.apply(firedIdx, fired)
	from := e.state
	e.state = fired.To
	res.To = fired.To
	switch {
	case e.m.Violation != NoState && fired.To == e.m.Violation:
		e.stats.Violations++
		res.Outcome = Violated
		// Violation sink behaves like a reset for pending bookkeeping.
		e.pending = e.pending[:0]
		e.state = e.m.Initial
		res.To = e.m.Initial
	case e.m.IsFinal(fired.To):
		e.stats.Accepts++
		e.stats.LastAcceptTick = res.Tick
		res.Outcome = Accepted
		e.pending = e.pending[:0]
	case fired.To == e.m.Initial && from != e.m.Initial:
		e.stats.Fallbacks++
		e.pending = e.pending[:0]
		// Abandoning from a final state is a benign reset — the scenario
		// completed; only abandoning in-progress matches violates.
		if e.mode == ModeAssert && !e.m.IsFinal(from) {
			e.stats.Violations++
			res.Outcome = Violated
		} else {
			res.Outcome = Fellback
		}
	case e.m.Linear && fired.To < from:
		// Re-anchor (e.g. KMP fallback to state 1 on a fresh anchor match).
		e.stats.Fallbacks++
		if e.mode == ModeAssert && !e.m.IsFinal(from) {
			e.stats.Violations++
			res.Outcome = Violated
		} else {
			res.Outcome = Fellback
		}
	case fired.To == e.m.Initial:
		res.Outcome = Stayed
	default:
		res.Outcome = Advanced
	}
	if res.Outcome == Violated {
		e.recordViolation(res)
	}
	return res
}

// apply performs the fired transition's scoreboard actions, maintaining
// the pending-adds list used for hard resets. Program-bound engines use
// pre-resolved scoreboard slots; the pending list stays name-based so
// snapshots and restores are format-identical across both paths.
func (e *Engine) apply(idx int, t *Transition) {
	if e.b != nil {
		for _, a := range e.b.actions[e.state][idx] {
			switch a.kind {
			case ActAdd:
				e.sb.AddSlots(e.now(), a.slots)
				if !a.sticky {
					e.pending = append(e.pending, a.names...)
				}
			case ActDel:
				e.sb.DelSlots(a.slots)
				e.unpend(a.names)
			}
		}
		return
	}
	for _, a := range t.Actions {
		switch a.Kind {
		case ActAdd:
			e.sb.Add(e.now(), a.Events...)
			if !a.Sticky {
				e.pending = append(e.pending, a.Events...)
			}
		case ActDel:
			e.sb.Del(a.Events...)
			e.unpend(a.Events)
		}
	}
}

func (e *Engine) unpend(events []string) {
	for _, ev := range events {
		for i := len(e.pending) - 1; i >= 0; i-- {
			if e.pending[i] == ev {
				e.pending = append(e.pending[:i], e.pending[i+1:]...)
				break
			}
		}
	}
}

func (e *Engine) reversePending() {
	if len(e.pending) > 0 {
		e.sb.Del(e.pending...)
		e.pending = e.pending[:0]
	}
}

// Run consumes a whole trace and returns the final stats.
func (e *Engine) Run(states []event.State) Stats {
	for _, s := range states {
		e.Step(s)
	}
	return e.stats
}

// Reset returns the engine to its initial state, reversing pending adds;
// accumulated stats are preserved.
func (e *Engine) Reset() {
	e.reversePending()
	e.state = e.m.Initial
}

// Accepts runs the engine over the trace from a fresh state and reports
// whether the scenario was detected at least once. The scoreboard is
// reset first; stats accumulate.
func (e *Engine) Accepts(states []event.State) bool {
	e.sb.Reset()
	e.Reset()
	before := e.stats.Accepts
	e.Run(states)
	return e.stats.Accepts > before
}
