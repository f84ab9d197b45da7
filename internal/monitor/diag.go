package monitor

import (
	"fmt"
	"strings"

	"repro/internal/event"
)

// Diagnostic captures the context of one assert-mode violation: where
// the monitor was, what input broke the scenario, and the recent input
// window leading up to it — the counterexample excerpt a verification
// engineer needs to debug the failure.
type Diagnostic struct {
	// Monitor is the chart name of the violated specification.
	Monitor string
	// Tick is the engine-local tick at which the violation fired.
	Tick int
	// FromState is the automaton state abandoned.
	FromState int
	// GridLine is the chart grid line the monitor sat on when the
	// violation fired. For linear SCESC monitors states are synthesized
	// one per grid line, so GridLine equals FromState; for composed
	// (non-linear) monitors no single grid line applies and GridLine
	// is -1.
	GridLine int
	// Guard is the fired guard that routed the run into the violation
	// (rendered from the compiled program's slot names on compiled
	// tiers). Empty for a hard reset, where no guard matched at all.
	Guard string
	// Guards lists every candidate guard of the abandoned state, in
	// transition order — on a hard reset these are the guards that all
	// evaluated false against the offending input.
	Guards []string
	// Valuation is the offending input packed through the monitor's
	// support slot order — the exact table index / program input the
	// compiled tiers evaluated.
	Valuation uint64
	// Input is the offending trace element.
	Input event.State
	// Recent holds up to the configured depth of elements before the
	// offending one, oldest first.
	Recent []event.State
	// Scoreboard lists the live scoreboard entries at the violation.
	Scoreboard []string
}

// String renders a multi-line report.
func (d Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "violation at tick %d (abandoned state %d)\n", d.Tick, d.FromState)
	if d.Monitor != "" {
		fmt.Fprintf(&b, "  monitor: %s", d.Monitor)
		if d.GridLine >= 0 {
			fmt.Fprintf(&b, " (grid line %d)", d.GridLine)
		}
		b.WriteByte('\n')
	}
	if d.Guard != "" {
		fmt.Fprintf(&b, "  guard: %s\n", d.Guard)
	} else if len(d.Guards) > 0 {
		fmt.Fprintf(&b, "  no guard matched of: %s\n", strings.Join(d.Guards, " | "))
	}
	for i, s := range d.Recent {
		fmt.Fprintf(&b, "  t-%d: %s\n", len(d.Recent)-i, s)
	}
	fmt.Fprintf(&b, "  t-0: %s   <- offending input\n", d.Input)
	if len(d.Scoreboard) > 0 {
		fmt.Fprintf(&b, "  scoreboard: %s\n", strings.Join(d.Scoreboard, ", "))
	}
	return b.String()
}

// maxDiagnostics bounds the retained reports: the ring keeps the most
// recent maxDiagnostics violations, and counters keep counting past it.
const maxDiagnostics = 32

// diagState is the engine's diagnostic machinery: a ring of the last
// depth inputs plus the retained reports. Map-fed steps (Step) keep a
// clone of each input in ring; packed steps (StepPacked) copy the input
// words into the preallocated words ring instead, so a non-violating
// tick costs one word copy and no allocation. Packed slots are unpacked
// through the engine's binding only when a violation quotes them (or a
// snapshot serializes them).
type diagState struct {
	depth  int
	ring   []event.State
	next   int
	filled bool
	// words holds packed inputs, stride words per ring slot (nil on
	// interpreted engines, which never step packed); isPacked[i] marks
	// slot i as living in words rather than ring.
	words    []uint64
	stride   int
	isPacked []bool
	// b unpacks packed slots (the engine's program binding).
	b       *progBinding
	reports []Diagnostic
	// sup packs offending inputs for Diagnostic.Valuation (nil when the
	// monitor's support is unavailable).
	sup *event.Support
}

// newDiagState builds an empty ring of the given depth for e, bound to
// the support and (on program engines) the packed-input width e uses.
func newDiagState(e *Engine, depth int) *diagState {
	d := &diagState{depth: depth, ring: make([]event.State, depth), isPacked: make([]bool, depth)}
	if b := e.b; b != nil {
		d.sup, d.b = b.prog.sup, b
		width := b.prog.sup.Len()
		if b.vocab != nil {
			width = b.vocab.Len()
		}
		d.stride = event.PackedWords(width)
		d.words = make([]uint64, depth*d.stride)
	} else if sup, err := e.m.Support(); err == nil {
		d.sup = sup
	}
	return d
}

// EnableDiagnostics makes the engine retain the last `depth` inputs and
// record a Diagnostic for each violation (a bounded ring keeps the most
// recent reports). Call before stepping; depth <= 0 disables.
func (e *Engine) EnableDiagnostics(depth int) {
	if depth <= 0 {
		e.diag = nil
		return
	}
	e.diag = newDiagState(e, depth)
}

// Diagnostics returns the recorded violation reports (nil when
// diagnostics are disabled or no violation occurred).
func (e *Engine) Diagnostics() []Diagnostic {
	if e.diag == nil {
		return nil
	}
	return e.diag.reports
}

// observe records a map input before it is consumed.
func (d *diagState) observe(s event.State) {
	d.ring[d.next] = s.Clone()
	d.isPacked[d.next] = false
	d.advance()
}

// observePacked records a packed input before it is consumed: the words
// are copied into the slot (inputs narrower than the stride read as
// false above their width), allocation-free.
func (d *diagState) observePacked(in event.Packed) {
	w := d.words[d.next*d.stride : (d.next+1)*d.stride]
	clear(w[copy(w, in):])
	d.ring[d.next] = event.State{}
	d.isPacked[d.next] = true
	d.advance()
}

func (d *diagState) advance() {
	d.next = (d.next + 1) % d.depth
	if d.next == 0 {
		d.filled = true
	}
}

// state returns ring slot i as a State, unpacking a packed slot afresh.
func (d *diagState) state(i int) event.State {
	if d.isPacked[i] {
		return d.b.unpack(d.words[i*d.stride : (i+1)*d.stride])
	}
	return d.ring[i]
}

// slot is state for violation reports: a packed slot is unpacked once
// and kept as a map slot, so the consecutive violations of a faulty
// stretch share its State instead of unpacking it again for each recent
// window. Stored States are never mutated, only replaced.
func (d *diagState) slot(i int) event.State {
	if d.isPacked[i] {
		d.ring[i] = d.state(i)
		d.isPacked[i] = false
	}
	return d.ring[i]
}

// current returns the input just observed: the offending one when a
// violation is being recorded.
func (d *diagState) current() event.State {
	return d.slot((d.next - 1 + d.depth) % d.depth)
}

// recent returns the inputs before the one just observed, oldest first.
func (d *diagState) recent() []event.State {
	var out []event.State
	n := d.depth
	if !d.filled {
		n = d.next
	}
	// Exclude the most recent entry (the offending input itself).
	for i := n - 1; i >= 1; i-- {
		idx := (d.next - 1 - i + 2*d.depth) % d.depth
		out = append(out, d.slot(idx))
	}
	return out
}

// push appends d to the bounded report ring, dropping the oldest report
// once maxDiagnostics are retained.
func (d *diagState) push(rep Diagnostic) {
	if len(d.reports) >= maxDiagnostics {
		copy(d.reports, d.reports[1:])
		d.reports[len(d.reports)-1] = rep
		return
	}
	d.reports = append(d.reports, rep)
}

// recordViolation captures a diagnostic if armed. Provenance is rendered
// from whichever tier executed the step: program-bound engines quote the
// fired guard decompiled from the compiled program (once per guard, see
// Program.GuardString), interpreted engines render the guard AST
// directly — identical strings by construction. The offending input is
// the ring's newest slot; a packed one is unpacked only here.
func (e *Engine) recordViolation(res StepResult) {
	if e.diag == nil {
		return
	}
	input := e.diag.current()
	rep := Diagnostic{
		Monitor:    e.m.Name,
		Tick:       res.Tick,
		FromState:  res.From,
		GridLine:   gridLine(e.m, res.From),
		Guards:     e.guardStrings(res.From),
		Input:      input,
		Recent:     e.diag.recent(),
		Scoreboard: e.sb.Live(),
	}
	if res.TransIndex >= 0 {
		rep.Guard = e.guardString(res.From, res.TransIndex)
	}
	if e.diag.sup != nil {
		rep.Valuation = uint64(e.diag.sup.Valuation(input))
	}
	e.diag.push(rep)
}

// guardString renders one guard of state s: from the compiled program's
// slot names on the program tier, from the guard AST otherwise.
func (e *Engine) guardString(s, idx int) string {
	if e.b != nil {
		return e.b.prog.GuardString(s, idx)
	}
	return e.m.Trans[s][idx].Guard.String()
}

// guardStrings renders every candidate guard of state s in transition
// order.
func (e *Engine) guardStrings(s int) []string {
	if s < 0 || s >= len(e.m.Trans) || len(e.m.Trans[s]) == 0 {
		return nil
	}
	if e.b != nil {
		return append([]string(nil), e.b.prog.guardTexts()[s]...)
	}
	out := make([]string, len(e.m.Trans[s]))
	for i := range e.m.Trans[s] {
		out[i] = e.guardString(s, i)
	}
	return out
}

// gridLine maps an automaton state to the chart grid line it represents:
// linear SCESC monitors synthesize one state per grid line, so the state
// index is the grid line; composed monitors have no such mapping.
func gridLine(m *Monitor, state int) int {
	if m.Linear {
		return state
	}
	return -1
}
