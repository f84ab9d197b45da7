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
// depth inputs plus a ring of the retained violation records. Map-fed
// steps (Step) keep a clone of each input in ring; packed steps
// (StepPacked) copy the input words into the preallocated words ring
// instead, so a non-violating tick costs one word copy and no
// allocation. A violation copies the input ring into its record as it
// stands — packed words and map references, no unpacking — and the
// report is rendered only when someone reads it (EachViolation).
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
	b *progBinding
	// recs is the report ring, oldest at recs[head] once it holds
	// maxDiagnostics records; a new violation overwrites the oldest
	// record in place, reusing its buffers.
	recs []violation
	head int
	// sup packs offending inputs for Diagnostic.Valuation (nil when the
	// monitor's support is unavailable).
	sup *event.Support
}

// violation is one raw violation record: the step's outcome, the input
// ring copied as it stood when the violation fired, and the scoreboard
// slots then live. Its buffers are sized once and reused when the
// record is overwritten.
type violation struct {
	tick, from, trans int
	// n is the window length (the offending input last); window input
	// j lives in ring slot (start+j)%depth of the copied ring below.
	n, start int
	words    []uint64
	maps     []event.State
	isPacked []bool
	// live holds the scoreboard slots live at the violation; their
	// names are sorted when the report is rendered.
	live []int32
	// done, when non-nil, is a report restored from a snapshot: it is
	// kept rendered and the fields above are unused.
	done *Diagnostic
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

// Diagnostics renders the retained violation reports, oldest first, into
// a fresh slice (nil when diagnostics are disabled or no violation
// occurred). Each distinct packed input is unpacked once per call and
// its State shared by every report that quotes it (see EachViolation).
// The reports share their States and guard lists and must not be
// modified.
func (e *Engine) Diagnostics() []Diagnostic {
	if e.diag == nil || len(e.diag.recs) == 0 {
		return nil
	}
	out := make([]Diagnostic, 0, len(e.diag.recs))
	EachViolation(e, func(_ Violation, in event.Packed, s event.State) event.State {
		if in != nil {
			return e.diag.b.unpack(in)
		}
		return s
	}, func(v Violation, win []event.State) {
		d := v.Head()
		n := len(win)
		d.Input = win[n-1]
		if n > 1 {
			d.Recent = win[: n-1 : n-1]
		}
		out = append(out, d)
	})
	return out
}

// Violation is one retained violation record as EachViolation yields
// it. It renders provenance on demand and is valid only during the
// callback.
type Violation struct {
	e *Engine
	r *violation
}

// EachViolation is the one reader of an engine's violation records:
// Diagnostics renders through it, and so can callers that want a wire
// form without building the intermediate States. It calls fn for every
// retained record, oldest first, with the record's input window
// rendered by render: win[j] is window input j, the offending input
// last. render gets an input's packed words (valid only during the
// call), or its State when the input was fed as a map or restored from
// a snapshot (in == nil). Consecutive violations share window inputs,
// and an input quoted by any earlier record is quoted by the previous
// one too (windows end at increasing ticks and never start earlier), so
// an input the previous record quoted is not rendered again: its
// rendering is shared, and render runs once per distinct tick (reports
// restored from a snapshot are rendered on their own).
func EachViolation[T any](e *Engine, render func(v Violation, in event.Packed, s event.State) T, fn func(v Violation, win []T)) {
	if e.diag == nil {
		return
	}
	recs := e.diag.recs
	var prev *violation
	var prevWin []T
	for i := range recs {
		v := Violation{e: e, r: &recs[(e.diag.head+i)%len(recs)]}
		win := make([]T, v.window())
		for j := range win {
			if pj, ok := v.repeats(prev, j); ok {
				win[j] = prevWin[pj]
				continue
			}
			in, s := v.input(j)
			win[j] = render(v, in, s)
		}
		fn(v, win)
		prev, prevWin = v.r, win
	}
}

// Head renders the report without its input window (Input and Recent
// are left empty): monitor, tick, grid line, guards, the valuation of
// the offending input and the live scoreboard entries, sorted.
func (v Violation) Head() Diagnostic {
	e, r := v.e, v.r
	if r.done != nil {
		d := *r.done
		d.Input, d.Recent = event.State{}, nil
		return d
	}
	d := Diagnostic{
		Monitor:    e.m.Name,
		Tick:       r.tick,
		FromState:  r.from,
		GridLine:   gridLine(e.m, r.from),
		Guards:     e.guardStrings(r.from),
		Scoreboard: e.sb.liveNames(r.live),
	}
	if r.trans >= 0 {
		d.Guard = e.guardString(r.from, r.trans)
	}
	if sup := e.diag.sup; sup != nil {
		if in, s := v.input(r.n - 1); in != nil {
			d.Valuation = e.diag.b.valuation(in)
		} else {
			d.Valuation = uint64(sup.Valuation(s))
		}
	}
	return d
}

// AppendSymbols appends every true symbol of a packed window input to
// dst, in slot order.
func (v Violation) AppendSymbols(dst []event.Symbol, in event.Packed) []event.Symbol {
	return v.e.diag.b.appendSymbols(dst, in)
}

// window returns the number of inputs the record quotes: the recent
// window plus the offending input, which is last.
func (v Violation) window() int {
	if v.r.done != nil {
		return len(v.r.done.Recent) + 1
	}
	return v.r.n
}

// input returns window input j (0 is the oldest): its packed words, or
// its State (in == nil) for an input fed as a map or restored from a
// snapshot. A report restored from a snapshot quotes only States.
func (v Violation) input(j int) (in event.Packed, s event.State) {
	d, r := v.e.diag, v.r
	if done := r.done; done != nil {
		if j < len(done.Recent) {
			return nil, done.Recent[j]
		}
		return nil, done.Input
	}
	i := (r.start + j) % d.depth
	if r.isPacked[i] {
		return r.words[i*d.stride : (i+1)*d.stride], event.State{}
	}
	return nil, r.maps[i]
}

// repeats reports whether window input j is input pj of the record
// prev's window: stepped at the same tick, so its rendering there can be
// reused.
func (v Violation) repeats(prev *violation, j int) (pj int, ok bool) {
	r := v.r
	if prev == nil || prev.done != nil || r.done != nil {
		return 0, false
	}
	pj = r.tick - (r.n - 1 - j) - (prev.tick - prev.n + 1)
	return pj, pj >= 0 && pj < prev.n
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

// record returns the record a new violation overwrites: a fresh one
// until maxDiagnostics are retained, then the oldest.
func (d *diagState) record() *violation {
	if len(d.recs) < maxDiagnostics {
		if d.recs == nil {
			d.recs = make([]violation, 0, maxDiagnostics)
		}
		d.recs = append(d.recs, violation{})
		return &d.recs[len(d.recs)-1]
	}
	r := &d.recs[d.head]
	d.head = (d.head + 1) % maxDiagnostics
	return r
}

// recordViolation captures a violation record if armed: the step's
// outcome, a copy of the input ring (the offending input is its newest
// slot) and the live scoreboard slots. Once the record ring has wrapped
// this allocates nothing; guards, names and inputs are rendered when the
// report is read (see Violation).
func (e *Engine) recordViolation(res StepResult) {
	d := e.diag
	if d == nil {
		return
	}
	r := d.record()
	if len(r.maps) != d.depth {
		r.words = make([]uint64, len(d.words))
		r.maps = make([]event.State, d.depth)
		r.isPacked = make([]bool, d.depth)
		r.live = make([]int32, 0, e.sb.Slots())
	}
	r.tick, r.from, r.trans, r.done = res.Tick, res.From, res.TransIndex, nil
	r.n = d.depth
	if !d.filled {
		r.n = d.next
	}
	r.start = (d.next - r.n + d.depth) % d.depth
	copy(r.words, d.words)
	copy(r.maps, d.ring)
	copy(r.isPacked, d.isPacked)
	r.live = e.sb.appendLive(r.live[:0])
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
// order. On the program tier the slice is the Program's own, shared by
// every report that quotes the state.
func (e *Engine) guardStrings(s int) []string {
	if s < 0 || s >= len(e.m.Trans) || len(e.m.Trans[s]) == 0 {
		return nil
	}
	if e.b != nil {
		return e.b.prog.guardTexts()[s]
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
