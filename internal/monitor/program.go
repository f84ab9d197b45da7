package monitor

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"repro/internal/event"
	"repro/internal/expr"
)

// Program is a monitor with every guard compiled to a flat expr.Program
// over the monitor's support slots and scoreboard chk-bit indices. It
// works at any support width — unlike Table there is no 2^bits
// transition table, a step still scans the current state's guards — but
// each guard evaluation is allocation-free bit arithmetic instead of an
// AST walk over map-backed contexts.
//
// A Program is immutable after compilation and carries no execution
// state: one Program is shared by every session running the monitor,
// and each session binds it to its own Scoreboard via NewEngine /
// NewEngineVocab. Program-bound engines are ordinary *Engine values, so
// classification, diagnostics, pending-reversal, and snapshots behave
// identically to the interpreted path.
type Program struct {
	m   *Monitor
	sup *event.Support
	// chkNames are the scoreboard events guards test, sorted; a guard's
	// opChk arg indexes this list (and so a ChkBits mask).
	chkNames []string
	// guards[state][i] is the compiled guard of Trans[state][i].
	guards [][]*expr.Program
	// chkByState[s] reports whether any guard of state s samples the
	// scoreboard; states that don't skip the ChkBits lock entirely.
	chkByState []bool
	// guardText[s][i] renders guards[s][i] in source syntax, decompiled
	// once on first use (violation provenance quotes it on every report).
	guardOnce sync.Once
	guardText [][]string
}

// maxChkBits caps the scoreboard events one monitor's guards may test:
// chk bits are sampled as a single uint64 mask per step.
const maxChkBits = 64

// progResolver maps guard atoms to support slots / chk-bit indices.
type progResolver struct {
	sup      *event.Support
	chkIndex map[string]int
}

func (r progResolver) InputSlot(name string, _ event.Kind) int { return r.sup.Index(name) }
func (r progResolver) ChkSlot(name string) int {
	if i, ok := r.chkIndex[name]; ok {
		return i
	}
	return -1
}

// CompileProgram compiles every guard of m. Unlike CompileTable it has
// no support-width limit; it fails only on invalid monitors, guards deeper
// than expr.MaxProgramDepth, or more than 64 distinct Chk_evt events.
func CompileProgram(m *Monitor) (*Program, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	sup, err := m.Support()
	if err != nil {
		return nil, err
	}
	chkSet := map[string]bool{}
	for _, ts := range m.Trans {
		for _, t := range ts {
			for _, e := range expr.ChkRefs(t.Guard) {
				chkSet[e] = true
			}
		}
	}
	chkNames := make([]string, 0, len(chkSet))
	for e := range chkSet {
		chkNames = append(chkNames, e)
	}
	sort.Strings(chkNames)
	if len(chkNames) > maxChkBits {
		return nil, fmt.Errorf("monitor %q: %d scoreboard events exceed the %d chk-bit limit",
			m.Name, len(chkNames), maxChkBits)
	}
	r := progResolver{sup: sup, chkIndex: make(map[string]int, len(chkNames))}
	for i, e := range chkNames {
		r.chkIndex[e] = i
	}
	p := &Program{m: m, sup: sup, chkNames: chkNames,
		guards: make([][]*expr.Program, m.States), chkByState: make([]bool, m.States)}
	for s, ts := range m.Trans {
		p.guards[s] = make([]*expr.Program, len(ts))
		for i, t := range ts {
			g, err := expr.CompileProgram(t.Guard, r)
			if err != nil {
				return nil, fmt.Errorf("monitor %q: state %d transition %d: %w", m.Name, s, i, err)
			}
			p.guards[s][i] = g
			if g.UsesChk() {
				p.chkByState[s] = true
			}
		}
	}
	return p, nil
}

// Monitor returns the automaton the program was compiled from.
func (p *Program) Monitor() *Monitor { return p.m }

// Support returns the monitor's input support; packed inputs fed to a
// plain NewEngine must use this slot order.
func (p *Program) Support() *event.Support { return p.sup }

// progNamer renders a program's slots back to names — the inverse of
// progResolver, used to decompile guards for violation provenance.
type progNamer struct{ p *Program }

func (n progNamer) InputSym(slot int) (string, event.Kind) {
	syms := n.p.sup.Symbols()
	if slot < 0 || slot >= len(syms) {
		return "", 0
	}
	return syms[slot].Name, syms[slot].Kind
}

func (n progNamer) ChkName(idx int) string {
	if idx < 0 || idx >= len(n.p.chkNames) {
		return ""
	}
	return n.p.chkNames[idx]
}

// GuardString renders the compiled guard of Trans[state][idx] purely
// from the program's slot names: the postfix code is decompiled back to
// an AST (exact, because compilation preserves n-ary arity) and rendered
// with the standard expression syntax. The result equals the source
// guard's String() by construction, which is what lets every execution
// tier report identical provenance. Each guard is decompiled once per
// Program; later calls return the kept string.
func (p *Program) GuardString(state, idx int) string {
	if state < 0 || state >= len(p.guards) || idx < 0 || idx >= len(p.guards[state]) {
		return ""
	}
	return p.guardTexts()[state][idx]
}

// guardTexts returns every guard's source rendering, indexed like
// guards, decompiling them on first use. The result is shared and must
// not be modified.
func (p *Program) guardTexts() [][]string {
	p.guardOnce.Do(func() {
		p.guardText = make([][]string, len(p.guards))
		for s, gs := range p.guards {
			p.guardText[s] = make([]string, len(gs))
			for i, g := range gs {
				e, err := g.Decompile(progNamer{p})
				if err != nil {
					// Unreachable for programs this package compiled;
					// keep provenance usable anyway.
					p.guardText[s][i] = p.m.Trans[s][i].Guard.String()
					continue
				}
				p.guardText[s][i] = e.String()
			}
		}
	})
	return p.guardText
}

// Ops returns the total compiled instruction count (sizing diagnostics;
// the Program analog of Table.TableBytes).
func (p *Program) Ops() int {
	n := 0
	for _, gs := range p.guards {
		for _, g := range gs {
			n += g.Len()
		}
	}
	return n
}

// boundAction is one scoreboard action resolved to slots of a specific
// Scoreboard. Actions stay an ordered list (a Del after an Add of the
// same event must run after it) and keep the original names for the
// engine's pending-reversal bookkeeping and snapshots.
type boundAction struct {
	kind   ActionKind
	slots  []int32
	names  []string
	sticky bool
}

// progBinding ties a Program to one engine's scoreboard (and optionally
// to a session vocabulary for externally-packed input).
type progBinding struct {
	prog *Program
	// remap translates program support slots into the slot space of
	// externally packed input handed to StepPacked; nil means StepPacked
	// input is packed in support order.
	remap []int32
	// vocab, when non-nil, is the interner the StepPacked input was
	// packed with — needed to unpack inputs for diagnostics.
	vocab *event.Vocabulary
	// chkSlots are scoreboard slots of prog.chkNames, sampled once per
	// step via ChkBits.
	chkSlots []int32
	// actions[state][i] mirrors Trans[state][i].Actions.
	actions [][][]boundAction
	// scratch is the engine-private pack buffer used by Step.
	scratch event.Packed
	// tab, when non-nil (see Engine.UseTable), resolves the fired
	// transition with one lookup instead of scanning compiled guards.
	tab *Table
}

// unpack expands a StepPacked input back to a map State for diagnostics.
func (b *progBinding) unpack(in event.Packed) event.State {
	if b.vocab != nil {
		return b.vocab.UnpackState(in)
	}
	return b.prog.sup.UnpackState(in)
}

// appendSymbols appends every true symbol of a StepPacked input to dst,
// in slot order.
func (b *progBinding) appendSymbols(dst []event.Symbol, in event.Packed) []event.Symbol {
	width := b.prog.sup.Len()
	if b.vocab != nil {
		width = b.vocab.Len()
	}
	for w, word := range in {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			if i >= width {
				return dst
			}
			if b.vocab != nil {
				dst = append(dst, b.vocab.Symbol(i))
			} else {
				dst = append(dst, b.prog.sup.Symbols()[i])
			}
		}
	}
	return dst
}

// valuation is Support.Valuation of a StepPacked input, read straight
// from its words: bit i is support slot i (slots past 63 drop out).
func (b *progBinding) valuation(in event.Packed) uint64 {
	var v uint64
	for i := 0; i < b.prog.sup.Len() && i < 64; i++ {
		j := i
		if b.remap != nil {
			j = int(b.remap[i])
		}
		if in.Bit(j) {
			v |= 1 << uint(i)
		}
	}
	return v
}

// bind attaches p to the engine, resolving chk events and action events
// to scoreboard slots.
func (e *Engine) bind(p *Program, remap []int32, vocab *event.Vocabulary) {
	b := &progBinding{prog: p, remap: remap, vocab: vocab}
	b.chkSlots = make([]int32, len(p.chkNames))
	for i, n := range p.chkNames {
		b.chkSlots[i] = e.sb.Slot(n)
	}
	b.actions = make([][][]boundAction, len(p.m.Trans))
	for s, ts := range p.m.Trans {
		b.actions[s] = make([][]boundAction, len(ts))
		for i, t := range ts {
			bas := make([]boundAction, len(t.Actions))
			for j, a := range t.Actions {
				ba := boundAction{kind: a.Kind, names: a.Events, sticky: a.Sticky}
				ba.slots = make([]int32, len(a.Events))
				for k, ev := range a.Events {
					ba.slots[k] = e.sb.Slot(ev)
				}
				bas[j] = ba
			}
			b.actions[s][i] = bas
		}
	}
	e.b = b
}

// NewEngine returns an engine executing the compiled program against sb
// (a fresh scoreboard when nil). Step packs map states itself;
// StepPacked expects input packed in the program's support order.
func (p *Program) NewEngine(sb *Scoreboard, mode Mode) *Engine {
	if sb == nil {
		sb = NewScoreboard()
	}
	e := NewEngine(p.m, sb, mode)
	e.bind(p, nil, nil)
	return e
}

// NewEngineVocab returns a program engine whose StepPacked input is
// packed with the session vocabulary v (a superset interner shared by
// many monitors): support slots are remapped into v's slot space, so
// one vocabulary-packed valuation per tick serves every monitor of the
// session. Every support symbol must already be declared in v (see
// event.Vocabulary.DeclareSupport).
func (p *Program) NewEngineVocab(sb *Scoreboard, mode Mode, v *event.Vocabulary) (*Engine, error) {
	remap := make([]int32, p.sup.Len())
	for i, sym := range p.sup.Symbols() {
		j := v.Lookup(sym.Name, sym.Kind)
		if j < 0 {
			return nil, fmt.Errorf("monitor %q: support %s %q not in session vocabulary", p.m.Name, sym.Kind, sym.Name)
		}
		remap[i] = int32(j)
	}
	if sb == nil {
		sb = NewScoreboard()
	}
	e := NewEngine(p.m, sb, mode)
	e.bind(p, remap, v)
	return e, nil
}

// Programmed reports whether the engine executes compiled guard
// programs (true) or interprets guard ASTs (false).
func (e *Engine) Programmed() bool { return e.b != nil }

// UseTable makes a program-bound engine pick each step's fired
// transition with one lookup in the shared table t — the packed word
// or'd with the scoreboard's chk bits above it — instead of scanning the
// state's compiled guards. Everything after the pick (actions, pending
// reversal, classification, diagnostics, snapshots) stays the engine's,
// so the table is a resolver, not a separate execution tier. t must be
// compiled from the engine's own monitor, and the engine's packed input
// must be in the table's support order: a plain Program.NewEngine, or a
// NewEngineVocab whose vocabulary is exactly the support.
func (e *Engine) UseTable(t *Table) error {
	b := e.b
	switch {
	case b == nil:
		return fmt.Errorf("monitor %q: UseTable on an engine without a compiled program", e.m.Name)
	case t.m != e.m:
		return fmt.Errorf("monitor %q: table compiled from monitor %q", e.m.Name, t.m.Name)
	case !slices.Equal(t.sup.Symbols(), b.prog.sup.Symbols()) || !slices.Equal(t.chkEvents, b.prog.chkNames):
		return fmt.Errorf("monitor %q: table slot order differs from the program's", e.m.Name)
	case b.vocab != nil && b.vocab.Len() != t.sup.Len():
		return fmt.Errorf("monitor %q: session vocabulary is wider than the table support", e.m.Name)
	}
	for i, j := range b.remap {
		if int(j) != i {
			return fmt.Errorf("monitor %q: session vocabulary order differs from the table support", e.m.Name)
		}
	}
	b.tab = t
	return nil
}
