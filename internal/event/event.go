// Package event defines the vocabulary over which CESC specifications and
// their synthesized monitors operate: events, propositions, states
// (valuations of both), and compact supports used during monitor synthesis.
//
// Following the paper's semantics, a state s is a pair of valuations
// (f1, f2) with f1 : PROP -> Bool and f2 : EVENTS -> Bool. A run is a
// sequence of states indexed by clock ticks.
package event

import (
	"fmt"
	"sort"
	"strings"
)

// Kind distinguishes the two symbol namespaces of the paper's alphabet
// Sigma = EVENTS ∪ PROP.
type Kind int

const (
	// KindEvent is a pulse-like occurrence (f2 in the paper).
	KindEvent Kind = iota
	// KindProp is a level-like proposition over system variables (f1).
	KindProp
)

// String returns "event" or "prop".
func (k Kind) String() string {
	switch k {
	case KindEvent:
		return "event"
	case KindProp:
		return "prop"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Symbol is a named member of the alphabet.
type Symbol struct {
	Name string
	Kind Kind
}

// String formats the symbol as name:kind.
func (s Symbol) String() string { return s.Name + ":" + s.Kind.String() }

// Vocabulary is a symbol table assigning stable indices to symbols.
// Events and props are separate namespaces, as in the paper's alphabet
// and the ingest wire format: a name declared as both gets two slots.
// The zero value is not usable; construct with NewVocabulary.
type Vocabulary struct {
	symbols []Symbol
	events  map[string]int
	props   map[string]int
}

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary {
	return &Vocabulary{events: make(map[string]int), props: make(map[string]int)}
}

// slots returns the name-to-slot map of kind's namespace.
func (v *Vocabulary) slots(kind Kind) map[string]int {
	if kind == KindProp {
		return v.props
	}
	return v.events
}

// Declare registers a symbol, returning its index. Re-declaring a
// symbol is idempotent; only an empty name errors.
func (v *Vocabulary) Declare(name string, kind Kind) (int, error) {
	if name == "" {
		return -1, fmt.Errorf("event: empty symbol name")
	}
	names := v.slots(kind)
	if i, ok := names[name]; ok {
		return i, nil
	}
	i := len(v.symbols)
	v.symbols = append(v.symbols, Symbol{Name: name, Kind: kind})
	names[name] = i
	return i, nil
}

// MustDeclare is Declare that panics on error; for tests and literals.
func (v *Vocabulary) MustDeclare(name string, kind Kind) int {
	i, err := v.Declare(name, kind)
	if err != nil {
		panic(err)
	}
	return i
}

// Lookup returns the index of the symbol name of the given kind, or -1
// if undeclared.
func (v *Vocabulary) Lookup(name string, kind Kind) int {
	if i, ok := v.slots(kind)[name]; ok {
		return i
	}
	return -1
}

// Symbol returns the symbol at index i.
func (v *Vocabulary) Symbol(i int) Symbol { return v.symbols[i] }

// Len returns the number of declared symbols.
func (v *Vocabulary) Len() int { return len(v.symbols) }

// Names returns all declared names in declaration order.
func (v *Vocabulary) Names() []string {
	out := make([]string, len(v.symbols))
	for i, s := range v.symbols {
		out[i] = s.Name
	}
	return out
}

// State is a valuation of propositions and events — the paper's
// s = (f1, f2). Absent keys are false, matching the intuition that an
// unmentioned event does not occur and an unmentioned proposition does
// not hold.
type State struct {
	Props  map[string]bool
	Events map[string]bool
}

// NewState returns an empty state (all symbols false).
func NewState() State {
	return State{Props: make(map[string]bool), Events: make(map[string]bool)}
}

// WithEvents returns a copy of s with the named events set true.
func (s State) WithEvents(names ...string) State {
	c := s.Clone()
	for _, n := range names {
		c.Events[n] = true
	}
	return c
}

// WithProps returns a copy of s with the named propositions set true.
func (s State) WithProps(names ...string) State {
	c := s.Clone()
	for _, n := range names {
		c.Props[n] = true
	}
	return c
}

// WithProp returns a copy of s with proposition name set to val.
func (s State) WithProp(name string, val bool) State {
	c := s.Clone()
	c.Props[name] = val
	return c
}

// Clone returns a deep copy of s.
func (s State) Clone() State {
	c := NewState()
	for k, v := range s.Props {
		c.Props[k] = v
	}
	for k, v := range s.Events {
		c.Events[k] = v
	}
	return c
}

// Event reports f2(name).
func (s State) Event(name string) bool { return s.Events[name] }

// Prop reports f1(name).
func (s State) Prop(name string) bool { return s.Props[name] }

// IsEmpty reports whether no event occurs and no proposition holds.
func (s State) IsEmpty() bool {
	for _, v := range s.Events {
		if v {
			return false
		}
	}
	for _, v := range s.Props {
		if v {
			return false
		}
	}
	return true
}

// Equal reports whether two states assign the same truth values
// (absent keys are false).
func (s State) Equal(t State) bool {
	return mapsAgree(s.Events, t.Events) && mapsAgree(s.Props, t.Props)
}

func mapsAgree(a, b map[string]bool) bool {
	for k, v := range a {
		if v != b[k] {
			return false
		}
	}
	for k, v := range b {
		if v != a[k] {
			return false
		}
	}
	return true
}

// String renders the true symbols in deterministic order, e.g.
// "{req1, rd1 | p1}" (events | props). The empty state renders as "{}".
func (s State) String() string {
	var evs, prs []string
	for k, v := range s.Events {
		if v {
			evs = append(evs, k)
		}
	}
	for k, v := range s.Props {
		if v {
			prs = append(prs, k)
		}
	}
	sort.Strings(evs)
	sort.Strings(prs)
	if len(evs) == 0 && len(prs) == 0 {
		return "{}"
	}
	var b strings.Builder
	b.WriteByte('{')
	b.WriteString(strings.Join(evs, ", "))
	if len(prs) > 0 {
		if len(evs) > 0 {
			b.WriteString(" | ")
		} else {
			b.WriteString("| ")
		}
		b.WriteString(strings.Join(prs, ", "))
	}
	b.WriteByte('}')
	return b.String()
}
