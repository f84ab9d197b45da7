package monitor

import (
	"fmt"
	"sort"

	"repro/internal/event"
	"repro/internal/expr"
)

// Table is the transition function of a monitor precomputed over every
// (input valuation, scoreboard-bit vector) pair. It is immutable and
// shareable: one Table resolves fired transitions for any number of
// table-bound engines (Engine.UseTable) and backs LaneBanks and their
// Compiled reference cursors concurrently — it is read-only after
// CompileTable returns, so sharing needs no locks.
type Table struct {
	m   *Monitor
	sup *event.Support
	// chkEvents are the scoreboard events guards test, in index order.
	chkEvents []string
	chkIndex  map[string]int
	width     uint // support bits
	// next[state*stride + idx] is the target state; trans holds the
	// fired transition's index within Trans[state] (-1 for none).
	stride int
	next   []int32
	trans  []int32
	// acts[state][ti] is the transition's chk-slot action footprint:
	// the action list pre-resolved to chkEvents indices, in original
	// action order (order matters — a del of a zero count is a no-op, so
	// del-then-add and add-then-del differ). Events outside chkEvents can
	// never influence a guard and are dropped from the resolved form
	// (Compiled keeps name-keyed counts for every action event).
	acts [][][]tableOp
}

// tableOp is one chk-slot increment (del=false) or guarded decrement
// (del=true) of a transition's action list.
type tableOp struct {
	ci  int
	del bool
}

// maxCompileBits caps the table: 2^(support+chk) entries per state.
const maxCompileBits = 20

// CompileTable builds the shared table-driven form of m. It fails when
// the combined support and scoreboard-bit width would make the table
// excessive.
func CompileTable(m *Monitor) (*Table, error) {
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
	var chkEvents []string
	for e := range chkSet {
		chkEvents = append(chkEvents, e)
	}
	sort.Strings(chkEvents)
	totalBits := sup.Len() + len(chkEvents)
	if totalBits > maxCompileBits {
		return nil, fmt.Errorf("monitor: %d support + %d scoreboard bits exceed compile limit %d",
			sup.Len(), len(chkEvents), maxCompileBits)
	}
	t := &Table{
		m:         m,
		sup:       sup,
		chkEvents: chkEvents,
		chkIndex:  map[string]int{},
		width:     uint(sup.Len()),
		stride:    1 << uint(totalBits),
	}
	for i, e := range chkEvents {
		t.chkIndex[e] = i
	}
	t.next = make([]int32, m.States*t.stride)
	t.trans = make([]int32, m.States*t.stride)
	for s := 0; s < m.States; s++ {
		for idx := 0; idx < t.stride; idx++ {
			val := event.Valuation(uint64(idx) & ((1 << t.width) - 1))
			chkBits := uint64(idx) >> t.width
			ctx := compiledCtx{sup: sup, val: val, chk: chkBits, chkIndex: t.chkIndex}
			to, ti := m.Initial, int32(-1)
			for i, tr := range m.Trans[s] {
				if tr.Guard.Eval(ctx) {
					to, ti = tr.To, int32(i)
					break
				}
			}
			t.next[s*t.stride+idx] = int32(to)
			t.trans[s*t.stride+idx] = ti
		}
	}
	t.acts = make([][][]tableOp, m.States)
	for s := 0; s < m.States; s++ {
		t.acts[s] = make([][]tableOp, len(m.Trans[s]))
		for i, tr := range m.Trans[s] {
			for _, a := range tr.Actions {
				for _, e := range a.Events {
					ci, tracked := t.chkIndex[e]
					if !tracked {
						continue
					}
					switch a.Kind {
					case ActAdd:
						t.acts[s][i] = append(t.acts[s][i], tableOp{ci: ci})
					case ActDel:
						t.acts[s][i] = append(t.acts[s][i], tableOp{ci: ci, del: true})
					}
				}
			}
		}
	}
	return t, nil
}

// Monitor returns the automaton the table was compiled from.
func (t *Table) Monitor() *Monitor { return t.m }

// Support returns the support the valuation index bits follow.
func (t *Table) Support() *event.Support { return t.sup }

// ChkEvents returns the scoreboard events guards test (index order).
func (t *Table) ChkEvents() []string { return t.chkEvents }

// Width returns the number of support bits in a table index.
func (t *Table) Width() int { return int(t.width) }

// TableBytes reports the transition table footprint, for sizing
// diagnostics.
func (t *Table) TableBytes() int { return 8 * len(t.next) }

// Fired resolves the fired transition index (-1 none) of a (state,
// index) cell: idx is the support valuation in the low width bits or'd
// with the chk bits above them. It is how a table-bound engine
// (Engine.UseTable) replaces per-guard program evaluation with one load.
func (t *Table) Fired(state int, idx uint64) int {
	return int(t.trans[state*t.stride+int(idx&uint64(t.stride-1))])
}

// ChkFree reports whether no guard of the monitor tests the scoreboard;
// only then is a table index a pure support valuation.
func (t *Table) ChkFree() bool { return len(t.chkEvents) == 0 }

// Compiled is a private cursor (state + scoreboard counters) over a
// shared Table: a step is two table lookups and a handful of counter
// updates. It is the scalar reference LaneBank is differentially tested
// against — lanes copy its semantics bit for bit. It is not the
// monitor: on a hard reset it does not reverse pending Add_evt entries
// the way Engine does, so production stepping uses a table-bound Engine
// (Engine.UseTable) instead.
//
// A Compiled is single-goroutine and owns a private scoreboard (plain
// counters, no locking).
type Compiled struct {
	t *Table
	// counts is the private scoreboard.
	counts map[string]int

	state      int
	accepts    int
	steps      int
	violations int
}

// Compile builds the table-driven form of m with a fresh private
// cursor. The underlying table is not shared; use CompileTable +
// NewInstance to share one table across many instances.
func Compile(m *Monitor) (*Compiled, error) {
	t, err := CompileTable(m)
	if err != nil {
		return nil, err
	}
	return t.NewInstance(), nil
}

// NewInstance returns a fresh cursor over the shared table, starting at
// the initial state with an empty scoreboard.
func (t *Table) NewInstance() *Compiled {
	return &Compiled{t: t, counts: map[string]int{}, state: t.m.Initial}
}

// compiledCtx evaluates guards during table construction.
type compiledCtx struct {
	sup      *event.Support
	val      event.Valuation
	chk      uint64
	chkIndex map[string]int
}

func (c compiledCtx) Event(name string) bool {
	i := c.sup.Index(name)
	return i >= 0 && c.val.Bit(i)
}

func (c compiledCtx) Prop(name string) bool {
	i := c.sup.Index(name)
	return i >= 0 && c.val.Bit(i)
}

func (c compiledCtx) ChkEvt(name string) bool {
	i, ok := c.chkIndex[name]
	return ok && c.chk&(1<<uint(i)) != 0
}

// Step consumes one input element; it reports whether the monitor
// accepted at this tick.
func (c *Compiled) Step(s event.State) bool {
	t := c.t
	idx := uint64(t.sup.Valuation(s))
	for i, e := range t.chkEvents {
		if c.counts[e] > 0 {
			idx |= 1 << (t.width + uint(i))
		}
	}
	base := c.state * t.stride
	to := int(t.next[base+int(idx)])
	ti := t.trans[base+int(idx)]
	if ti >= 0 {
		for _, a := range t.m.Trans[c.state][ti].Actions {
			switch a.Kind {
			case ActAdd:
				for _, e := range a.Events {
					c.counts[e]++
				}
			case ActDel:
				for _, e := range a.Events {
					if c.counts[e] > 0 {
						c.counts[e]--
					}
				}
			}
		}
	}
	// Mirror Engine.finish: the violation sink behaves like a reset, so
	// the table re-arms at Initial in the same tick rather than parking in
	// the sink until the next uncovered input.
	if t.m.Violation != NoState && to == t.m.Violation {
		c.violations++
		to = t.m.Initial
	}
	c.state = to
	c.steps++
	if t.m.IsFinal(to) {
		c.accepts++
		return true
	}
	return false
}

// State returns the current automaton state.
func (c *Compiled) State() int { return c.state }

// Accepts returns the number of acceptances so far.
func (c *Compiled) Accepts() int { return c.accepts }

// Steps returns the number of inputs consumed.
func (c *Compiled) Steps() int { return c.steps }

// Violations returns the number of violation-sink entries so far.
func (c *Compiled) Violations() int { return c.violations }

// Count returns the private scoreboard's occurrence count of e (for
// cross-implementation differential tests).
func (c *Compiled) Count(e string) int { return c.counts[e] }

// Reset returns the monitor to its initial state and clears the private
// scoreboard; counters are preserved.
func (c *Compiled) Reset() {
	c.state = c.t.m.Initial
	c.counts = map[string]int{}
}

// TableBytes reports the transition table footprint, for sizing
// diagnostics.
func (c *Compiled) TableBytes() int { return c.t.TableBytes() }
