package monitor

import (
	"fmt"
	"sort"

	"repro/internal/event"
	"repro/internal/expr"
)

// Table is the transition function of a monitor precomputed over every
// (input valuation, scoreboard-bit vector) pair: for each cell it holds
// the index of the transition that fires. It is immutable and shareable:
// one Table resolves fired transitions for any number of table-bound
// engines (Engine.UseTable) concurrently — it is read-only after
// CompileTable returns, so sharing needs no locks.
type Table struct {
	m   *Monitor
	sup *event.Support
	// chkEvents are the scoreboard events guards test, in index order.
	chkEvents []string
	width     uint // support bits
	// trans[state*stride + idx] is the fired transition's index within
	// Trans[state] (-1 for none).
	stride int
	trans  []int32
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
		width:     uint(sup.Len()),
		stride:    1 << uint(totalBits),
	}
	chkIndex := make(map[string]int, len(chkEvents))
	for i, e := range chkEvents {
		chkIndex[e] = i
	}
	t.trans = make([]int32, m.States*t.stride)
	for s := 0; s < m.States; s++ {
		for idx := 0; idx < t.stride; idx++ {
			ctx := tableCtx{
				sup:      sup,
				val:      event.Valuation(uint64(idx) & ((1 << t.width) - 1)),
				chk:      uint64(idx) >> t.width,
				chkIndex: chkIndex,
			}
			ti := int32(-1)
			for i, tr := range m.Trans[s] {
				if tr.Guard.Eval(ctx) {
					ti = int32(i)
					break
				}
			}
			t.trans[s*t.stride+idx] = ti
		}
	}
	return t, nil
}

// TableBytes reports the transition table footprint, for sizing
// diagnostics.
func (t *Table) TableBytes() int { return 4 * len(t.trans) }

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

// tableCtx evaluates guards during table construction.
type tableCtx struct {
	sup      *event.Support
	val      event.Valuation
	chk      uint64
	chkIndex map[string]int
}

func (c tableCtx) Event(name string) bool {
	i := c.sup.Index(name)
	return i >= 0 && c.val.Bit(i)
}

func (c tableCtx) Prop(name string) bool {
	i := c.sup.Index(name)
	return i >= 0 && c.val.Bit(i)
}

func (c tableCtx) ChkEvt(name string) bool {
	i, ok := c.chkIndex[name]
	return ok && c.chk&(1<<uint(i)) != 0
}
