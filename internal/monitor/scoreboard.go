package monitor

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Scoreboard is the paper's dynamic scoreboard: it records event
// occurrences so that causality checks (Chk_evt) can be evaluated within
// a clock domain and across domains. Local monitors of different clock
// domains share one scoreboard and synchronize through it, so all
// operations are safe for concurrent use.
//
// Entries are reference-counted: Add_evt increments, Del_evt decrements
// (never below zero), Chk_evt is true while the count is positive. Each
// Add records the global time at which it happened, enabling cross-domain
// ordering diagnostics.
//
// Internally the scoreboard is index-based: event names are interned
// into dense slots on first use and counts live in a slice, so the
// name-keyed API pays one map lookup while the slot API used by compiled
// monitor programs (Slot / AddSlot / DelSlot / ChkBits) touches only
// slice cells. Slots are stable for the scoreboard's lifetime — Reset
// and Restore keep the interner so bound engines stay valid.
type Scoreboard struct {
	mu      sync.Mutex
	index   map[string]int32
	names   []string
	counts  []int32
	addedAt [][]int64
	ops     uint64
}

// NewScoreboard returns an empty scoreboard.
func NewScoreboard() *Scoreboard {
	return &Scoreboard{index: make(map[string]int32)}
}

// slotLocked interns name, returning its slot. Caller holds sb.mu.
func (sb *Scoreboard) slotLocked(name string) int32 {
	if i, ok := sb.index[name]; ok {
		return i
	}
	i := int32(len(sb.names))
	sb.index[name] = i
	sb.names = append(sb.names, name)
	sb.counts = append(sb.counts, 0)
	sb.addedAt = append(sb.addedAt, nil)
	return i
}

// Slot interns name and returns its stable slot index — the binding
// step compiled monitor programs perform once per engine, so that every
// later scoreboard operation is an index into slice counters.
func (sb *Scoreboard) Slot(name string) int32 {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.slotLocked(name)
}

// Slots reports the number of interned slots — the scoreboard's
// resident width, live or not. The server's memory accounting prices a
// session's footprint from it.
func (sb *Scoreboard) Slots() int {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return len(sb.names)
}

// SlotName returns the event name interned at slot i.
func (sb *Scoreboard) SlotName(i int32) string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.names[i]
}

// Add records one occurrence of each named event at global time now.
func (sb *Scoreboard) Add(now int64, events ...string) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	for _, e := range events {
		i := sb.slotLocked(e)
		sb.counts[i]++
		sb.addedAt[i] = append(sb.addedAt[i], now)
		sb.ops++
	}
}

// AddSlots records one occurrence of each slot at global time now.
func (sb *Scoreboard) AddSlots(now int64, slots []int32) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	for _, i := range slots {
		sb.counts[i]++
		sb.addedAt[i] = append(sb.addedAt[i], now)
		sb.ops++
	}
}

// Del erases one recorded occurrence of each named event (no-op when the
// count is already zero — deleting an absent event is benign, matching
// the reversal semantics of backward transitions that may race with
// resets).
func (sb *Scoreboard) Del(events ...string) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	for _, e := range events {
		sb.delLocked(sb.slotLocked(e))
	}
}

// DelSlots erases one recorded occurrence of each slot.
func (sb *Scoreboard) DelSlots(slots []int32) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	for _, i := range slots {
		sb.delLocked(i)
	}
}

func (sb *Scoreboard) delLocked(i int32) {
	if sb.counts[i] > 0 {
		sb.counts[i]--
		if ts := sb.addedAt[i]; len(ts) > 0 {
			sb.addedAt[i] = ts[:len(ts)-1]
		}
	}
	sb.ops++
}

// Chk implements the Chk_evt predicate: event e is currently recorded.
func (sb *Scoreboard) Chk(e string) bool {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if i, ok := sb.index[e]; ok {
		return sb.counts[i] > 0
	}
	return false
}

// ChkBits evaluates Chk_evt for up to 64 slots in one lock acquisition:
// bit i of the result is set when slots[i] is currently recorded. This
// is how a compiled monitor program samples the scoreboard once per tick
// instead of once per Chk_evt atom.
func (sb *Scoreboard) ChkBits(slots []int32) uint64 {
	if len(slots) == 0 {
		return 0
	}
	sb.mu.Lock()
	defer sb.mu.Unlock()
	var bits uint64
	for i, s := range slots {
		if sb.counts[s] > 0 {
			bits |= 1 << uint(i)
		}
	}
	return bits
}

// Count returns the current occurrence count of e.
func (sb *Scoreboard) Count(e string) int {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if i, ok := sb.index[e]; ok {
		return int(sb.counts[i])
	}
	return 0
}

// FirstAddedAt returns the global time of the oldest live occurrence of
// e, and whether one exists.
func (sb *Scoreboard) FirstAddedAt(e string) (int64, bool) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	i, ok := sb.index[e]
	if !ok || len(sb.addedAt[i]) == 0 {
		return 0, false
	}
	return sb.addedAt[i][0], true
}

// Reset clears all entries. Interned slots are kept (engines bound to
// them remain valid); only counts and timestamps are dropped.
func (sb *Scoreboard) Reset() {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	for i := range sb.counts {
		sb.counts[i] = 0
		sb.addedAt[i] = nil
	}
}

// Ops returns the total number of Add/Del operations performed, for the
// scoreboard-overhead benches.
func (sb *Scoreboard) Ops() uint64 {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.ops
}

// Live returns the names with positive counts, sorted.
func (sb *Scoreboard) Live() []string { return sb.liveNames(sb.appendLive(nil)) }

// appendLive appends the slots with positive counts to dst — the
// allocation-free capture a violation record takes.
func (sb *Scoreboard) appendLive(dst []int32) []int32 {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	for i, c := range sb.counts {
		if c > 0 {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

// liveNames returns the names of slots, sorted (nil for none).
func (sb *Scoreboard) liveNames(slots []int32) []string {
	if len(slots) == 0 {
		return nil
	}
	sb.mu.Lock()
	out := make([]string, len(slots))
	for i, s := range slots {
		out[i] = sb.names[s]
	}
	sb.mu.Unlock()
	sort.Strings(out)
	return out
}

// String renders e.g. "scoreboard{MCmdRd:1, Burst4:1}".
func (sb *Scoreboard) String() string {
	live := sb.Live()
	sb.mu.Lock()
	defer sb.mu.Unlock()
	parts := make([]string, 0, len(live))
	for _, e := range live {
		parts = append(parts, fmt.Sprintf("%s:%d", e, sb.counts[sb.index[e]]))
	}
	return "scoreboard{" + strings.Join(parts, ", ") + "}"
}
