package monitor

import (
	"fmt"

	"repro/internal/event"
)

// Execution-state snapshots: everything an Engine accumulates at
// runtime — automaton position, tick counter, stats, pending scoreboard
// reversals, the diagnostic ring, and the scoreboard itself — captured
// as plain JSON-marshalable values. The cescd WAL journals these
// periodically so crash recovery restores a session and replays only
// the journal tail, with verdicts identical to an uninterrupted run.
// The automaton itself is not part of the snapshot: it is rebuilt from
// the journaled spec source (see Monitor's own JSON form in json.go).

// EngineSnapshot is the serializable execution state of an Engine.
type EngineSnapshot struct {
	State   int           `json:"state"`
	Tick    int           `json:"tick"`
	Stats   Stats         `json:"stats"`
	Pending []string      `json:"pending,omitempty"`
	Diag    *DiagSnapshot `json:"diag,omitempty"`
}

// DiagSnapshot is the serializable state of an engine's diagnostics:
// the recent-input ring plus the violation reports, rendered as
// Diagnostics renders them.
type DiagSnapshot struct {
	Depth   int           `json:"depth"`
	Ring    []event.State `json:"ring"`
	Next    int           `json:"next"`
	Filled  bool          `json:"filled"`
	Reports []Diagnostic  `json:"reports,omitempty"`
}

// Snapshot captures the engine's execution state. The returned value
// shares no mutable structure with the engine.
func (e *Engine) Snapshot() EngineSnapshot {
	snap := EngineSnapshot{
		State:   e.state,
		Tick:    e.tick,
		Stats:   e.stats,
		Pending: append([]string(nil), e.pending...),
	}
	if e.diag != nil {
		d := &DiagSnapshot{
			Depth:  e.diag.depth,
			Ring:   make([]event.State, len(e.diag.ring)),
			Next:   e.diag.next,
			Filled: e.diag.filled,
		}
		for i := range e.diag.ring {
			d.Ring[i] = cloneMaybe(e.diag.state(i))
		}
		for _, r := range e.Diagnostics() {
			d.Reports = append(d.Reports, cloneDiagnostic(r))
		}
		snap.Diag = d
	}
	return snap
}

// Restore replaces the engine's execution state with a snapshot
// (automaton and mode are unchanged; the scoreboard is restored
// separately via Scoreboard.Restore).
func (e *Engine) Restore(snap EngineSnapshot) error {
	if snap.State < 0 || snap.State >= e.m.States {
		return fmt.Errorf("monitor: snapshot state %d out of range for %q (%d states)",
			snap.State, e.m.Name, e.m.States)
	}
	if snap.Tick < 0 {
		return fmt.Errorf("monitor: snapshot tick %d negative", snap.Tick)
	}
	e.state = snap.State
	e.tick = snap.Tick
	e.stats = snap.Stats
	e.pending = append([]string(nil), snap.Pending...)
	if snap.Diag == nil {
		e.diag = nil
		return nil
	}
	d := snap.Diag
	if d.Depth <= 0 || len(d.Ring) != d.Depth || d.Next < 0 || d.Next >= d.Depth {
		return fmt.Errorf("monitor: snapshot diagnostics malformed (depth %d, ring %d, next %d)",
			d.Depth, len(d.Ring), d.Next)
	}
	// Rebuild the ring exactly as EnableDiagnostics would, then fill it
	// with the snapshot's map entries: restored inputs stay verbatim until
	// later steps overwrite their slots. Restored reports are kept as
	// rendered records; only the newest maxDiagnostics fit the ring.
	ds := newDiagState(e, d.Depth)
	ds.next, ds.filled = d.Next, d.Filled
	for i, s := range d.Ring {
		ds.ring[i] = cloneMaybe(s)
	}
	for _, r := range d.Reports[max(0, len(d.Reports)-maxDiagnostics):] {
		rep := cloneDiagnostic(r)
		ds.record().done = &rep
	}
	e.diag = ds
	return nil
}

// cloneMaybe deep-copies a state, tolerating the zero State (nil maps)
// that unfilled ring slots and JSON round trips produce.
func cloneMaybe(s event.State) event.State {
	if s.Events == nil && s.Props == nil {
		return s
	}
	c := event.NewState()
	for k, v := range s.Props {
		c.Props[k] = v
	}
	for k, v := range s.Events {
		c.Events[k] = v
	}
	return c
}

func cloneDiagnostic(d Diagnostic) Diagnostic {
	out := Diagnostic{
		Monitor:    d.Monitor,
		Tick:       d.Tick,
		FromState:  d.FromState,
		GridLine:   d.GridLine,
		Guard:      d.Guard,
		Guards:     append([]string(nil), d.Guards...),
		Valuation:  d.Valuation,
		Input:      cloneMaybe(d.Input),
		Scoreboard: append([]string(nil), d.Scoreboard...),
	}
	for _, r := range d.Recent {
		out.Recent = append(out.Recent, cloneMaybe(r))
	}
	return out
}

// ScoreboardSnapshot is the serializable state of a Scoreboard. Since
// the interned scoreboard (snapshot format v3) live entries are encoded
// as parallel slices keyed by slot name; the map fields are the v2
// (PR-2) encoding, which Restore still accepts so journals written
// before the format bump replay unchanged.
type ScoreboardSnapshot struct {
	// Packed (v3) form: Slots[i] has count SlotCounts[i] and live
	// timestamps SlotAddedAt[i]. Only live slots are emitted.
	Slots       []string  `json:"slots,omitempty"`
	SlotCounts  []int     `json:"slot_counts,omitempty"`
	SlotAddedAt [][]int64 `json:"slot_added_at,omitempty"`
	// Map (v2) form, accepted on restore for backward compatibility.
	Counts  map[string]int     `json:"counts,omitempty"`
	AddedAt map[string][]int64 `json:"added_at,omitempty"`
	Ops     uint64             `json:"ops"`
}

// Snapshot captures the scoreboard's entries and op counter in the
// packed form.
func (sb *Scoreboard) Snapshot() ScoreboardSnapshot {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	snap := ScoreboardSnapshot{Ops: sb.ops}
	for i, c := range sb.counts {
		if c == 0 && len(sb.addedAt[i]) == 0 {
			continue
		}
		snap.Slots = append(snap.Slots, sb.names[i])
		snap.SlotCounts = append(snap.SlotCounts, int(c))
		snap.SlotAddedAt = append(snap.SlotAddedAt, append([]int64(nil), sb.addedAt[i]...))
	}
	return snap
}

// Restore replaces the scoreboard's entries with a snapshot (either the
// packed v3 form or the map-based v2 form). Interned slots are kept and
// extended by name, so engines bound before the restore stay valid.
func (sb *Scoreboard) Restore(snap ScoreboardSnapshot) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	for i := range sb.counts {
		sb.counts[i] = 0
		sb.addedAt[i] = nil
	}
	sb.ops = snap.Ops
	if len(snap.Slots) > 0 {
		for i, name := range snap.Slots {
			s := sb.slotLocked(name)
			if i < len(snap.SlotCounts) {
				sb.counts[s] = int32(snap.SlotCounts[i])
			}
			if i < len(snap.SlotAddedAt) {
				sb.addedAt[s] = append([]int64(nil), snap.SlotAddedAt[i]...)
			}
		}
		return
	}
	for k, v := range snap.Counts {
		sb.counts[sb.slotLocked(k)] = int32(v)
	}
	for k, v := range snap.AddedAt {
		sb.addedAt[sb.slotLocked(k)] = append([]int64(nil), v...)
	}
}
