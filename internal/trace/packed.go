package trace

import "repro/internal/event"

// Pack projects every state of the trace onto the support's slots —
// the offline analog of the daemon's decode-once ingest: the symbol
// table is consulted once per tick here, and replaying the packed trace
// through program engines is pure bit arithmetic.
func (t Trace) Pack(sup *event.Support) []event.Packed {
	out := make([]event.Packed, len(t))
	for i, s := range t {
		out[i] = sup.Pack(s)
	}
	return out
}
