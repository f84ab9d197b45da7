// Package obs is the daemon's zero-dependency observability plane:
// tick-trace spans captured in lock-free ring buffers, a Prometheus
// text-format exposition writer, and a slow-tick watchdog. The package
// deliberately imports nothing beyond the standard library — the paper's
// point is that synthesized monitors help an engineer *debug* a design,
// and this layer extends the same courtesy to the daemon itself: an
// operator can see which session, stage, and trace id a slow or
// violating tick belongs to, not just that the totals moved.
//
// Everything here is safe for concurrent use, and every disabled path is
// allocation-free: a Tracer that is off returns before touching its
// rings, so the packed hot path (monitor.Engine.StepPacked under a shard
// worker) pays one predictable branch.
package obs

import (
	"sync/atomic"
	"time"
)

// Stage names the pipeline position a span measures. The set is small
// and fixed so metric label cardinality stays bounded.
const (
	StageIngest    = "ingest"     // HTTP handler: request accepted
	StageDecode    = "decode"     // wire ticks -> event.State (+ pack)
	StageEnqueue   = "enqueue"    // shard queue admission
	StageQueueWait = "queue_wait" // enqueue -> worker dequeue
	StageStep      = "step"       // monitor stepping (whole batch)
	StageVerdict   = "verdict"    // verdict/diagnostic readout
	StageWALAppend = "wal_append" // journal append for one batch
	StageWALReplay = "wal_replay" // recovery replay of one session
	StageProxy     = "proxy"      // cluster layer: request relayed to the ring owner
)

// Span is one timed pipeline stage of one tick batch. Spans are written
// by shard workers and HTTP handlers and read by the /debug/trace
// endpoint; they are correlated across stages (and across the network)
// by Trace, the client-propagated X-Cesc-Trace id.
type Span struct {
	// Seq is a tracer-global sequence number: snapshot order is Seq
	// order, which is write order.
	Seq uint64 `json:"seq"`
	// Trace is the correlation id (client-propagated or server-assigned).
	Trace string `json:"trace,omitempty"`
	// Session is the session the batch belongs to ("" for daemon-wide
	// work such as recovery of an unknown session).
	Session string `json:"session,omitempty"`
	// Stage is one of the Stage* constants.
	Stage string `json:"stage"`
	// Shard is the shard worker involved, -1 when not applicable.
	Shard int `json:"shard"`
	// Start is the wall-clock stage start.
	Start time.Time `json:"start"`
	// Dur is the stage duration.
	Dur time.Duration `json:"dur_ns"`
	// Ticks is the number of valuation ticks the stage covered.
	Ticks int `json:"ticks,omitempty"`
	// Note carries stage-specific detail (error text, record counts).
	Note string `json:"note,omitempty"`

	// Cross-node fields (PR 10). Node is the cluster member that recorded
	// the span (tracer-stamped, "" standalone); Parent is the parent-span
	// token ("node@hlc") the request carried in via X-Cesc-Parent, tying
	// this span under the hop that forwarded it; Kind classifies the span
	// beyond its pipeline stage ("proxy", "promotion", "recovery",
	// "migration"); HLC is the hybrid-logical-clock reading that makes
	// the cluster-merged timeline causal rather than wall-clock-ordered.
	Node   string `json:"node,omitempty"`
	Parent string `json:"parent,omitempty"`
	Kind   string `json:"kind,omitempty"`
	HLC    uint64 `json:"hlc,omitempty"`
}

// Tracer captures spans into per-shard lock-free rings. The zero value
// is a disabled tracer; build a live one with NewTracer. All methods are
// safe for concurrent use from any number of goroutines.
type Tracer struct {
	rings   []*Ring
	seq     atomic.Uint64
	total   atomic.Uint64
	enabled atomic.Bool
	// node is stamped on every recorded span (set once before traffic via
	// SetNode; "" on standalone daemons keeps the field out of the JSON).
	node string
}

// SetNode names the cluster member this tracer records for. It must be
// called before any span is recorded (the server does so during
// construction); the field is read without synchronization afterwards.
func (t *Tracer) SetNode(name string) {
	if t != nil {
		t.node = name
	}
}

// Node returns the name stamped on recorded spans.
func (t *Tracer) Node() string {
	if t == nil {
		return ""
	}
	return t.node
}

// NewTracer returns a tracer with one ring of depth slots per shard
// (plus one extra ring for work not pinned to a shard). depth <= 0
// disables tracing entirely: Record becomes a no-op branch.
func NewTracer(shards, depth int) *Tracer {
	t := &Tracer{}
	if depth <= 0 {
		return t
	}
	if shards < 1 {
		shards = 1
	}
	t.rings = make([]*Ring, shards+1)
	for i := range t.rings {
		t.rings[i] = NewRing(depth)
	}
	t.enabled.Store(true)
	return t
}

// Enabled reports whether spans are being captured.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// Spans reports the number of spans recorded since start (including
// those already overwritten in their rings).
func (t *Tracer) Spans() uint64 {
	if t == nil {
		return 0
	}
	return t.total.Load()
}

// Record captures one span into the ring of shard (a negative shard
// selects the unpinned ring). When the tracer is disabled the call
// returns immediately and performs no allocation — the hot path's
// guarantee.
func (t *Tracer) Record(shard int, sp Span) {
	if t == nil || !t.enabled.Load() {
		return
	}
	sp.Seq = t.seq.Add(1)
	sp.Shard = shard
	if sp.Node == "" {
		sp.Node = t.node
	}
	if sp.HLC == 0 {
		sp.HLC = Clock.Now()
	}
	t.total.Add(1)
	r := t.rings[len(t.rings)-1]
	if shard >= 0 && shard < len(t.rings)-1 {
		r = t.rings[shard]
	}
	c := new(Span)
	*c = sp
	r.Put(c)
}

// RecordBatch records a batch's worth of spans with one sequence claim,
// one counter add, and one slab allocation for the whole batch — the
// amortized write path for batch-stepped shards, where per-span Record
// calls would tax the hot loop k times per batch. Span order within the
// batch is preserved in Seq order.
func (t *Tracer) RecordBatch(shard int, spans []Span) {
	if t == nil || len(spans) == 0 || !t.enabled.Load() {
		return
	}
	base := t.seq.Add(uint64(len(spans))) - uint64(len(spans))
	t.total.Add(uint64(len(spans)))
	r := t.rings[len(t.rings)-1]
	if shard >= 0 && shard < len(t.rings)-1 {
		r = t.rings[shard]
	}
	slab := make([]Span, len(spans))
	copy(slab, spans)
	for i := range slab {
		slab[i].Seq = base + uint64(i) + 1
		slab[i].Shard = shard
		if slab[i].Node == "" {
			slab[i].Node = t.node
		}
		if slab[i].HLC == 0 {
			slab[i].HLC = Clock.Now()
		}
		r.Put(&slab[i])
	}
}

// Snapshot collects the retained spans of every ring, filtered by keep
// (nil keeps all), ordered by Seq (write order), keeping only the newest
// n when n > 0.
func (t *Tracer) Snapshot(keep func(*Span) bool, n int) []Span {
	if t == nil || !t.enabled.Load() {
		return nil
	}
	var out []Span
	for _, r := range t.rings {
		for _, sp := range r.Snapshot() {
			if keep == nil || keep(sp) {
				out = append(out, *sp)
			}
		}
	}
	sortSpans(out)
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// sortSpans orders by Seq ascending (insertion sort is fine: snapshots
// are bounded by ring depth and nearly sorted per ring).
func sortSpans(s []Span) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Seq < s[j-1].Seq; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
