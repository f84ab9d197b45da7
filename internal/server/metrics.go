package server

import (
	"expvar"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wal"
)

// metrics aggregates daemon-wide counters. Shard workers are the only
// writers of the throughput counters (one writer per shard, atomics for
// cross-shard aggregation); HTTP handlers write the request counters.
type metrics struct {
	start time.Time

	ticksTotal      atomic.Uint64 // valuation ticks processed
	batchesTotal    atomic.Uint64 // tick batches processed
	laneGroupTicks  atomic.Uint64 // ticks stepped via the shared transition table
	rejectedTotal   atomic.Uint64 // 429 responses (shard queue full)
	acceptsTotal    atomic.Uint64 // monitor acceptances across sessions
	violationsTotal atomic.Uint64 // monitor violations across sessions
	sessionsCreated atomic.Uint64
	// The old sessions_evicted counter conflated losing a session with
	// parking it; it is now split. The JSON field SessionsEvicted remains
	// as the sum for dashboard compatibility.
	sessionsPaged   atomic.Uint64 // checkpointed to WAL and dropped cold (idle or pressure)
	sessionsDeleted atomic.Uint64 // explicit deletes + WAL-less idle evictions (state gone)
	sessionsRevived atomic.Uint64 // cold sessions rebuilt on first touch

	// Shed counters, one per governor degradation stage.
	shedWait     atomic.Uint64 // ?wait=1 demoted to async 202
	shedSessions atomic.Uint64 // session creations throttled 429
	shedPageouts atomic.Uint64 // pressure/governor-forced page-outs

	monitorsQuarantined atomic.Uint64 // engines fenced off after a step panic
	sessionsRecovered   atomic.Uint64 // sessions rebuilt from the WAL at startup
	batchesReplayed     atomic.Uint64 // journal-tail batches re-applied at startup
	batchesDeduped      atomic.Uint64 // ?seq retries absorbed by the watermark
	walErrors           atomic.Uint64 // journal append/snapshot failures
	walSnapshots        atomic.Uint64 // checkpoints written
	journalBytes        atomic.Int64  // measured on-disk journal bytes (gauge)
	journalPruned       atomic.Uint64 // cold sessions deleted by the journal budget

	sessionsMigratedOut atomic.Uint64 // live handoffs shipped to a new owner
	sessionsMigratedIn  atomic.Uint64 // sessions adopted (handoff or standby promotion)

	latency *histogram // enqueue-to-processed latency per tick

	// stage histograms dimension the pipeline: one fixed histogram per
	// processing stage. The map is built once and never mutated, so
	// lookups need no lock.
	stages map[string]*histogram

	// Per-spec verdict counters live here — on the daemon, not the
	// session — so evicting or deleting a session never loses the
	// verdict totals of the specs it ran.
	specMu         sync.Mutex
	specAccepts    map[string]uint64
	specViolations map[string]uint64
}

// stageNames are the dimensioned pipeline stages; each gets a latency
// histogram labelled stage=<name> in the Prometheus exposition.
var stageNames = []string{"decode", "enqueue", "queue_wait", "step", "verdict", "wal_append", "wal_replay"}

func newMetrics() *metrics {
	m := &metrics{
		start:          time.Now(),
		latency:        newHistogram(),
		stages:         make(map[string]*histogram, len(stageNames)),
		specAccepts:    make(map[string]uint64),
		specViolations: make(map[string]uint64),
	}
	for _, st := range stageNames {
		m.stages[st] = newHistogram()
	}
	return m
}

// observeStage records one latency sample for a pipeline stage; unknown
// stages are dropped rather than allocated, keeping label cardinality
// fixed.
func (m *metrics) observeStage(stage string, d time.Duration) {
	if h, ok := m.stages[stage]; ok {
		h.observe(d)
	}
}

// addSpecCounts folds one batch's per-spec verdict deltas into the
// daemon-lifetime counters.
func (m *metrics) addSpecCounts(spec string, accepts, violations uint64) {
	if accepts == 0 && violations == 0 {
		return
	}
	m.specMu.Lock()
	m.specAccepts[spec] += accepts
	m.specViolations[spec] += violations
	m.specMu.Unlock()
}

// specCounts snapshots the per-spec counters.
func (m *metrics) specCounts() (accepts, violations map[string]uint64) {
	m.specMu.Lock()
	defer m.specMu.Unlock()
	accepts = make(map[string]uint64, len(m.specAccepts))
	for k, v := range m.specAccepts {
		accepts[k] = v
	}
	violations = make(map[string]uint64, len(m.specViolations))
	for k, v := range m.specViolations {
		violations[k] = v
	}
	return accepts, violations
}

// ShardSnapshot reports one shard's queue state.
type ShardSnapshot struct {
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_cap"`
	Ticks      uint64 `json:"ticks"`
	Sessions   int    `json:"sessions"`
}

// MetricsSnapshot is the JSON body of GET /metrics.
type MetricsSnapshot struct {
	UptimeSec       float64 `json:"uptime_sec"`
	TicksTotal      uint64  `json:"ticks_total"`
	TicksPerSec     float64 `json:"ticks_per_sec"`
	BatchesTotal    uint64  `json:"batches_total"`
	LaneGroupTicks  uint64  `json:"lane_group_ticks"`
	RejectedTotal   uint64  `json:"rejected_total"`
	AcceptsTotal    uint64  `json:"accepts_total"`
	ViolationsTotal uint64  `json:"violations_total"`
	SessionsActive  int     `json:"sessions_active"`
	SessionsCreated uint64  `json:"sessions_created"`
	// SessionsEvicted is the legacy sum SessionsPaged + SessionsDeleted,
	// kept so pre-split dashboards keep reading a meaningful series.
	SessionsEvicted uint64 `json:"sessions_evicted"`
	SessionsPaged   uint64 `json:"sessions_paged"`
	SessionsDeleted uint64 `json:"sessions_deleted"`
	SessionsRevived uint64 `json:"sessions_revived"`
	SessionsCold    int    `json:"sessions_cold"`
	// SessionPaths counts live sessions by execution path ("table" or
	// "packed", as GET /sessions reports each one).
	SessionPaths map[string]int `json:"session_paths"`

	// Memory budget and overload control (zero when unconfigured).
	MemUsedBytes   int64   `json:"mem_used_bytes"`
	MemBudgetBytes int64   `json:"mem_budget_bytes,omitempty"`
	GovernorLevel  int     `json:"governor_level"`
	GovernorScore  float64 `json:"governor_score"`
	ShedWait       uint64  `json:"shed_wait"`
	ShedSessions   uint64  `json:"shed_sessions"`
	ShedPageouts   uint64  `json:"shed_pageouts"`

	// Tenants maps tenant keys to their quota accounting.
	Tenants        map[string]TenantSnapshot `json:"tenants,omitempty"`
	SpecsLoaded    int                       `json:"specs_loaded"`
	Shards         []ShardSnapshot           `json:"shards"`
	TickLatencyP50 int64                     `json:"tick_latency_p50_ns"`
	TickLatencyP99 int64                     `json:"tick_latency_p99_ns"`
	TickLatencyN   uint64                    `json:"tick_latency_samples"`

	MonitorsQuarantined uint64     `json:"monitors_quarantined"`
	SessionsRecovered   uint64     `json:"sessions_recovered"`
	BatchesReplayed     uint64     `json:"batches_replayed"`
	BatchesDeduped      uint64     `json:"batches_deduped"`
	WALErrors           uint64     `json:"wal_errors"`
	WALSnapshots        uint64     `json:"wal_snapshots"`
	JournalBytes        int64      `json:"journal_bytes"`
	JournalBudgetBytes  int64      `json:"journal_budget_bytes,omitempty"`
	JournalPruned       uint64     `json:"journal_pruned"`
	WAL                 *wal.Stats `json:"wal,omitempty"` // nil when journaling is off

	// Cluster handoff counters (always present; zero on a standalone
	// node). The cluster layer's own metrics ride on top at
	// /cluster/status.
	SessionsMigratedOut uint64 `json:"sessions_migrated_out"`
	SessionsMigratedIn  uint64 `json:"sessions_migrated_in"`

	// Dimensioned observability (PR 5): per-spec verdict counters that
	// survive session eviction, per-stage p99 latencies, and the tracing
	// plane's own counters.
	PerSpecAccepts    map[string]uint64 `json:"per_spec_accepts,omitempty"`
	PerSpecViolations map[string]uint64 `json:"per_spec_violations,omitempty"`
	StageLatencyP99   map[string]int64  `json:"stage_latency_p99_ns,omitempty"`
	TraceSpans        uint64            `json:"trace_spans"`
	SlowBatches       uint64            `json:"slow_batches"`
}

// snapshot assembles the exported view; the server fills in the parts it
// owns (shards, sessions, specs).
func (m *metrics) snapshot() MetricsSnapshot {
	uptime := time.Since(m.start).Seconds()
	ticks := m.ticksTotal.Load()
	rate := 0.0
	if uptime > 0 {
		rate = float64(ticks) / uptime
	}
	accepts, violations := m.specCounts()
	stageP99 := make(map[string]int64, len(m.stages))
	for name, h := range m.stages {
		if h.count() > 0 {
			stageP99[name] = int64(h.quantile(0.99))
		}
	}
	return MetricsSnapshot{
		PerSpecAccepts:    accepts,
		PerSpecViolations: violations,
		StageLatencyP99:   stageP99,

		UptimeSec:       uptime,
		TicksTotal:      ticks,
		TicksPerSec:     rate,
		BatchesTotal:    m.batchesTotal.Load(),
		LaneGroupTicks:  m.laneGroupTicks.Load(),
		RejectedTotal:   m.rejectedTotal.Load(),
		AcceptsTotal:    m.acceptsTotal.Load(),
		ViolationsTotal: m.violationsTotal.Load(),
		SessionsCreated: m.sessionsCreated.Load(),
		SessionsEvicted: m.sessionsPaged.Load() + m.sessionsDeleted.Load(),
		SessionsPaged:   m.sessionsPaged.Load(),
		SessionsDeleted: m.sessionsDeleted.Load(),
		SessionsRevived: m.sessionsRevived.Load(),
		ShedWait:        m.shedWait.Load(),
		ShedSessions:    m.shedSessions.Load(),
		ShedPageouts:    m.shedPageouts.Load(),
		TickLatencyP50:  int64(m.latency.quantile(0.50)),
		TickLatencyP99:  int64(m.latency.quantile(0.99)),
		TickLatencyN:    m.latency.count(),

		MonitorsQuarantined: m.monitorsQuarantined.Load(),
		SessionsRecovered:   m.sessionsRecovered.Load(),
		BatchesReplayed:     m.batchesReplayed.Load(),
		BatchesDeduped:      m.batchesDeduped.Load(),
		WALErrors:           m.walErrors.Load(),
		WALSnapshots:        m.walSnapshots.Load(),
		JournalBytes:        m.journalBytes.Load(),
		JournalPruned:       m.journalPruned.Load(),

		SessionsMigratedOut: m.sessionsMigratedOut.Load(),
		SessionsMigratedIn:  m.sessionsMigratedIn.Load(),
	}
}

// expvar integration: the most recently constructed server is exported
// under the "cescd" var so /debug/vars includes daemon metrics. expvar
// forbids re-publishing a name, hence the once + swappable pointer
// (tests construct many servers in one process).
var (
	expvarOnce sync.Once
	expvarSrv  atomic.Pointer[Server]
)

func publishExpvar(s *Server) {
	expvarSrv.Store(s)
	expvarOnce.Do(func() {
		expvar.Publish("cescd", expvar.Func(func() any {
			if srv := expvarSrv.Load(); srv != nil {
				return srv.Metrics()
			}
			return nil
		}))
	})
}
