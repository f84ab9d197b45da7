// Package server is the monitor-as-a-service layer: a long-running HTTP
// daemon (cmd/cescd) that loads .cesc specifications, synthesizes their
// assertion monitors, and runs them against valuation-tick streams sent
// by network clients. It closes the gap between the paper's offline
// Fig. 4 flow — attach monitors to one simulation run, read verdicts —
// and a production setting where long communication traces from live
// designs arrive continuously and monitors live inside the running
// system.
//
// Concurrency model: sessions are pinned to shards by ID hash; each
// shard is one worker goroutine draining a bounded FIFO queue of tick
// batches. One writer per session means engines need no locking beyond
// the session mutex that serializes verdict reads, per-session tick
// order is queue order, and a full queue is surfaced to clients as 429 +
// Retry-After rather than unbounded buffering. Shutdown closes the
// queues and drains every accepted batch before returning.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Config tunes the daemon; zero values select the documented defaults.
type Config struct {
	// Shards is the number of worker goroutines (default 4).
	Shards int
	// QueueDepth is the per-shard bounded queue length in batches
	// (default 64). A full queue rejects ticks with 429.
	QueueDepth int
	// MaxBatchTicks caps the ticks accepted in one request (default
	// 65536; larger bodies get 413).
	MaxBatchTicks int
	// IdleTTL pages out sessions with no activity for this long (0
	// disables the idle sweep). With journaling enabled the session's
	// state is checkpointed to its WAL and revived transparently on the
	// next request; without a journal, idle eviction remains deletion.
	IdleTTL time.Duration
	// SweepEvery is the janitor sweep period (default IdleTTL/4,
	// minimum 1s; 1s when only MemBudget arms the janitor).
	SweepEvery time.Duration

	// MemBudget caps the estimated resident bytes of hot session state
	// (priced per session from packed scoreboard sizes); past it, the
	// janitor pages out the coldest journaled sessions until back under
	// budget. 0 disables the budget. Effective only with WALDir set —
	// sessions without a journal have nowhere durable to page to.
	MemBudget int64

	// JournalBudget caps the on-disk bytes of the WALDir journal
	// directory. Past it, the janitor deletes the journals of cold paged
	// sessions oldest-checkpoint-first (state loss, counted in
	// journal_pruned); hot sessions' journals are never touched. 0
	// disables the cap. Effective only with WALDir set.
	JournalBudget int64

	// TenantHeader names the request header whose value keys a new
	// session to a tenant for quota accounting (default "X-Cesc-Tenant").
	// Sessions created without the header are keyed by their session-ID
	// prefix.
	TenantHeader string
	// QuotaTickRate arms per-tenant token-bucket ingest limits, in ticks
	// per second (0 disables); QuotaTickBurst is the bucket size
	// (default: one second's rate). A batch that outruns the bucket is
	// rejected 429 + Retry-After with X-Cesc-Quota: ticks.
	QuotaTickRate  float64
	QuotaTickBurst float64
	// QuotaMaxSessions caps a tenant's open sessions, hot + cold
	// (0 disables); creation past the cap is a terminal 429 with
	// X-Cesc-Quota: sessions.
	QuotaMaxSessions int
	// QuotaHotSessions caps a tenant's hot sessions (0 disables). This
	// is fairness, not rejection: a tenant going past it gets its own
	// coldest session paged out instead.
	QuotaHotSessions int

	// GovernorLatency is the smoothed per-tick step latency the load
	// governor treats as saturation (score 1.0; default 100ms).
	GovernorLatency time.Duration

	// ColdStart registers journaled sessions found at startup as cold
	// instead of eagerly replaying them, so a node fronting a huge
	// session population is ready immediately and pays replay lazily on
	// first touch. Default off: small fleets prefer warm caches.
	ColdStart bool
	// TickDelay inserts an artificial per-tick processing delay — a load
	// and backpressure test aid, never set in production.
	TickDelay time.Duration

	// WALDir enables crash-safe session journaling: every session's
	// accepted batches are appended to a per-session journal under this
	// directory, and New rebuilds journaled sessions found there. Empty
	// disables journaling.
	WALDir string
	// WALSegmentBytes is the journal segment rotation size (see
	// wal.Options; 0 selects the wal default).
	WALSegmentBytes int64
	// Fsync selects the journal durability policy (default
	// wal.SyncInterval: a background fsync of every dirty journal each
	// FsyncEvery, so no batch issues an fsync and an acknowledged batch
	// is durable within one FsyncEvery plus one syncer pass). FsyncEvery
	// is the interval policy's period (0 selects the wal default, 100ms).
	// A failed fsync is never retried: every later batch of the session,
	// a retry included, answers 500.
	Fsync      wal.SyncPolicy
	FsyncEvery time.Duration
	// SnapshotEvery checkpoints a session's monitor state every N
	// journaled batches and prunes the journal behind the checkpoint, so
	// recovery replays only the tail (default 256; negative disables
	// snapshots, keeping the whole journal).
	SnapshotEvery int

	// TraceDepth enables tick tracing: each shard keeps a lock-free ring
	// of the most recent TraceDepth pipeline spans (ingest, decode,
	// enqueue, queue wait, step, WAL append/replay), served as JSON from
	// GET /debug/trace. 0 disables tracing entirely — the record path
	// becomes a single branch with no allocation.
	TraceDepth int
	// SlowTick arms the slow-tick watchdog: a batch whose per-tick
	// stepping time exceeds this threshold is counted and logged (rate
	// limited) with its trace id. 0 disables.
	SlowTick time.Duration

	// NodeName is the cluster member name stamped on every recorded span
	// (and the flight recorder's dumps), so cluster-merged timelines can
	// attribute spans to nodes. Empty on standalone daemons.
	NodeName string

	// FlightWindow is the black-box flight recorder's retention window:
	// the last FlightWindow of notable events (governor transitions,
	// watchdog trips, quarantines, WAL errors) and spans are kept ready to
	// dump. <= 0 selects 30s; the recorder itself is always on.
	FlightWindow time.Duration
	// FlightDir is where trip-triggered flight-recorder dumps land as
	// timestamped JSON files. Empty disables file dumps; the live buffer
	// stays served from GET /debug/flightrec regardless.
	FlightDir string

	// Faults wires a deterministic fault-injection plane through the
	// daemon (WAL writes, monitor stepping, ingest responses). Tests
	// only; nil means no faults.
	Faults *faultinject.Plane

	// IDFilter, when set, constrains freshly minted session IDs: session
	// creation draws random IDs until the filter accepts one. The cluster
	// layer uses it to mint only IDs the local node owns under the
	// current hash ring, so a freshly created session never needs an
	// immediate migration. Must be fast and side-effect free.
	IDFilter func(id string) bool
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxBatchTicks <= 0 {
		c.MaxBatchTicks = 65536
	}
	if (c.IdleTTL > 0 || c.MemBudget > 0 || c.JournalBudget > 0) && c.SweepEvery <= 0 {
		c.SweepEvery = c.IdleTTL / 4
		if c.SweepEvery < time.Second {
			c.SweepEvery = time.Second
		}
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 256
	}
	if c.TenantHeader == "" {
		c.TenantHeader = "X-Cesc-Tenant"
	}
	if c.GovernorLatency <= 0 {
		c.GovernorLatency = defaultGovLat
	}
	return c
}

// Server is the cescd daemon core: spec registry, session table, shard
// pool, and HTTP API. Create with New, serve via Handler, stop with
// Close.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	specs    *registry
	metrics  *metrics
	tracer   *obs.Tracer   // disabled (nil-safe no-op) unless Config.TraceDepth > 0
	watchdog *obs.Watchdog // disabled unless Config.SlowTick > 0
	flight   *obs.FlightRecorder
	wal      *wal.Manager // nil when journaling is disabled

	// lastShedLog rate-limits governor shed-decision log lines (1/s), the
	// same discipline the watchdog applies — shedding under sustained
	// overload must not turn every request into a log write.
	lastShedLog atomic.Int64

	// smu guards both session tables; hot/cold transitions mutate them
	// (and the per-tenant counts) inside one critical section, so a
	// session is always in exactly one of the two.
	smu      sync.RWMutex
	sessions map[string]*session      // hot: live engines + open journal
	paged    map[string]*pagedSession // cold: state parked in the WAL checkpoint

	// reviveMu serializes cold-session revivals (one journal replay per
	// ID, concurrent callers adopt the winner's session).
	reviveMu sync.Mutex

	// memUsed is the estimated resident bytes of hot session state,
	// charged/credited as sessions enter and leave the hot table.
	memUsed atomic.Int64
	// underPressure asks the next sweep to drain to the low watermark.
	underPressure atomic.Bool
	pressureCh    chan struct{}

	tenants *tenantTable
	gov     *governor

	// qmu guards enqueues against Close closing the shard queues.
	qmu      sync.RWMutex
	draining bool
	shards   []*shard

	// crashed is set by Crash (the simulated power cut): workers drop
	// in-flight batches instead of processing them and handlers refuse
	// new work.
	crashed atomic.Bool

	// adoptMu serializes AdoptSession calls so two concurrent handoffs
	// (or a handoff racing a standby promotion) of the same session
	// cannot both build it.
	adoptMu sync.Mutex

	wg        sync.WaitGroup
	janitorWG sync.WaitGroup
	stopSweep chan struct{}
	closeOnce sync.Once
}

// New constructs a server and starts its shard workers (and the idle
// janitor when eviction is configured). With Config.WALDir set it also
// opens the journal directory and rebuilds every journaled session
// before returning, so the HTTP API never exposes a half-recovered
// state.
func New(cfg Config) (*Server, error) {
	s := &Server{
		cfg:        cfg.withDefaults(),
		mux:        http.NewServeMux(),
		specs:      newRegistry(),
		metrics:    newMetrics(),
		sessions:   make(map[string]*session),
		paged:      make(map[string]*pagedSession),
		stopSweep:  make(chan struct{}),
		pressureCh: make(chan struct{}, 1),
	}
	s.tenants = newTenantTable(s.cfg.QuotaTickRate, s.cfg.QuotaTickBurst)
	s.gov = &governor{srv: s}
	s.tracer = obs.NewTracer(s.cfg.Shards, s.cfg.TraceDepth)
	s.tracer.SetNode(s.cfg.NodeName)
	s.watchdog = obs.NewWatchdog(s.cfg.SlowTick, nil)
	s.flight = obs.NewFlightRecorder(s.cfg.FlightWindow, s.cfg.FlightDir, s.cfg.NodeName, s.tracer)
	if s.cfg.WALDir != "" {
		mgr, err := wal.OpenManager(wal.Options{
			Dir:          s.cfg.WALDir,
			SegmentBytes: s.cfg.WALSegmentBytes,
			Sync:         s.cfg.Fsync,
			SyncEvery:    s.cfg.FsyncEvery,
			Faults:       s.cfg.Faults,
		})
		if err != nil {
			return nil, err
		}
		s.wal = mgr
	}
	for i := 0; i < s.cfg.Shards; i++ {
		sh := &shard{idx: i, queue: make(chan *batch, s.cfg.QueueDepth)}
		s.shards = append(s.shards, sh)
		s.wg.Add(1)
		go s.runShard(sh)
	}
	if s.wal != nil {
		recover := s.recoverSessions
		if s.cfg.ColdStart {
			recover = s.registerColdSessions
		}
		if err := recover(); err != nil {
			s.Close()
			return nil, err
		}
	}
	if s.cfg.SweepEvery > 0 {
		s.janitorWG.Add(1)
		go s.janitor()
	}
	s.routes()
	publishExpvar(s)
	return s, nil
}

// LoadSpecSource compiles .cesc source into the registry (startup path;
// the HTTP hot-load endpoint shares the same registry).
func (s *Server) LoadSpecSource(src string) ([]string, error) {
	return s.specs.LoadSource(src, false)
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the current metrics snapshot.
func (s *Server) Metrics() MetricsSnapshot {
	snap := s.metrics.snapshot()
	snap.SpecsLoaded = s.specs.Len()
	snap.TraceSpans = s.tracer.Spans()
	snap.SlowBatches = s.watchdog.Slow()
	if s.wal != nil {
		st := s.wal.Stats()
		snap.WAL = &st
		// Refresh the disk gauge on demand so /metrics reflects reality
		// even between janitor sweeps (and with no janitor armed at all).
		if total, _, err := s.wal.DiskUsage(); err == nil {
			s.metrics.journalBytes.Store(total)
			snap.JournalBytes = total
		}
		snap.JournalBudgetBytes = s.cfg.JournalBudget
	}
	s.smu.RLock()
	snap.SessionsActive = len(s.sessions)
	snap.SessionsCold = len(s.paged)
	perShard := make([]int, len(s.shards))
	snap.SessionPaths = map[string]int{"table": 0, "packed": 0}
	for _, sess := range s.sessions {
		perShard[sess.shard]++
		snap.SessionPaths[sess.path()]++
	}
	s.smu.RUnlock()
	snap.MemUsedBytes = s.memUsed.Load()
	snap.MemBudgetBytes = s.cfg.MemBudget
	snap.GovernorLevel, snap.GovernorScore = s.GovernorState()
	snap.Tenants = s.tenants.snapshot()
	for i, sh := range s.shards {
		snap.Shards = append(snap.Shards, ShardSnapshot{
			QueueDepth: len(sh.queue),
			QueueCap:   cap(sh.queue),
			Ticks:      sh.ticks.Load(),
			Sessions:   perShard[i],
		})
	}
	return snap
}

// Close drains: no new batches are accepted, shard queues are closed,
// every already-accepted batch is processed, and session journals are
// synced shut before Close returns.
func (s *Server) Close() { s.shutdown(false) }

// Crash simulates a power cut for recovery tests: handlers start
// refusing work, queued batches are discarded unprocessed, and journals
// are abandoned without a final sync — whatever the WAL already holds is
// all a restarted server gets. The in-memory session table is dropped.
func (s *Server) Crash() { s.shutdown(true) }

// shutdown is Close and Crash: stop accepting, close the shard queues,
// wait out the workers and the janitor, then close (or, crashing,
// abandon) every hot session's journal.
func (s *Server) shutdown(crash bool) {
	s.closeOnce.Do(func() {
		s.crashed.Store(crash)
		s.qmu.Lock()
		s.draining = true
		for _, sh := range s.shards {
			close(sh.queue)
		}
		s.qmu.Unlock()
		close(s.stopSweep)
		s.wg.Wait()
		s.janitorWG.Wait()
		s.smu.Lock()
		for _, sess := range s.sessions {
			switch {
			case sess.jrnl == nil:
			case crash:
				sess.jrnl.Abandon()
			default:
				_ = sess.jrnl.Close()
			}
		}
		if crash {
			s.sessions = make(map[string]*session)
		}
		s.smu.Unlock()
	})
}

// janitor runs the sweep on a fixed period, plus immediately whenever
// the governor (or a revival over budget) kicks pressureCh.
func (s *Server) janitor() {
	defer s.janitorWG.Done()
	t := time.NewTicker(s.cfg.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stopSweep:
			return
		case now := <-t.C:
			s.sweep(now)
		case <-s.pressureCh:
			s.sweep(time.Now())
		}
	}
}

func (s *Server) session(id string) (*session, bool) {
	s.smu.RLock()
	defer s.smu.RUnlock()
	sess, ok := s.sessions[id]
	return sess, ok
}

// requestSession resolves the request's {id} to a hot session, reviving
// a cold one, and marks it active; it answers 404 or 500 itself and
// returns false when there is none.
func (s *Server) requestSession(w http.ResponseWriter, r *http.Request) (*session, bool) {
	sess, err := s.fetchSession(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrNoSession):
		WriteError(w, http.StatusNotFound, "no such session")
		return nil, false
	case err != nil:
		WriteError(w, http.StatusInternalServerError, "%v", err)
		return nil, false
	}
	sess.touch()
	return sess, true
}

// --- HTTP API -----------------------------------------------------------

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /specs", s.handleListSpecs)
	s.mux.HandleFunc("POST /specs", s.handleLoadSpecs)
	s.mux.HandleFunc("POST /specs/mine", s.handleMineSpecs)
	s.mux.HandleFunc("POST /sessions", s.handleCreateSession)
	s.mux.HandleFunc("GET /sessions", s.handleListSessions)
	s.mux.HandleFunc("GET /sessions/{id}", s.handleSessionInfo)
	s.mux.HandleFunc("DELETE /sessions/{id}", s.handleDeleteSession)
	s.mux.HandleFunc("POST /sessions/{id}/pageout", s.handlePageOut)
	s.mux.HandleFunc("POST /sessions/{id}/ticks", s.handleTicks)
	s.mux.HandleFunc("POST /sessions/{id}/vcd", s.handleVCD)
	s.mux.HandleFunc("GET /sessions/{id}/verdicts", s.handleVerdicts)
	s.mux.HandleFunc("GET /sessions/{id}/diagnostics", s.handleDiagnostics)
	s.mux.HandleFunc("GET /debug/trace", s.handleDebugTrace)
	s.mux.HandleFunc("GET /debug/flightrec", s.handleFlightRec)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.crashed.Load() {
		WriteError(w, http.StatusServiceUnavailable, "crashed")
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"uptime_sec": time.Since(s.metrics.start).Seconds(),
	})
}

// Ready reports whether the node should receive load-balanced traffic:
// not crashed, not draining, the governor below the session-throttling
// level, and — when journaling is configured — the WAL directory still
// writable. The reasons map names every failing check; /healthz stays
// pure liveness. The cluster layer adds its own ring-adoption check on
// top.
func (s *Server) Ready() (bool, map[string]string) {
	reasons := map[string]string{}
	if s.crashed.Load() {
		reasons["crashed"] = "simulated power cut"
	}
	s.qmu.RLock()
	draining := s.draining
	s.qmu.RUnlock()
	if draining {
		reasons["draining"] = "shutting down"
	}
	if lvl := s.govLevel(); lvl >= govLevelThrottleSessions {
		reasons["governor"] = fmt.Sprintf("shedding at level %d", lvl)
	}
	if s.wal != nil {
		if err := s.wal.Writable(); err != nil {
			reasons["wal"] = err.Error()
		}
	}
	return len(reasons) == 0, reasons
}

// handleReadyz is the load-balancer readiness probe: 200 while Ready,
// 503 with the failing checks otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	ready, reasons := s.Ready()
	if !ready {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reasons": reasons})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"ready": true})
}

// Tracer exposes the span tracer to the cluster layer, which records
// proxy spans of its own and answers /cluster/trace fan-outs.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// FlightRecorder exposes the black box to the cluster layer and
// cmd/cescd (the SIGQUIT dump path).
func (s *Server) FlightRecorder() *obs.FlightRecorder { return s.flight }

// TraceSpans returns the retained spans of one correlation id, newest
// last — the per-node slice /cluster/trace merges across the ring.
func (s *Server) TraceSpans(traceID string, n int) []obs.Span {
	return s.tracer.Snapshot(func(sp *obs.Span) bool { return sp.Trace == traceID }, n)
}

// handleFlightRec serves the flight recorder's live buffer — the same
// document a trip dumps to disk, minus the reason.
func (s *Server) handleFlightRec(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, s.flight.Snapshot(""))
}

// handleMetrics serves the daemon metrics. The default body is the
// Prometheus text exposition (version 0.0.4) with per-spec, per-shard,
// and per-stage labels; clients that ask for application/json (the CLI
// and the Go client do) get the MetricsSnapshot JSON instead.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "application/json") {
		WriteJSON(w, http.StatusOK, s.Metrics())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(s.promText())
}

// handleDiagnostics serves the per-session violation provenance ring:
// for each monitor, the retained Diagnostic reports with chart name,
// grid line, fired (or candidate) guards, and packed valuation — the
// same fields every execution tier emits identically.
func (s *Server) handleDiagnostics(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.requestSession(w, r)
	if !ok {
		return
	}
	start := time.Now()
	body := sess.diagnostics()
	s.metrics.observeStage(obs.StageVerdict, time.Since(start))
	writeDiagnostics(w, body)
}

// handleDebugTrace serves the tracer rings as JSON, newest last.
// ?session=ID keeps one session's spans, ?trace=ID one correlation id,
// ?stage=NAME one pipeline stage, and ?n=N only the newest N spans.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	if !s.tracer.Enabled() {
		WriteJSON(w, http.StatusOK, map[string]any{"enabled": false, "spans": []obs.Span{}})
		return
	}
	q := r.URL.Query()
	n := 0
	if v := q.Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 0 {
			WriteError(w, http.StatusBadRequest, "n must be a non-negative integer")
			return
		}
		n = parsed
	}
	session, traceID, stage := q.Get("session"), q.Get("trace"), q.Get("stage")
	var keep func(*obs.Span) bool
	if session != "" || traceID != "" || stage != "" {
		keep = func(sp *obs.Span) bool {
			return (session == "" || sp.Session == session) &&
				(traceID == "" || sp.Trace == traceID) &&
				(stage == "" || sp.Stage == stage)
		}
	}
	spans := s.tracer.Snapshot(keep, n)
	if spans == nil {
		spans = []obs.Span{}
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"enabled": true,
		"total":   s.tracer.Spans(),
		"spans":   spans,
	})
}

func (s *Server) handleListSpecs(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{"specs": s.specs.List()})
}

// handleLoadSpecs hot-loads .cesc source from the request body.
// ?replace=1 overwrites existing names (sessions keep the monitors they
// were created with).
func (s *Server) handleLoadSpecs(w http.ResponseWriter, r *http.Request) {
	ArmBodyDeadline(w)
	src, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	names, err := s.specs.LoadSource(string(src), r.URL.Query().Get("replace") == "1")
	if err != nil {
		code := http.StatusBadRequest
		if strings.Contains(err.Error(), "already loaded") {
			code = http.StatusConflict
		}
		WriteError(w, code, "%v", err)
		return
	}
	WriteJSON(w, http.StatusCreated, map[string]any{"loaded": names})
}

// createSessionRequest is the body of POST /sessions. DiagDepth, when
// positive, arms violation diagnostics (the provenance ring served from
// /sessions/{id}/diagnostics) with a recent-window of that many ticks in
// any mode; assert-mode sessions default to a window of 8.
type createSessionRequest struct {
	Specs     []string `json:"specs"`
	Mode      string   `json:"mode,omitempty"`
	DiagDepth int      `json:"diag_depth,omitempty"`
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	ArmBodyDeadline(w)
	if s.govLevel() >= govLevelThrottleSessions {
		// Degradation level 2: new sessions are the sheddable work —
		// existing sessions keep ingesting. The jittered Retry-After
		// decorrelates the retry stampede; the cluster layer routes
		// creations to cooler peers before this is ever reached.
		s.metrics.shedSessions.Add(1)
		s.logShed("sessions", r.Header.Get("X-Cesc-Trace"), "")
		w.Header().Set("X-Cesc-Shed", "sessions")
		w.Header().Set("Retry-After", strconv.Itoa(s.sessionThrottleRetryAfter()))
		WriteError(w, http.StatusTooManyRequests, "node overloaded; new sessions throttled")
		return
	}
	var req createSessionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if len(req.Specs) == 0 {
		WriteError(w, http.StatusBadRequest, "session needs at least one spec")
		return
	}
	mode, err := parseMode(req.Mode)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.DiagDepth < 0 || req.DiagDepth > maxDiagDepth {
		WriteError(w, http.StatusBadRequest, "diag_depth must be in [0, %d]", maxDiagDepth)
		return
	}
	specs := make([]*Spec, 0, len(req.Specs))
	for _, name := range req.Specs {
		sp, ok := s.specs.Get(name)
		if !ok {
			WriteError(w, http.StatusNotFound, "spec %q not loaded", name)
			return
		}
		if sp.MultiClock {
			WriteError(w, http.StatusBadRequest,
				"spec %q is multi-clock; sessions stream a single clock domain", name)
			return
		}
		specs = append(specs, sp)
	}
	id, ok := s.mintSessionID()
	if !ok {
		WriteError(w, http.StatusServiceUnavailable, "could not mint an acceptable session id")
		return
	}
	tenantKey := r.Header.Get(s.cfg.TenantHeader)
	if tenantKey == "" {
		tenantKey = fallbackTenant(id)
	}
	if max := s.cfg.QuotaMaxSessions; max > 0 {
		if hot, cold := s.tenants.counts(tenantKey); hot+cold >= max {
			// Terminal for this tenant — retrying elsewhere won't help,
			// the quota is cluster-agnostic per key. X-Cesc-Quota lets
			// the client tell quota exhaustion from overload shedding.
			s.tenants.rejectSessions(tenantKey)
			w.Header().Set("X-Cesc-Quota", "sessions")
			WriteError(w, http.StatusTooManyRequests,
				"tenant %s at its session quota (%d open)", tenantKey, max)
			return
		}
	}
	sess := newSession(id, mode, shardFor(id, len(s.shards)), specs, s.cfg.Faults, req.DiagDepth)
	sess.tenant = tenantKey
	// The meta travels in every snapshot: a checkpoint, a page-out, an
	// export to another node.
	sess.meta = sessionMetaJSON{ID: id, Mode: modeString(mode), Created: sess.created, DiagDepth: req.DiagDepth, Tenant: tenantKey}
	for _, sp := range specs {
		sess.meta.Specs = append(sess.meta.Specs, specSourceJSON{Name: sp.Name, Source: sp.Source})
	}
	if s.wal != nil {
		// The meta record must be durable before the id is handed out:
		// a session the client knows about must survive a crash.
		if err := s.openFreshJournal(sess, recMeta, sess.meta); err != nil {
			s.metrics.walErrors.Add(1)
			WriteError(w, http.StatusInternalServerError, "journal: %v", err)
			return
		}
	}
	s.trackLive(sess)
	s.metrics.sessionsCreated.Add(1)
	s.enforceHotLimit(tenantKey, sess)
	if b := s.cfg.MemBudget; b > 0 && s.memUsed.Load() > b {
		s.kickPressure()
	}
	WriteJSON(w, http.StatusCreated, sess.info())
}

// mintSessionID draws random session IDs until Config.IDFilter accepts
// one (and it is unused). The filter typically accepts ~1/n of draws on
// an n-node cluster, so the try budget is effectively unreachable.
func (s *Server) mintSessionID() (string, bool) {
	for tries := 0; tries < 4096; tries++ {
		id := newSessionID()
		if s.cfg.IDFilter != nil && !s.cfg.IDFilter(id) {
			continue
		}
		if s.HasSession(id) { // hot or cold — a paged ID is still taken
			continue
		}
		return id, true
	}
	return "", false
}

// handleListSessions lists hot and cold sessions. Cold entries come
// from the paged table alone — listing must never trigger a revival
// stampede across a million parked sessions.
func (s *Server) handleListSessions(w http.ResponseWriter, _ *http.Request) {
	s.smu.RLock()
	infos := make([]SessionInfoJSON, 0, len(s.sessions)+len(s.paged))
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	for _, cold := range s.paged {
		infos = append(infos, cold.info())
	}
	s.smu.RUnlock()
	for _, sess := range sessions {
		infos = append(infos, sess.info())
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	WriteJSON(w, http.StatusOK, map[string]any{"sessions": infos})
}

func (s *Server) handleSessionInfo(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if sess, ok := s.session(id); ok {
		WriteJSON(w, http.StatusOK, sess.info())
		return
	}
	// A cold session answers from its paged entry without reviving —
	// info polls must not defeat the pager.
	s.smu.RLock()
	cold, ok := s.paged[id]
	s.smu.RUnlock()
	if !ok {
		WriteError(w, http.StatusNotFound, "no such session")
		return
	}
	WriteJSON(w, http.StatusOK, cold.info())
}

// handleDeleteSession removes a session, hot or cold. The hot table
// entry goes first (so no new request adopts the pointer), then the
// journal is dropped under ingestMu — which also serializes against an
// in-flight page-out of the same session.
func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess, wasCold := s.forget(id)
	switch {
	case sess != nil:
		sess.ingestMu.Lock()
		s.dropJournal(sess)
		sess.ingestMu.Unlock()
	case wasCold:
		if s.wal != nil {
			_ = s.wal.Remove(id)
		}
	default:
		WriteError(w, http.StatusNotFound, "no such session")
		return
	}
	s.metrics.sessionsDeleted.Add(1)
	WriteJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

// ErrInjected429 is a sentinel for faultinject rules on the
// "server.ingest" point: a rule carrying it makes the handler answer
// 429 + Retry-After instead of 500, so client retry/backoff paths can be
// driven deterministically.
var ErrInjected429 = errors.New("injected backpressure")

// decodeError is a batch body the ingest endpoint refuses, with the
// status it answers.
type decodeError struct {
	status int
	msg    string
}

func (e *decodeError) Error() string { return e.msg }

// errBatchTooLarge is the 413 of a batch past maxTicks ticks.
func errBatchTooLarge(maxTicks int) *decodeError {
	return &decodeError{http.StatusRequestEntityTooLarge,
		fmt.Sprintf("batch exceeds %d ticks; split the stream", maxTicks)}
}

// decodeBatch packs an NDJSON tick body over vocab with
// event.BatchDecoder, the one decoder of ingest and journal replay: 400
// for a body it refuses or one with no ticks, 413 past maxTicks ticks
// (0 means no limit).
func decodeBatch(vocab *event.Vocabulary, body []byte, maxTicks int) (*event.PackedBatch, error) {
	pb := new(event.PackedBatch)
	n, err := event.NewBatchDecoder(vocab).Decode(body, pb, maxTicks)
	switch {
	case event.IsTooManyTicks(err):
		return nil, errBatchTooLarge(maxTicks)
	case err != nil:
		return nil, &decodeError{http.StatusBadRequest, err.Error()}
	case n == 0:
		return nil, &decodeError{http.StatusBadRequest, "no ticks in body"}
	}
	return pb, nil
}

// maxBodyPrealloc caps the buffer ReadBody allocates up front from a
// declared Content-Length. The cap bounds, rather than prevents, what a
// header that lies can make the server allocate before a body byte
// arrives. 256 KiB holds a batch of about 10,000 ticks at the ~25 bytes
// a tick of the checked-in specs takes; a longer body grows by append
// as it arrives.
const maxBodyPrealloc = 256 << 10

// BodyReadTimeout bounds the body read of one request, so a client that
// sends a header and then stalls is cut off instead of pinning its
// connection and read buffer. A variable only so tests (here and in the
// cluster layer) can shorten it.
var BodyReadTimeout = 30 * time.Second

// ArmBodyDeadline bounds the read of a request's body to BodyReadTimeout
// from now. Every handler that reads a body calls it first, before any
// early answer (the cluster layer's handlers too): net/http drains the
// unread body of an answered request under the same deadline, so a
// stalled client is cut off there too. The next request on the
// connection starts with net/http's own deadlines. A writer that cannot
// take a deadline reads unbounded.
func ArmBodyDeadline(w http.ResponseWriter) *http.ResponseController {
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Now().Add(BodyReadTimeout))
	return rc
}

// progressReader re-arms the body deadline before every read of a
// streamed body, so the bound is on each wait for the client's next
// bytes rather than on the whole upload, and time the handler spends
// blocked on its shard between reads never counts against it.
type progressReader struct {
	r  io.Reader
	rc *http.ResponseController
}

func (p progressReader) Read(b []byte) (int, error) {
	_ = p.rc.SetReadDeadline(time.Now().Add(BodyReadTimeout))
	return p.r.Read(b)
}

// ReadBody reads a body whole through one bytes.Buffer: a body whose
// declared length is up to maxBodyPrealloc lands in one allocation, and
// a longer, undeclared (negative) or chunked one grows as it arrives. A
// body shorter than its declared length fails the read (net/http
// reports io.ErrUnexpectedEOF). cescd reads request bodies with it and
// the client package its responses.
func ReadBody(body io.Reader, declared int64) ([]byte, error) {
	var b bytes.Buffer
	b.Grow(int(min(max(declared, 0), maxBodyPrealloc)) + bytes.MinRead)
	if _, err := b.ReadFrom(body); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// handleTicks ingests NDJSON valuation ticks (one StateJSON object per
// line; a plain JSON stream also decodes). The batch is enqueued to the
// session's shard: 202 on acceptance, 429 + Retry-After when the shard
// queue is full, 503 when draining. ?wait=1 blocks until the batch has
// been processed and returns 200.
//
// ?seq=N attaches a client-assigned, per-session-monotonic sequence
// number: a batch whose seq is not above the session's watermark is
// acknowledged as a duplicate without being processed, which upgrades
// at-least-once retries into exactly-once ingestion. With journaling
// enabled the batch is appended to the session's WAL (in accept order,
// under the same per-session lock as the dedup check) before the
// response; an append failure returns 500 and the client's retry is
// absorbed by the dedup watermark, unless the journal has failed for
// good (a failed fsync): then every later batch answers 500.
func (s *Server) handleTicks(w http.ResponseWriter, r *http.Request) {
	ingestStart := time.Now()
	rc := ArmBodyDeadline(w)
	sess, ok := s.requestSession(w, r)
	if !ok {
		return
	}
	// The trace id correlates this batch's spans across pipeline stages.
	// Clients propagate their own via X-Cesc-Trace; otherwise the server
	// assigns one (only when tracing is on — the id is echoed back either
	// way so the client can cite it). X-Cesc-Parent carries the upstream
	// hop's span token ("node@hlc"): observing its clock reading makes
	// every local span order causally after the hop that forwarded the
	// batch, even across machines with disagreeing wall clocks.
	traceID := r.Header.Get("X-Cesc-Trace")
	parent := r.Header.Get("X-Cesc-Parent")
	if _, remoteHLC := obs.ParseParentToken(parent); remoteHLC != 0 {
		obs.Clock.Observe(remoteHLC)
	}
	if s.tracer.Enabled() {
		if traceID == "" {
			traceID = newTraceID()
		}
		w.Header().Set("X-Cesc-Trace", traceID)
	}
	var seq uint64
	if q := r.URL.Query().Get("seq"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil || v == 0 {
			WriteError(w, http.StatusBadRequest, "seq must be a positive integer")
			return
		}
		seq = v
	}
	// A failed read keeps the body deadline, so net/http's drain of the
	// unread rest after the 400 cannot stall either. A complete read
	// lifts it: left armed, net/http's background read would hit it
	// during a ?wait=1 wait and cancel the request context (Go 1.24's
	// net/http also clears it when that read starts; this does not rely
	// on that).
	decodeStart := time.Now()
	body, err := ReadBody(r.Body, r.ContentLength)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	_ = rc.SetReadDeadline(time.Time{})
	packed, err := decodeBatch(sess.vocab, body, s.cfg.MaxBatchTicks)
	var refused *decodeError
	if errors.As(err, &refused) {
		WriteError(w, refused.status, "%s", refused.msg)
		return
	}
	nticks := packed.Len()
	decodeDur := time.Since(decodeStart)
	s.metrics.observeStage(obs.StageDecode, decodeDur)
	s.tracer.Record(sess.shard, obs.Span{
		Trace: traceID, Session: sess.id, Stage: obs.StageDecode,
		Start: decodeStart, Dur: decodeDur, Ticks: nticks,
	})
	if ok, retryAfter := s.tenants.takeTicks(sess.tenant, nticks, false); !ok {
		// Tenant outran its tick bucket. Retry-After is sized so a
		// client that honors it paces to exactly the allowed rate;
		// X-Cesc-Quota tells it this is its own quota, not server load.
		s.metrics.rejectedTotal.Add(1)
		w.Header().Set("X-Cesc-Quota", "ticks")
		w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
		WriteError(w, http.StatusTooManyRequests,
			"tenant %s over its tick rate; retry in %s", sess.tenant, retryAfter)
		return
	}
	if err := s.cfg.Faults.Hit("server.ingest"); err != nil {
		if errors.Is(err, ErrInjected429) {
			s.metrics.rejectedTotal.Add(1)
			w.Header().Set("Retry-After", "1")
			WriteError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	b := &batch{sess: sess, packed: packed, raw: body,
		enqueued: time.Now(), trace: traceID}
	wait := r.URL.Query().Get("wait") == "1"
	shedWait := false
	if wait && s.govLevel() >= govLevelShedWait {
		// Degradation level 1: the batch is still accepted, journaled,
		// and processed — only the latency coupling is shed. The client
		// gets 202 + X-Cesc-Shed: wait instead of blocking on the shard.
		wait, shedWait = false, true
		s.logShed("wait", traceID, sess.id)
	}

	if wait {
		b.done = make(chan struct{})
	}
	switch err := s.accept(sess, b, seq, s.tryEnqueue); err {
	case nil:
	case errDuplicate:
		writeAck(w, http.StatusOK, ackJSON{Seq: seq, Duplicate: true})
		return
	default:
		writeAcceptError(w, sess, err)
		return
	}
	if err := s.cfg.Faults.Hit("server.ingest.respond"); err != nil {
		// Simulated response-path failure after the batch was accepted:
		// the client sees an error and retries a batch the server has
		// already applied — the dedup watermark makes that exactly-once.
		WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	ack := ackJSON{Accepted: nticks, Seq: seq}
	if s.tracer.Enabled() {
		ack.Trace = traceID
	}
	ingestKind := ""
	if r.Header.Get("X-Cesc-Forwarded") != "" {
		ingestKind = "proxied"
	}
	if wait {
		<-b.done
		processed := true
		ack.Processed = &processed
		s.recordIngest(sess, traceID, parent, ingestKind, ingestStart, nticks)
		writeAck(w, http.StatusOK, ack)
		return
	}
	if shedWait {
		s.metrics.shedWait.Add(1)
		w.Header().Set("X-Cesc-Shed", "wait")
		processed := false
		ack.Processed = &processed
	}
	s.recordIngest(sess, traceID, parent, ingestKind, ingestStart, nticks)
	writeAck(w, http.StatusAccepted, ack)
}

// errDuplicate is accept's answer to a batch whose ?seq the session has
// already accepted: acknowledged as a duplicate, not applied again.
var errDuplicate = errors.New("server: duplicate batch")

// errJournal wraps every journal failure accept returns: the batch is
// applied in memory but not durable, or, once the journal has failed
// for good, refused.
var errJournal = errors.New("journal append")

// writeAcceptError is the one error→status table of accept, for /ticks
// and /vcd alike (errDuplicate is each route's own acknowledgement).
func writeAcceptError(w http.ResponseWriter, sess *session, err error) {
	switch {
	case errors.Is(err, errPagedOut):
		// Raced a page-out while holding a stale pointer: the retry
		// resolves the ID again and revives the session.
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusConflict, "session %s was paged out; retry", sess.id)
	case errors.Is(err, errMigrating):
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusConflict, "session %s is migrating to a new owner; retry", sess.id)
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusTooManyRequests, "shard %d queue full", sess.shard)
	case errors.Is(err, errDraining):
		WriteError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		// errJournal: 500 asks the client to retry. The retry of a
		// failed append is deduped; on a journal that failed for good
		// it answers 500 again.
		WriteError(w, http.StatusInternalServerError, "%v", err)
	}
}

// accept is the one accept path of a batch: an NDJSON body (enqueue is
// tryEnqueue) or a VCD chunk (enqueueWait, seq 0). Under the session's
// ingestMu, so duplicate detection, queue order and journal order agree,
// it refuses a paged-out or frozen session or one whose journal failed
// for good, dedups by seq, enqueues, advances the dedup watermark and
// journals the batch; when the batch makes a snapshot due it waits for
// the worker to apply it and checkpoints. A caller that will wait for
// the batch makes b.done first; accept makes it only for a snapshot.
// The error is errPagedOut, errMigrating, errDuplicate, enqueue's, or a
// journal failure wrapped in errJournal — after a failed append the
// batch is applied but not durable.
func (s *Server) accept(sess *session, b *batch, seq uint64, enqueue func(*batch) error) error {
	sess.ingestMu.Lock()
	defer sess.ingestMu.Unlock()
	switch {
	case sess.pagedOut:
		return errPagedOut
	case sess.frozen:
		return errMigrating
	case sess.jrnlErr != nil:
		return sess.jrnlErr
	case seq > 0 && seq <= sess.lastSeq:
		s.metrics.batchesDeduped.Add(1)
		return errDuplicate
	}
	snapDue := false
	if sess.jrnl != nil {
		b.jseq = sess.walSeq + 1
		snapDue = s.cfg.SnapshotEvery > 0 && b.jseq%uint64(s.cfg.SnapshotEvery) == 0
	}
	if snapDue && b.done == nil {
		b.done = make(chan struct{})
	}
	start := time.Now()
	span := obs.Span{Trace: b.trace, Session: sess.id, Stage: obs.StageEnqueue, Start: start, Ticks: b.packed.Len()}
	switch err := enqueue(b); err {
	case nil:
		span.Dur = time.Since(start)
		s.metrics.observeStage(obs.StageEnqueue, span.Dur)
		s.tracer.Record(sess.shard, span)
	case errQueueFull:
		span.Dur, span.Note = time.Since(start), "queue full"
		s.metrics.rejectedTotal.Add(1)
		s.tracer.Record(sess.shard, span)
		return err
	default:
		return err
	}
	// The batch is accepted: advance the dedup watermark now, so a
	// client retry after a lost response (or a failed journal append)
	// never double-applies.
	if seq > 0 {
		sess.lastSeq = seq
	}
	if sess.jrnl == nil {
		return nil
	}
	sess.walSeq = b.jseq
	if err := s.journalBatch(sess, b, seq); err != nil {
		s.metrics.walErrors.Add(1)
		err = fmt.Errorf("%w: %w", errJournal, err)
		if sess.jrnl.Sync() != nil {
			// The journal has failed for good: it would drop every
			// later batch while the dedup watermark acknowledged each
			// retry as a duplicate. Refuse them all instead.
			sess.jrnlErr = err
		}
		return err
	}
	if snapDue {
		// Snapshot barrier: wait (still under ingestMu, so no later batch
		// can be accepted meanwhile) until the worker has applied this
		// batch, then checkpoint — appliedJSeq now covers every journaled
		// record, making it safe for the checkpoint to prune all older
		// segments. A failure is not fatal: the journal tail still
		// reconstructs the session, recovery just replays more.
		<-b.done
		if err := s.snapshotSession(sess); err != nil {
			s.metrics.walErrors.Add(1)
		}
	}
	return nil
}

// recordIngest closes the whole-request span of one accepted tick batch.
// parent is the upstream hop's span token; kind is "proxied" when the
// batch arrived through a cluster proxy forward ("" for a direct hit).
func (s *Server) recordIngest(sess *session, traceID, parent, kind string, start time.Time, ticks int) {
	s.tracer.Record(sess.shard, obs.Span{
		Trace: traceID, Session: sess.id, Stage: obs.StageIngest,
		Parent: parent, Kind: kind,
		Start: start, Dur: time.Since(start), Ticks: ticks,
	})
}

// logShed emits a rate-limited (1/s) governor shed-decision warning. The
// trace id joins the log line to its cluster timeline; the flight
// recorder keeps the decision even when the log line is rate-limited
// away.
func (s *Server) logShed(what, traceID, session string) {
	lvl, score := s.GovernorState()
	s.flight.Note("shed:"+what, traceID, fmt.Sprintf("level=%d score=%.2f session=%s", lvl, score, session))
	now := time.Now().UnixNano()
	last := s.lastShedLog.Load()
	if now-last < int64(time.Second) || !s.lastShedLog.CompareAndSwap(last, now) {
		return
	}
	slog.Warn("governor shed",
		slog.String("what", what),
		slog.String("trace", traceID),
		slog.String("session", session),
		slog.Int("level", lvl),
		slog.Float64("score", score),
	)
}

// newTraceID mints a server-assigned correlation id (same shape as
// session ids: 16 hex chars).
func newTraceID() string { return newSessionID() }

// vcdChunkTicks is the enqueue granularity of the VCD upload path: the
// request body is stream-parsed and handed to the shard in bounded
// chunks, so arbitrarily large dumps never materialize in memory.
const vcdChunkTicks = 256

// handleVCD ingests a Value Change Dump as the session's tick stream.
// ?props=a,b names signals read as propositions (level-holding); all
// others are events. Backpressure is applied by blocking the upload,
// never by dropping mid-stream.
func (s *Server) handleVCD(w http.ResponseWriter, r *http.Request) {
	rc := ArmBodyDeadline(w)
	sess, ok := s.requestSession(w, r)
	if !ok {
		return
	}
	props := make(map[string]bool)
	if p := r.URL.Query().Get("props"); p != "" {
		for _, n := range strings.Split(p, ",") {
			props[strings.TrimSpace(n)] = true
		}
	}
	kindOf := func(name string) event.Kind {
		if props[name] {
			return event.KindProp
		}
		return event.KindEvent
	}
	// Each chunk is packed as it streams in and encoded as NDJSON for
	// the journal, so a VCD batch journals and replays like an NDJSON one.
	total := 0
	var raw []byte
	chunk := new(event.PackedBatch)
	chunk.Reset(sess.vocab.Len())
	// acceptErr is accept's refusal of a chunk; any other error is a
	// malformed upload.
	var acceptErr error
	flush := func() error {
		n := chunk.Len()
		if n == 0 {
			return nil
		}
		// The VCD path applies backpressure by blocking, so the tick
		// quota is charged with force: the upload never fails mid-stream
		// on quota, it drives the bucket into debt and the tenant's
		// subsequent batches absorb the throttling.
		s.tenants.takeTicks(sess.tenant, n, true)
		b := &batch{sess: sess, packed: chunk, raw: raw, enqueued: time.Now(), done: make(chan struct{})}
		if acceptErr = s.accept(sess, b, 0, s.enqueueWait); acceptErr != nil {
			return acceptErr
		}
		<-b.done
		total += n
		raw = nil
		chunk = new(event.PackedBatch)
		chunk.Reset(sess.vocab.Len())
		return nil
	}
	err := trace.StreamVCD(progressReader{r.Body, rc}, kindOf, func(st event.State) error {
		chunk.AppendState(sess.vocab, st)
		raw = AppendTick(raw, stateJSON(st))
		if chunk.Len() >= vcdChunkTicks {
			return flush()
		}
		return nil
	})
	if err == nil {
		// The body is in: lifted for the same reason as handleTicks'.
		_ = rc.SetReadDeadline(time.Time{})
		err = flush()
	}
	if acceptErr != nil {
		writeAcceptError(w, sess, acceptErr)
		return
	}
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	processed := true
	writeAck(w, http.StatusOK, ackJSON{Accepted: total, Processed: &processed})
}

// handleVerdicts revives a cold session to answer: the verdict state is
// exactly what the checkpoint parked, so the response is byte-identical
// to one from a session that never paged.
func (s *Server) handleVerdicts(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.requestSession(w, r)
	if !ok {
		return
	}
	start := time.Now()
	body := sess.verdicts()
	dur := time.Since(start)
	s.metrics.observeStage(obs.StageVerdict, dur)
	s.tracer.Record(sess.shard, obs.Span{
		Trace: r.Header.Get("X-Cesc-Trace"), Session: sess.id,
		Stage: obs.StageVerdict, Start: start, Dur: dur,
	})
	writeVerdicts(w, body)
}
