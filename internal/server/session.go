package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
	"repro/internal/faultinject"
	"repro/internal/jsonx"
	"repro/internal/monitor"
	"repro/internal/verif"
	"repro/internal/wal"
)

// maxAcceptTicks bounds the per-monitor accept-tick log returned by the
// verdicts endpoint; later acceptances only increment counters.
const maxAcceptTicks = 1024

// defaultDiagDepth is the counterexample window armed for assert-mode
// sessions, matching verif.Bank. Clients may request a different window
// (any mode) via diag_depth at session creation, up to maxDiagDepth.
const (
	defaultDiagDepth = 8
	maxDiagDepth     = 256
)

// session is one client's monitor bank. Its engines are mutated only by
// the shard worker the session is pinned to; mu serializes the worker
// against verdict reads from HTTP goroutines.
type session struct {
	id      string
	mode    monitor.Mode
	shard   int
	created time.Time
	// tenant is the quota/fairness accounting key, fixed at creation
	// (client header or session-ID prefix) and journaled so recovery and
	// revival keep charging the same tenant.
	tenant string
	// diagDepth is the client-requested diagnostics window (0 means the
	// mode default); journaled so recovery re-arms the same window.
	diagDepth int

	lastActive atomic.Int64 // unix nanos
	// footprint is the estimated resident bytes of the session's hot
	// state, charged against Config.MemBudget. Set at registration and
	// refreshed by the janitor sweep as scoreboards grow.
	footprint atomic.Int64

	mu   sync.Mutex
	mons []*sessionMonitor
	// vocab is the session's union interner: the symbols of every loaded
	// spec declared into one table, events and props apart. Every batch
	// is packed once over it, and every monitor consumes the same packed
	// valuation per tick. Immutable after newSession.
	vocab *event.Vocabulary
	// onTable marks a table-eligible session: its single monitor's engine
	// resolves fired transitions in the spec's shared transition table
	// (Engine.UseTable) instead of scanning compiled guards. Immutable
	// after newSession.
	onTable bool
	// appliedJSeq is the journal index of the last batch the shard worker
	// has applied (guarded by mu). Snapshots record it so recovery knows
	// which journal records are already folded in.
	appliedJSeq uint64

	// ingestMu serializes the accept path of one session: duplicate
	// detection, enqueue order, and journal appends must agree on batch
	// order, so they happen under one lock per session.
	ingestMu sync.Mutex
	lastSeq  uint64 // highest client seq accepted (dedup watermark)
	walSeq   uint64 // journal index of the last appended batch record
	jrnl     *wal.Journal
	// jrnlErr is the failure of a journal that failed for good (guarded
	// by ingestMu): set when an append fails and a Sync after it fails
	// too, as every Sync does once an fsync has failed. accept then
	// refuses every batch, retries included, with jrnlErr.
	jrnlErr error
	// journaled mirrors jrnl != nil for lock-free readers (the janitor
	// sweep and fairness scans pick page-out candidates without taking
	// every session's ingestMu); jrnl itself is only touched under
	// ingestMu or before the session is exposed.
	journaled atomic.Bool
	meta      sessionMetaJSON
	// frozen fences ingest during a live migration (guarded by ingestMu):
	// ExportSession sets it after the final pre-handoff barrier, so no
	// tick can land between the exported snapshot and the handoff commit.
	// Ingest against a frozen session answers 409 + Retry-After; the
	// retry lands on the new owner (or here again if the handoff aborts).
	frozen bool
	// pagedOut marks a session whose state has been checkpointed to its
	// journal and dropped from the hot table (guarded by ingestMu, like
	// frozen). A handler holding a stale pointer answers 409 +
	// Retry-After; the retry looks the session up again and revives it.
	pagedOut bool

	faults *faultinject.Plane
}

// sessionMonitor pairs a spec's engine with its coverage collector and
// accept-tick log. A monitor that panics while stepping is quarantined:
// its engine state is suspect, so it stops consuming ticks while the
// rest of the session keeps running.
type sessionMonitor struct {
	spec        string
	eng         *monitor.Engine
	cov         *verif.Coverage
	acceptTicks []int

	// reportedAccepts/reportedViolations are the engine totals already
	// folded into the daemon's per-spec counters (guarded by session.mu);
	// the shard worker reports only the delta after each batch, so the
	// daemon counters survive session eviction without double counting.
	reportedAccepts    uint64
	reportedViolations uint64

	quarantined      bool
	quarantineReason string
}

// newSessionID returns a 16-hex-char random identifier.
func newSessionID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: session id entropy: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// shardFor pins a session ID to a shard by FNV-1a hash, so every tick of
// one session is processed by one worker in arrival order.
func shardFor(id string, shards int) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(shards))
}

func newSession(id string, mode monitor.Mode, shard int, specs []*Spec, faults *faultinject.Plane, diagDepth int) *session {
	s := &session{id: id, mode: mode, shard: shard, created: time.Now(), faults: faults, diagDepth: diagDepth}
	s.touch()
	depth := diagDepth
	if depth == 0 && mode == monitor.ModeAssert {
		depth = defaultDiagDepth
	}
	// Every session decodes each tick once into a packed valuation over
	// the union vocabulary of its specs, whatever its mode: violation
	// diagnostics keep the packed words and unpack them through the
	// vocabulary only when a violation quotes them, so the quoted input
	// is projected onto the vocabulary. A spec's support is declared in
	// support order, so a one-spec vocabulary is exactly the shared
	// table's slot order (see Engine.UseTable); a spec without a
	// compiled program declares the symbols its guards read.
	s.vocab = event.NewVocabulary()
	for _, sp := range specs {
		syms := sp.mon.Symbols()
		if sp.compiled != nil {
			syms = sp.compiled.Support().Symbols()
		}
		for _, sym := range syms {
			s.vocab.MustDeclare(sym.Name, sym.Kind)
		}
	}
	for _, sp := range specs {
		sm := &sessionMonitor{spec: sp.Name, cov: verif.NewCoverage(sp.mon)}
		if sp.compiled != nil {
			sm.eng, _ = sp.compiled.Program.NewEngineVocab(nil, mode, s.vocab)
		}
		if sm.eng == nil {
			sm.eng = monitor.NewEngine(sp.mon, nil, mode)
		}
		if depth > 0 {
			sm.eng.EnableDiagnostics(depth)
		}
		s.mons = append(s.mons, sm)
	}
	// Table eligibility: one compiled chk-free monitor with diagnostics off.
	// Its engine then looks fired transitions up in the spec's shared
	// table; UseTable refuses a vocabulary that is not exactly the table's
	// support in slot order (a single-spec vocabulary always is).
	if depth == 0 && len(s.mons) == 1 && s.mons[0].eng.Programmed() {
		if tab, err := specs[0].compiled.Table(); err == nil && tab.ChkFree() {
			s.onTable = s.mons[0].eng.UseTable(tab) == nil
		}
	}
	return s
}

func (s *session) touch() { s.lastActive.Store(time.Now().UnixNano()) }

func (s *session) idleFor(now time.Time) time.Duration {
	return now.Sub(time.Unix(0, s.lastActive.Load()))
}

// Footprint pricing for the memory budget. Exact accounting would mean
// walking every engine allocation; instead the estimate is anchored on
// what actually scales with session lifetime — interned scoreboard
// slots, the accept-tick log, and the diagnostics ring — plus fixed
// charges for the structs around them.
const (
	footprintBase       = 4096 // session struct, vocab, journal buffers
	footprintPerMonitor = 2048 // engine, program binding, coverage
	footprintPerSlot    = 96   // interned slot: name, count, timestamp log
	footprintPerAccept  = 8    // one accept-tick log entry
	footprintPerDiag    = 768  // one retained diagnostic with its recent window
)

// estimateFootprint prices the session's resident state in bytes.
func (s *session) estimateFootprint() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	depth := s.diagDepth
	if depth == 0 && s.mode == monitor.ModeAssert {
		depth = defaultDiagDepth
	}
	fp := int64(footprintBase)
	for _, sm := range s.mons {
		fp += footprintPerMonitor
		fp += int64(sm.eng.Scoreboard().Slots()) * footprintPerSlot
		fp += int64(len(sm.acceptTicks)) * footprintPerAccept
		fp += int64(depth) * footprintPerDiag
	}
	return fp
}

// fallbackTenant derives the default tenant key from a session ID: its
// first four characters. Random IDs spread tenants evenly, while a
// cluster's ID minting keeps one client's sessions co-keyed only if the
// client supplies an explicit tenant header.
func fallbackTenant(id string) string {
	if len(id) > 4 {
		return id[:4]
	}
	return id
}

// faultShot is one monitor's per-batch fault plan: the in-batch tick
// offset a scheduled fault lands on, and the closure that performs its
// effect there. A nil do means no rule fired for this batch.
type faultShot struct {
	off int
	do  func() error
}

// batchShots plans the "monitor.step.<spec>" fault point for a batch of
// n ticks: one HitBatch per monitor, so counted fault schedules advance
// per batch no matter how traffic was chunked, and a fired rule lands on
// one deterministic tick inside the batch. Nil when no plane is wired.
func (s *session) batchShots(n int) []faultShot {
	if s.faults == nil || n <= 0 {
		return nil
	}
	shots := make([]faultShot, len(s.mons))
	for i, sm := range s.mons {
		shots[i].off, shots[i].do = s.faults.HitBatch("monitor.step."+sm.spec, n)
	}
	return shots
}

// stepBatch feeds every tick of pb to every monitor of the session
// under one fault plan, sleeping delay before each tick. It is the one
// stepping path of live batches and journal replay, so a counted fault
// rule fires on the same tick in both. Caller holds s.mu. It returns the
// number of acceptances, violations, and newly quarantined monitors.
func (s *session) stepBatch(pb *event.PackedBatch, delay time.Duration) (accepts, violations, quarantines int) {
	n := pb.Len()
	shots := s.batchShots(n)
	for i := 0; i < n; i++ {
		if delay > 0 {
			time.Sleep(delay)
		}
		a, v, q := s.stepTick(pb.Tick(i), shots, i)
		accepts += a
		violations += v
		quarantines += q
	}
	return accepts, violations, quarantines
}

// stepTick feeds tick i of a batch, packed in vocab slot order, to every
// monitor. Caller holds s.mu. shots is the batch's fault plan from
// batchShots (nil when no faults are wired).
func (s *session) stepTick(in event.Packed, shots []faultShot, i int) (accepts, violations, quarantines int) {
	for mi, sm := range s.mons {
		if sm.quarantined {
			continue
		}
		var fire func() error
		if shots != nil && shots[mi].do != nil && shots[mi].off == i {
			fire = shots[mi].do
		}
		res, panicked := sm.safeStep(fire, in, s.vocab)
		if panicked != nil {
			// The engine may have died mid-transition; its state is no
			// longer trustworthy, so the monitor is fenced off for the
			// rest of the session while its siblings keep stepping.
			sm.quarantined = true
			sm.quarantineReason = fmt.Sprintf("panic at step %d: %v", sm.eng.Stats().Steps, panicked)
			quarantines++
			continue
		}
		sm.cov.Record(res)
		switch res.Outcome {
		case monitor.Accepted:
			accepts++
			if len(sm.acceptTicks) < maxAcceptTicks {
				sm.acceptTicks = append(sm.acceptTicks, res.Tick)
			}
		case monitor.Violated:
			violations++
		}
	}
	return accepts, violations, quarantines
}

// safeStep runs one engine step behind a recover barrier so a panicking
// monitor cannot take down its shard worker. fire, when non-nil, is the
// batch fault plan's effect for this monitor at this tick — the
// "monitor.step.<spec>" injection point resolved per batch (error
// effects are ignored here, like the old per-tick Hit; latency sleeps
// and panics land as themselves). A spec without a compiled program
// runs the interpreted reference engine on the tick unpacked through
// vocab.
func (sm *sessionMonitor) safeStep(fire func() error, in event.Packed, vocab *event.Vocabulary) (res monitor.StepResult, panicked any) {
	defer func() { panicked = recover() }()
	if fire != nil {
		_ = fire()
	}
	if sm.eng.Programmed() {
		return sm.eng.StepPacked(in), nil
	}
	return sm.eng.Step(vocab.UnpackState(in)), nil
}

// modeString renders the session mode for JSON bodies.
func modeString(m monitor.Mode) string {
	if m == monitor.ModeAssert {
		return "assert"
	}
	return "detect"
}

// parseMode inverts modeString; empty defaults to detect.
func parseMode(s string) (monitor.Mode, error) {
	switch s {
	case "", "detect":
		return monitor.ModeDetect, nil
	case "assert":
		return monitor.ModeAssert, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want detect or assert)", s)
	}
}

// StateJSON is the wire form of an event.State: the events that occur
// and the propositions that hold at one tick. It doubles as the NDJSON
// tick format of the ingest endpoint.
type StateJSON struct {
	Events []string        `json:"events,omitempty"`
	Props  map[string]bool `json:"props,omitempty"`
}

// ToState materializes the wire form.
func (t StateJSON) ToState() event.State {
	s := event.NewState()
	for _, e := range t.Events {
		s.Events[e] = true
	}
	for p, v := range t.Props {
		s.Props[p] = v
	}
	return s
}

// AppendTicks appends every tick as AppendTick does, after growing dst
// once by tickLen over the batch, so a batch whose names need no escape
// is written into one allocation.
func AppendTicks(dst []byte, ticks []StateJSON) []byte {
	n := 0
	for _, t := range ticks {
		n += tickLen(t)
	}
	dst = slices.Grow(dst, n)
	for _, t := range ticks {
		dst = AppendTick(dst, t)
	}
	return dst
}

// tickLen bounds the length of AppendTick's line for t when no name needs
// an escape: braces and newline, then `"events":[…]` with `"e",` per
// event and `,"props":{…}` with `"p":false,` per prop.
func tickLen(t StateJSON) int {
	n := 3
	if len(t.Events) > 0 {
		n += 11
		for _, e := range t.Events {
			n += len(e) + 3
		}
	}
	if len(t.Props) > 0 {
		n += 11
		for p := range t.Props {
			n += len(p) + 9
		}
	}
	return n
}

// AppendTick appends t as one NDJSON ingest line to dst and returns the
// extended slice. The bytes are exactly what json.Encoder writes for t:
// events in slice order, props with sorted keys, empty fields omitted,
// names escaped as jsonx.AppendString does, a trailing newline. Only a
// tick with more props than the stack scratch holds allocates once dst
// has room.
func AppendTick(dst []byte, t StateJSON) []byte {
	return append(appendState(dst, t), '\n')
}

// appendState appends t as json.Marshal writes it.
func appendState(dst []byte, t StateJSON) []byte {
	dst = append(dst, '{')
	if len(t.Events) > 0 {
		dst = append(dst, `"events":`...)
		dst = jsonx.AppendStrings(dst, t.Events)
	}
	if len(t.Props) > 0 {
		if len(t.Events) > 0 {
			dst = append(dst, ',')
		}
		var scratch [16]string
		keys := scratch[:0]
		for k := range t.Props {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		dst = append(dst, `"props":{`...)
		for i, k := range keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonx.AppendString(dst, k)
			if t.Props[k] {
				dst = append(dst, ":true"...)
			} else {
				dst = append(dst, ":false"...)
			}
		}
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// EncodeState converts an engine-side state to the wire form — exported
// for the client package and the WAL journal, which both speak StateJSON.
func EncodeState(s event.State) StateJSON { return stateJSON(s) }

// stateJSON converts an engine-side state to the wire form (only true
// symbols are carried, sorted for stable output).
func stateJSON(s event.State) StateJSON {
	out := StateJSON{}
	for e, v := range s.Events {
		if v {
			out.Events = append(out.Events, e)
		}
	}
	sort.Strings(out.Events)
	for p, v := range s.Props {
		if v {
			if out.Props == nil {
				out.Props = make(map[string]bool)
			}
			out.Props[p] = true
		}
	}
	return out
}

// DiagnosticJSON is the wire form of a monitor.Diagnostic counterexample,
// carrying the full provenance every execution tier emits identically:
// the chart (monitor) name, the grid line of the abandoned state, the
// guard that fired into the violation (empty on a hard reset), the
// candidate guards of that state in transition order, and the input
// packed through the monitor's own support order.
type DiagnosticJSON struct {
	Tick      int      `json:"tick"`
	Monitor   string   `json:"monitor,omitempty"`
	GridLine  int      `json:"grid_line"`
	FromState int      `json:"from_state"`
	Guard     string   `json:"guard,omitempty"`
	Guards    []string `json:"guards,omitempty"`
	Valuation uint64   `json:"valuation"`

	Input      StateJSON   `json:"input"`
	Recent     []StateJSON `json:"recent,omitempty"`
	Scoreboard []string    `json:"scoreboard,omitempty"`
}

// diagnosticsJSON renders an engine's retained violation records for
// the wire, oldest first. A packed window input becomes a StateJSON
// straight from its true slots in the session vocabulary, once per
// distinct tick (see monitor.EachViolation); inputs fed as maps and
// reports restored from a snapshot take the map path (stateJSON).
func diagnosticsJSON(eng *monitor.Engine) []DiagnosticJSON {
	var out []DiagnosticJSON
	var syms []event.Symbol
	monitor.EachViolation(eng, func(v monitor.Violation, in event.Packed, s event.State) StateJSON {
		if in == nil {
			return stateJSON(s)
		}
		syms = v.AppendSymbols(syms[:0], in)
		return symbolsJSON(syms)
	}, func(v monitor.Violation, win []StateJSON) {
		dj := diagnosticJSON(v.Head())
		n := len(win)
		dj.Input = win[n-1]
		if n > 1 {
			dj.Recent = win[: n-1 : n-1]
		}
		out = append(out, dj)
	})
	return out
}

// symbolsJSON is stateJSON of the state whose true symbols are syms.
func symbolsJSON(syms []event.Symbol) StateJSON {
	var out StateJSON
	for _, sym := range syms {
		if sym.Kind == event.KindProp {
			if out.Props == nil {
				out.Props = make(map[string]bool)
			}
			out.Props[sym.Name] = true
			continue
		}
		if out.Events == nil {
			out.Events = make([]string, 0, len(syms))
		}
		out.Events = append(out.Events, sym.Name)
	}
	sort.Strings(out.Events)
	return out
}

// diagnosticJSON renders one provenance report for the wire.
func diagnosticJSON(d monitor.Diagnostic) DiagnosticJSON {
	dj := DiagnosticJSON{
		Tick:       d.Tick,
		Monitor:    d.Monitor,
		GridLine:   d.GridLine,
		FromState:  d.FromState,
		Guard:      d.Guard,
		Guards:     d.Guards,
		Valuation:  d.Valuation,
		Input:      stateJSON(d.Input),
		Scoreboard: d.Scoreboard,
	}
	for _, r := range d.Recent {
		dj.Recent = append(dj.Recent, stateJSON(r))
	}
	return dj
}

// CoverageJSON summarizes verif coverage for one monitor.
type CoverageJSON struct {
	State      float64  `json:"state"`
	Transition float64  `json:"transition"`
	HardResets uint64   `json:"hard_resets"`
	Uncovered  []string `json:"uncovered,omitempty"`
}

// MonitorVerdictJSON is one monitor's accumulated verdict. Quarantined
// reports a monitor whose engine panicked while stepping: its counters
// are frozen at the last healthy tick and QuarantineReason says why.
type MonitorVerdictJSON struct {
	Spec             string           `json:"spec"`
	Steps            int              `json:"steps"`
	Accepts          int              `json:"accepts"`
	Violations       int              `json:"violations"`
	Fallbacks        int              `json:"fallbacks"`
	LastAcceptTick   int              `json:"last_accept_tick"`
	AcceptTicks      []int            `json:"accept_ticks,omitempty"`
	Coverage         CoverageJSON     `json:"coverage"`
	Diagnostics      []DiagnosticJSON `json:"diagnostics,omitempty"`
	Quarantined      bool             `json:"quarantined,omitempty"`
	QuarantineReason string           `json:"quarantine_reason,omitempty"`
}

// VerdictsJSON is the body of GET /sessions/{id}/verdicts.
type VerdictsJSON struct {
	Session  string               `json:"session"`
	Mode     string               `json:"mode"`
	Monitors []MonitorVerdictJSON `json:"monitors"`
}

// verdicts snapshots the session's accumulated results.
func (s *session) verdicts() VerdictsJSON {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := VerdictsJSON{Session: s.id, Mode: modeString(s.mode)}
	for _, sm := range s.mons {
		st := sm.eng.Stats()
		mv := MonitorVerdictJSON{
			Spec:           sm.spec,
			Steps:          st.Steps,
			Accepts:        st.Accepts,
			Violations:     st.Violations,
			Fallbacks:      st.Fallbacks,
			LastAcceptTick: st.LastAcceptTick,
			AcceptTicks:    append([]int(nil), sm.acceptTicks...),
			Coverage: CoverageJSON{
				State:      sm.cov.StateCoverage(),
				Transition: sm.cov.TransitionCoverage(),
				HardResets: sm.cov.HardResets(),
				Uncovered:  sm.cov.UncoveredTransitions(),
			},
			Quarantined:      sm.quarantined,
			QuarantineReason: sm.quarantineReason,
		}
		mv.Diagnostics = diagnosticsJSON(sm.eng)
		out.Monitors = append(out.Monitors, mv)
	}
	return out
}

// MonitorDiagnosticsJSON is one monitor's retained provenance ring.
type MonitorDiagnosticsJSON struct {
	Spec        string           `json:"spec"`
	Violations  int              `json:"violations"`
	Diagnostics []DiagnosticJSON `json:"diagnostics,omitempty"`
}

// DiagnosticsJSON is the body of GET /sessions/{id}/diagnostics.
type DiagnosticsJSON struct {
	Session  string                   `json:"session"`
	Mode     string                   `json:"mode"`
	Monitors []MonitorDiagnosticsJSON `json:"monitors"`
}

// diagnostics snapshots the per-monitor provenance rings.
func (s *session) diagnostics() DiagnosticsJSON {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := DiagnosticsJSON{Session: s.id, Mode: modeString(s.mode)}
	for _, sm := range s.mons {
		md := MonitorDiagnosticsJSON{Spec: sm.spec, Violations: sm.eng.Stats().Violations}
		md.Diagnostics = diagnosticsJSON(sm.eng)
		out.Monitors = append(out.Monitors, md)
	}
	return out
}

// SessionInfoJSON is the body of GET /sessions/{id} and the elements of
// GET /sessions.
type SessionInfoJSON struct {
	ID        string   `json:"id"`
	Mode      string   `json:"mode"`
	Shard     int      `json:"shard"`
	Specs     []string `json:"specs"`
	Steps     int      `json:"steps"`
	IdleMilli int64    `json:"idle_ms"`
	// Tenant is the quota accounting key the session is charged to.
	Tenant string `json:"tenant,omitempty"`
	// Path names the execution path the session's ticks take: "table"
	// (fired transitions looked up in the spec's shared table) or
	// "packed" (compiled guard programs, or the interpreted engine for a
	// spec without one). Every path steps packed ticks. Empty for cold
	// entries.
	Path string `json:"path,omitempty"`
	// Cold marks a paged-out session: its state lives in its WAL
	// checkpoint and the next tick revives it transparently. Cold
	// entries report no step count (reading one would mean reviving).
	Cold bool `json:"cold,omitempty"`
}

func (s *session) info() SessionInfoJSON {
	s.mu.Lock()
	steps := 0
	specs := make([]string, 0, len(s.mons))
	for _, sm := range s.mons {
		specs = append(specs, sm.spec)
		if st := sm.eng.Stats(); st.Steps > steps {
			steps = st.Steps
		}
	}
	s.mu.Unlock()
	return SessionInfoJSON{
		ID:        s.id,
		Mode:      modeString(s.mode),
		Shard:     s.shard,
		Specs:     specs,
		Steps:     steps,
		IdleMilli: s.idleFor(time.Now()).Milliseconds(),
		Tenant:    s.tenant,
		Path:      s.path(),
	}
}

// path names the session's execution path for SessionInfoJSON.Path;
// it reads only fields fixed by newSession.
func (s *session) path() string {
	if s.onTable {
		return "table"
	}
	return "packed"
}
