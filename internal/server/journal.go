package server

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/event"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/verif"
	"repro/internal/wal"
)

// Session journaling. When Config.WALDir is set, every session owns one
// journal under <WALDir>/<session-id>/ and the accept path appends a
// record per accepted batch, so a crashed daemon restarted on the same
// directory rebuilds each session by replaying the journal and reports
// verdicts and coverage identical to an uninterrupted run.
//
// Record kinds. cescd writes recMeta, recSnapshot and
// recBatchRawTraced; recBatch and recBatchRaw are read-only: replay
// still decodes them because older daemons wrote them (frozen samples
// live under testdata/journals/).
//
//	recMeta     — session identity + the printed source of every spec,
//	              written (and synced) before the create response. The
//	              specs travel as source because the automaton is fully
//	              deterministic to resynthesize, which keeps snapshots
//	              small and versions the journal against the compiler;
//	              the registry compiles each distinct source once.
//	recSnapshot — periodic execution-state checkpoint. Appended via
//	              wal.AppendCheckpoint, which rotates first so every
//	              earlier record lands in an older segment and prunes
//	              those segments afterwards; the record is therefore
//	              self-contained (it repeats the session meta).
//	recBatchRawTraced — one accepted tick batch, appended under ingestMu
//	              in accept order: a 16-byte little-endian header (the
//	              journal index jseq, then the client's dedup seq), a
//	              uint16 trace-id length and the trace-id bytes (length 0
//	              when the batch carried none), then the batch's NDJSON
//	              bytes — the verbatim request body, or a VCD chunk
//	              encoded as NDJSON. Replay decodes the bytes with the
//	              ingest decoder, and a standby's promotion replay (the
//	              records replicate verbatim) attributes recovered ticks
//	              to the originating trace.
//	recBatch    — read-only: one batch as JSON, its ticks as StateJSON
//	              objects (what daemons with a map ingest path wrote for
//	              batches they decoded into maps).
//	recBatchRaw — read-only: the recBatchRawTraced frame without the
//	              trace field (what daemons wrote for untraced batches
//	              before every batch took the traced frame).
const (
	recMeta           byte = 1
	recBatch          byte = 2
	recSnapshot       byte = 3
	recBatchRaw       byte = 4
	recBatchRawTraced byte = 5
)

// RecordSnapshot is exported for the cluster layer, which passes
// journal records through verbatim: the replicator tails an owner's
// journal and ships its records as the same frames, and the standby
// checks every frame of a ship before it appends any of them to its
// copy, applying snapshots via a checkpoint so the standby journal is
// pruned in lockstep with the owner's.
const RecordSnapshot = recSnapshot

// rawBatchHeaderLen is the fixed prefix of a recBatchRaw payload: jseq
// and the client seq, little-endian uint64s. recBatchRawTraced extends
// it with a uint16 trace length and the trace bytes.
const rawBatchHeaderLen = 16

type specSourceJSON struct {
	Name   string `json:"name"`
	Source string `json:"source"`
}

type sessionMetaJSON struct {
	ID        string    `json:"id"`
	Mode      string    `json:"mode"`
	Created   time.Time `json:"created"`
	DiagDepth int       `json:"diag_depth,omitempty"`
	// Tenant keys quota accounting; journaled so recovery, revival, and
	// migration keep charging the same tenant. Absent in pre-tenancy
	// journals, which fall back to the session-ID prefix.
	Tenant string           `json:"tenant,omitempty"`
	Specs  []specSourceJSON `json:"specs"`
}

type batchRecordJSON struct {
	JSeq uint64 `json:"jseq"`
	Seq  uint64 `json:"seq,omitempty"`
	// Trace is the X-Cesc-Trace id the batch arrived under, kept so a
	// replay (recovery, revival, promotion) can attribute the recovered
	// ticks to the trace that originally carried them.
	Trace string      `json:"trace,omitempty"`
	Ticks []StateJSON `json:"ticks"`
}

type monitorSnapshotJSON struct {
	Spec             string                     `json:"spec"`
	Engine           monitor.EngineSnapshot     `json:"engine"`
	Scoreboard       monitor.ScoreboardSnapshot `json:"scoreboard"`
	Coverage         verif.CoverageSnapshot     `json:"coverage"`
	AcceptTicks      []int                      `json:"accept_ticks,omitempty"`
	Quarantined      bool                       `json:"quarantined,omitempty"`
	QuarantineReason string                     `json:"quarantine_reason,omitempty"`
}

// snapshotFormat versions the snapshot record. Absent/zero means the
// PR-2 encoding (map-keyed scoreboard entries); 3 means the packed
// encoding (slot-keyed parallel slices, see monitor.ScoreboardSnapshot).
// The decoder accepts both; writers emit the current format.
const snapshotFormat = 3

type snapshotRecordJSON struct {
	Format   int                   `json:"format,omitempty"`
	Meta     sessionMetaJSON       `json:"meta"`
	JSeq     uint64                `json:"jseq"`
	LastSeq  uint64                `json:"last_seq"`
	Monitors []monitorSnapshotJSON `json:"monitors"`
}

// openFreshJournal gives sess a new journal holding one durable record:
// the meta record of a created session, or the snapshot of an adopted
// one. The journal must be empty; on any error it is abandoned and sess
// keeps none.
func (s *Server) openFreshJournal(sess *session, kind byte, rec any) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	j, err := s.wal.OpenJournal(sess.id, func(wal.Record) error {
		return fmt.Errorf("journal for new session %s is not empty", sess.id)
	})
	if err != nil {
		return err
	}
	if err := j.Append(kind, payload); err != nil {
		j.Abandon()
		return err
	}
	if err := j.Sync(); err != nil {
		j.Abandon()
		return err
	}
	sess.jrnl = j
	sess.journaled.Store(true)
	return nil
}

// journalBatch appends one accepted batch as a recBatchRawTraced frame:
// the header, the trace id (empty when untraced, or when too long for
// the uint16 length field), then the batch's NDJSON bytes. Caller holds
// sess.ingestMu and has already assigned b.jseq.
func (s *Server) journalBatch(sess *session, b *batch, seq uint64) error {
	trace := b.trace
	if len(trace) > 0xFFFF {
		trace = ""
	}
	payload := make([]byte, rawBatchHeaderLen+2+len(trace)+len(b.raw))
	binary.LittleEndian.PutUint64(payload[0:8], b.jseq)
	binary.LittleEndian.PutUint64(payload[8:16], seq)
	binary.LittleEndian.PutUint16(payload[16:18], uint16(len(trace)))
	copy(payload[18:], trace)
	copy(payload[18+len(trace):], b.raw)
	start := time.Now()
	err := sess.jrnl.Append(recBatchRawTraced, payload)
	dur := time.Since(start)
	s.metrics.observeStage(obs.StageWALAppend, dur)
	sp := obs.Span{
		Trace: b.trace, Session: sess.id, Stage: obs.StageWALAppend,
		Start: start, Dur: dur, Ticks: b.packed.Len(),
	}
	if err != nil {
		sp.Note = err.Error()
	}
	s.tracer.Record(sess.shard, sp)
	return err
}

// buildSnapshotRecord assembles a self-contained snapshot of the
// session's execution state. Caller holds sess.ingestMu (or otherwise
// guarantees no concurrent worker), so appliedJSeq and lastSeq are
// settled; sess.mu is taken for the engine reads.
func buildSnapshotRecord(sess *session) snapshotRecordJSON {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	rec := snapshotRecordJSON{Format: snapshotFormat, Meta: sess.meta, JSeq: sess.appliedJSeq, LastSeq: sess.lastSeq}
	for _, sm := range sess.mons {
		rec.Monitors = append(rec.Monitors, monitorSnapshotJSON{
			Spec:             sm.spec,
			Engine:           sm.eng.Snapshot(),
			Scoreboard:       sm.eng.Scoreboard().Snapshot(),
			Coverage:         sm.cov.Snapshot(),
			AcceptTicks:      append([]int(nil), sm.acceptTicks...),
			Quarantined:      sm.quarantined,
			QuarantineReason: sm.quarantineReason,
		})
	}
	return rec
}

// snapshotSession checkpoints the session's execution state. Caller
// holds sess.ingestMu and has waited for the batch that made the
// snapshot due, so appliedJSeq covers every journaled batch and the
// checkpoint may prune all older segments.
func (s *Server) snapshotSession(sess *session) error {
	payload, err := json.Marshal(buildSnapshotRecord(sess))
	if err != nil {
		return err
	}
	if err := sess.jrnl.AppendCheckpoint(recSnapshot, payload); err != nil {
		return err
	}
	s.metrics.walSnapshots.Add(1)
	return nil
}

// dropJournal closes a session's journal and removes it from disk
// (explicit delete and idle eviction — the session is gone, so its
// durability obligation is too).
func (s *Server) dropJournal(sess *session) {
	if sess.jrnl == nil {
		return
	}
	_ = sess.jrnl.Close()
	_ = s.wal.Remove(sess.id)
	sess.jrnl = nil
	sess.journaled.Store(false)
}

// recoverSessions rebuilds every journaled session found in the WAL
// directory. Called from New before the HTTP API is reachable, so the
// rebuilt sessions see no concurrent traffic.
func (s *Server) recoverSessions() error {
	ids, err := s.wal.List()
	if err != nil {
		return err
	}
	for _, id := range ids {
		if err := s.recoverSession(id); err != nil {
			return fmt.Errorf("server: recovering session %s: %w", id, err)
		}
	}
	return nil
}

// sessionRestorer folds a stream of journal records into a session being
// rebuilt. It is the shared replay core of three paths that must agree
// byte for byte: crash recovery (records from the local journal),
// migration import (a single self-contained snapshot record shipped by
// the losing owner), and standby promotion (the records a dead owner
// replicated to this node).
type sessionRestorer struct {
	srv         *Server
	sess        *session
	replayed    uint64
	replayTicks int
	// lastTrace is the trace id of the newest replayed batch that carried
	// one, so the replay span can point back at the originating trace —
	// on a promoted standby this is how a cross-node timeline shows the
	// recovered ticks under the client's own trace id.
	lastTrace string
}

// apply folds one record into the session under construction.
func (rs *sessionRestorer) apply(rec wal.Record) error {
	switch rec.Kind {
	case recMeta:
		var meta sessionMetaJSON
		if err := json.Unmarshal(rec.Payload, &meta); err != nil {
			return fmt.Errorf("meta record: %w", err)
		}
		var err error
		rs.sess, err = rs.srv.sessionFromMeta(meta)
		return err
	case recSnapshot:
		var snap snapshotRecordJSON
		if err := json.Unmarshal(rec.Payload, &snap); err != nil {
			return fmt.Errorf("snapshot record: %w", err)
		}
		if snap.Format > snapshotFormat {
			return fmt.Errorf("snapshot format %d is newer than this build supports (%d)",
				snap.Format, snapshotFormat)
		}
		// Snapshots are self-contained: checkpointing pruned the
		// segments holding the meta record, so rebuild from here.
		sess, err := rs.srv.sessionFromMeta(snap.Meta)
		if err != nil {
			return err
		}
		if len(snap.Monitors) != len(sess.mons) {
			return fmt.Errorf("snapshot has %d monitors, session has %d", len(snap.Monitors), len(sess.mons))
		}
		for i, ms := range snap.Monitors {
			sm := sess.mons[i]
			if sm.spec != ms.Spec {
				return fmt.Errorf("snapshot monitor %d is %q, session has %q", i, ms.Spec, sm.spec)
			}
			if err := sm.eng.Restore(ms.Engine); err != nil {
				return err
			}
			sm.eng.Scoreboard().Restore(ms.Scoreboard)
			if err := sm.cov.Restore(ms.Coverage); err != nil {
				return err
			}
			sm.acceptTicks = append([]int(nil), ms.AcceptTicks...)
			sm.quarantined = ms.Quarantined
			sm.quarantineReason = ms.QuarantineReason
		}
		sess.appliedJSeq = snap.JSeq
		sess.walSeq = snap.JSeq
		sess.lastSeq = snap.LastSeq
		rs.sess = sess
		return nil
	case recBatch:
		if rs.sess == nil {
			return fmt.Errorf("batch record before session meta")
		}
		var br batchRecordJSON
		if err := json.Unmarshal(rec.Payload, &br); err != nil {
			return fmt.Errorf("batch record: %w", err)
		}
		if rs.folded(br.JSeq, br.Seq) {
			return nil
		}
		pb := new(event.PackedBatch)
		pb.Reset(rs.sess.vocab.Len())
		for _, t := range br.Ticks {
			pb.AppendState(rs.sess.vocab, t.ToState())
		}
		rs.replay(br.JSeq, br.Trace, pb)
		return nil
	case recBatchRaw, recBatchRawTraced:
		if rs.sess == nil {
			return fmt.Errorf("raw batch record before session meta")
		}
		jseq, seq, trace, raw, err := parseRawBatch(rec)
		if err != nil {
			return err
		}
		if rs.folded(jseq, seq) {
			return nil
		}
		// The bytes passed the ingest decoder once, so an error here is
		// corruption the CRC framing missed, reported rather than skipped.
		pb, err := decodeBatch(rs.sess.vocab, raw, 0)
		if err != nil {
			return fmt.Errorf("raw batch record %d: %w", jseq, err)
		}
		rs.replay(jseq, trace, pb)
		return nil
	default:
		return fmt.Errorf("unknown record kind %d", rec.Kind)
	}
}

// parseRawBatch splits a recBatchRaw or recBatchRawTraced payload into
// its header fields and NDJSON bytes.
func parseRawBatch(rec wal.Record) (jseq, seq uint64, trace string, raw []byte, err error) {
	p := rec.Payload
	if len(p) < rawBatchHeaderLen {
		return 0, 0, "", nil, fmt.Errorf("raw batch record: %d bytes, want at least %d", len(p), rawBatchHeaderLen)
	}
	jseq, seq, raw = binary.LittleEndian.Uint64(p[0:8]), binary.LittleEndian.Uint64(p[8:16]), p[rawBatchHeaderLen:]
	if rec.Kind == recBatchRaw {
		return jseq, seq, "", raw, nil
	}
	if len(raw) < 2 || len(raw) < 2+int(binary.LittleEndian.Uint16(raw)) {
		return 0, 0, "", nil, fmt.Errorf("traced raw batch record: trace field overruns %d-byte payload", len(p))
	}
	end := 2 + int(binary.LittleEndian.Uint16(raw))
	return jseq, seq, string(raw[2:end]), raw[end:], nil
}

// folded advances the session's journal and dedup watermarks past one
// batch record and reports whether the restored snapshot already
// covers it.
func (rs *sessionRestorer) folded(jseq, seq uint64) bool {
	sess := rs.sess
	if jseq > sess.walSeq {
		sess.walSeq = jseq
	}
	if seq > sess.lastSeq {
		sess.lastSeq = seq
	}
	return jseq <= sess.appliedJSeq
}

// replay steps one journaled batch through the session, as the shard
// worker stepped it live.
func (rs *sessionRestorer) replay(jseq uint64, trace string, pb *event.PackedBatch) {
	if trace != "" {
		rs.lastTrace = trace
	}
	sess := rs.sess
	sess.mu.Lock()
	sess.stepBatch(pb, 0)
	sess.appliedJSeq = jseq
	sess.mu.Unlock()
	rs.replayed++
	rs.replayTicks += pb.Len()
}

// restore rebuilds a session from the records feed passes to its apply
// function — the one replay of crash recovery, revival, migration and
// promotion — and attributes the replay: the wal_replay stage, a span
// of the given kind, and batches_replayed. A "migration" that replays
// batch records is a standby "promotion". The span carries the newest
// originating trace id the replay saw, so a merged cluster timeline
// shows the recovered ticks under the client's own trace. A nil session
// with nil error means the records held no meta or snapshot record.
func (s *Server) restore(kind string, feed func(apply func(wal.Record) error) error) (*session, error) {
	start := time.Now()
	rs := &sessionRestorer{srv: s}
	if err := feed(rs.apply); err != nil || rs.sess == nil {
		return nil, err
	}
	// Replayed verdicts are session state, not new daemon work: align the
	// per-spec reporting watermarks with the restored engine totals, so
	// the first live batch reports only its own delta (matching the
	// daemon-wide accepts/violations counters, which ignore replay too).
	for _, sm := range rs.sess.mons {
		st := sm.eng.Stats()
		sm.reportedAccepts, sm.reportedViolations = uint64(st.Accepts), uint64(st.Violations)
	}
	if kind == "migration" && rs.replayed > 0 {
		kind = "promotion"
	}
	trace := kind
	if rs.lastTrace != "" {
		trace = rs.lastTrace
	}
	dur := time.Since(start)
	s.metrics.observeStage(obs.StageWALReplay, dur)
	s.tracer.Record(rs.sess.shard, obs.Span{
		Trace: trace, Session: rs.sess.id, Stage: obs.StageWALReplay,
		Kind: kind, Start: start, Dur: dur, Ticks: rs.replayTicks,
		Note: fmt.Sprintf("replayed %d batches", rs.replayed),
	})
	s.metrics.batchesReplayed.Add(rs.replayed)
	return rs.sess, nil
}

// rebuildFromJournal replays one session's journal into a fresh session
// — the shared core of startup crash recovery and cold-session revival
// (paging is crash recovery on demand). The returned session holds the
// open journal and is not yet registered; a nil session with nil error
// means the journal held no meta record (a never-acknowledged session)
// and was removed.
func (s *Server) rebuildFromJournal(id, kind string) (*session, error) {
	var j *wal.Journal
	sess, err := s.restore(kind, func(apply func(wal.Record) error) (err error) {
		j, err = s.wal.OpenJournal(id, apply)
		return err
	})
	if err != nil {
		return nil, err
	}
	if sess == nil {
		j.Abandon()
		return nil, s.wal.Remove(id)
	}
	sess.jrnl = j
	sess.journaled.Store(true)
	return sess, nil
}

func (s *Server) recoverSession(id string) error {
	sess, err := s.rebuildFromJournal(id, "recovery")
	if err != nil || sess == nil {
		return err
	}
	s.trackLive(sess)
	s.metrics.sessionsRecovered.Add(1)
	return nil
}

// sessionFromMeta resolves the journaled spec sources through the
// registry, which compiles each distinct source once, and rebuilds the
// (empty) session around them.
func (s *Server) sessionFromMeta(meta sessionMetaJSON) (*session, error) {
	mode, err := parseMode(meta.Mode)
	if err != nil {
		return nil, err
	}
	if meta.DiagDepth < 0 || meta.DiagDepth > maxDiagDepth {
		return nil, fmt.Errorf("diag_depth %d outside [0, %d]", meta.DiagDepth, maxDiagDepth)
	}
	specs := make([]*Spec, 0, len(meta.Specs))
	for _, ss := range meta.Specs {
		sp, err := s.specs.resolve(ss.Name, ss.Source)
		if err != nil {
			return nil, err
		}
		specs = append(specs, sp)
	}
	sess := newSession(meta.ID, mode, shardFor(meta.ID, len(s.shards)), specs, s.cfg.Faults, meta.DiagDepth)
	sess.created = meta.Created
	sess.meta = meta
	sess.tenant = meta.tenant()
	return sess, nil
}

// tenant is the session's quota key: the journaled one, or for journals
// written before tenancy the session-ID prefix.
func (m *sessionMetaJSON) tenant() string {
	if m.Tenant == "" {
		return fallbackTenant(m.ID)
	}
	return m.Tenant
}
