package server

// Live session migration primitives. The cluster layer drives the
// protocol (who moves where, epoch fencing, HTTP); this file owns the
// state mechanics on both ends of a handoff:
//
//	losing owner:  ExportSession  → ship payload → CommitMigration
//	                               → on failure → AbortMigration
//	gaining owner: AdoptSession(payload records)
//
// An export freezes the session first — ingest answers 409 until the
// handoff commits (the retry then lands on the new owner) or aborts. The
// exported payload is one self-contained snapshot record, the exact
// encoding the WAL checkpoint path writes, so adoption is recovery
// replay reusing the same restorer: byte-identical verdicts by
// construction. The ?seq dedup watermark travels inside the snapshot,
// which is what keeps ingest exactly-once across the move.

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
)

// ErrNoSession reports an operation against a session ID this node does
// not hold.
var ErrNoSession = errors.New("server: no such session")

// errMigrating marks ingest against a frozen (mid-handoff) session; the
// HTTP layer maps it to 409 + Retry-After.
var errMigrating = errors.New("server: session migrating")

// HasSession reports whether the session lives on this node, hot or
// cold — a paged-out session is still owned here (its state is in the
// local WAL), so routing, draining, and migration must all see it.
func (s *Server) HasSession(id string) bool {
	s.smu.RLock()
	defer s.smu.RUnlock()
	if _, ok := s.sessions[id]; ok {
		return true
	}
	_, ok := s.paged[id]
	return ok
}

// SessionIDs returns the IDs of every local session, hot and cold,
// sorted. Drain and rebalance iterate this list, so cold sessions
// migrate (reviving on export) instead of being stranded.
func (s *Server) SessionIDs() []string {
	s.smu.RLock()
	ids := make([]string, 0, len(s.sessions)+len(s.paged))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	for id := range s.paged {
		ids = append(ids, id)
	}
	s.smu.RUnlock()
	sort.Strings(ids)
	return ids
}

// WAL exposes the journal manager (nil when journaling is disabled) so
// the cluster replicator can tail session journals.
func (s *Server) WAL() *wal.Manager { return s.wal }

// ExportSession freezes a session and returns its state as one
// self-contained snapshot record payload (the WAL checkpoint encoding).
// The freeze persists after return: the caller must finish with either
// CommitMigration (the new owner acknowledged) or AbortMigration (the
// handoff failed; the session thaws and keeps serving here).
//
// The export barrier enqueues an empty batch and waits for it while
// holding the session's ingest lock, so the snapshot covers every batch
// ever acknowledged and nothing can be accepted between snapshot and
// freeze.
func (s *Server) ExportSession(id string) ([]byte, error) {
	// A cold session revives first: the handoff payload is built from
	// live state, the same path as a hot export, so a migrated-then-
	// revived session cannot diverge from a never-paged one.
	sess, err := s.fetchSession(id)
	if err != nil {
		return nil, err
	}
	sess.ingestMu.Lock()
	defer sess.ingestMu.Unlock()
	if sess.frozen {
		return nil, fmt.Errorf("server: session %s is already mid-handoff", id)
	}
	if err := s.barrier(sess); err != nil {
		return nil, err
	}
	sess.frozen = true
	payload, err := json.Marshal(buildSnapshotRecord(sess))
	if err != nil {
		sess.frozen = false
		return nil, err
	}
	return payload, nil
}

// CommitMigration finishes a handoff on the losing side: the session
// (still frozen, so nothing raced in) is dropped along with its journal
// — its durability obligation moved with it.
func (s *Server) CommitMigration(id string) {
	s.smu.Lock()
	sess, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
		s.tenants.addHot(sess.tenant, -1)
	}
	// Exports revive cold sessions, but clear any cold entry too so a
	// racing page-out cannot leave a ghost behind.
	if cold, wasCold := s.paged[id]; wasCold {
		delete(s.paged, id)
		s.tenants.addCold(cold.tenant, -1)
	}
	s.smu.Unlock()
	if !ok {
		return
	}
	s.dropJournal(sess)
	s.releaseSessionMem(sess)
	s.metrics.sessionsMigratedOut.Add(1)
}

// AbortMigration thaws a frozen session after a failed handoff; it
// resumes serving on this node as if the export never happened.
func (s *Server) AbortMigration(id string) {
	sess, ok := s.session(id)
	if !ok {
		return
	}
	sess.ingestMu.Lock()
	sess.frozen = false
	sess.ingestMu.Unlock()
}

// AdoptSession rebuilds a session from a stream of journal records — a
// migration handoff's single snapshot record, or the full record
// sequence a dead owner replicated to this node's standby store — and
// registers it as live. With journaling enabled, the adopted state is
// made durable (a fresh journal holding one snapshot record, replacing
// any stale journal from an earlier ownership) before the session is
// exposed. Adopting an ID that is already live is a no-op, which makes
// handoff retries idempotent.
func (s *Server) AdoptSession(id string, recs []wal.Record) error {
	s.adoptMu.Lock()
	defer s.adoptMu.Unlock()
	if s.HasSession(id) {
		return nil
	}
	replayStart := time.Now()
	rs := &sessionRestorer{srv: s}
	for _, rec := range recs {
		if err := rs.apply(rec); err != nil {
			return fmt.Errorf("server: adopting session %s: %w", id, err)
		}
	}
	if rs.sess == nil {
		return fmt.Errorf("server: adopting session %s: no meta or snapshot record", id)
	}
	if rs.sess.id != id {
		return fmt.Errorf("server: adopting session %s: records describe session %s", id, rs.sess.id)
	}
	rs.finish()
	// Attribute the adoption replay. A standby promotion replays batch
	// records the dead owner replicated here, so the span carries the
	// originating trace id those batches arrived under — the link that
	// lets a merged timeline show recovery under the client's trace. A
	// migration handoff is a single snapshot record (no batches).
	kind := "migration"
	if rs.replayed > 0 {
		kind = "promotion"
	}
	spanTrace := kind
	if rs.lastTrace != "" {
		spanTrace = rs.lastTrace
	}
	replayDur := time.Since(replayStart)
	s.metrics.observeStage(obs.StageWALReplay, replayDur)
	s.tracer.Record(rs.sess.shard, obs.Span{
		Trace: spanTrace, Session: id, Stage: obs.StageWALReplay,
		Kind: kind, Start: replayStart, Dur: replayDur, Ticks: rs.replayTicks,
		Note: fmt.Sprintf("adopted: replayed %d batches", rs.replayed),
	})
	sess := rs.sess
	if s.wal != nil {
		if err := s.wal.Remove(id); err != nil {
			return fmt.Errorf("server: adopting session %s: clearing stale journal: %w", id, err)
		}
		j, err := s.wal.OpenJournal(id, func(wal.Record) error {
			return fmt.Errorf("journal for adopted session %s is not empty", id)
		})
		if err != nil {
			return fmt.Errorf("server: adopting session %s: %w", id, err)
		}
		payload, err := json.Marshal(buildSnapshotRecord(sess))
		if err == nil {
			err = j.Append(recSnapshot, payload)
		}
		if err == nil {
			err = j.Sync()
		}
		if err != nil {
			j.Abandon()
			return fmt.Errorf("server: adopting session %s: %w", id, err)
		}
		sess.jrnl = j
		sess.journaled.Store(true)
	}
	s.trackLive(sess)
	s.metrics.sessionsMigratedIn.Add(1)
	s.enforceHotLimit(sess.tenant, sess)
	return nil
}
