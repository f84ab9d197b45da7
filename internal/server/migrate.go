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
	// Exports revive cold sessions, but forget clears any cold entry too
	// so a racing page-out cannot leave a ghost behind.
	sess, _ := s.forget(id)
	if sess == nil {
		return
	}
	s.dropJournal(sess)
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
	sess, err := s.restore("migration", func(apply func(wal.Record) error) error {
		for _, rec := range recs {
			if err := apply(rec); err != nil {
				return err
			}
		}
		return nil
	})
	switch {
	case err != nil:
		return fmt.Errorf("server: adopting session %s: %w", id, err)
	case sess == nil:
		return fmt.Errorf("server: adopting session %s: no meta or snapshot record", id)
	case sess.id != id:
		return fmt.Errorf("server: adopting session %s: records describe session %s", id, sess.id)
	}
	if s.wal != nil {
		if err := s.wal.Remove(id); err != nil {
			return fmt.Errorf("server: adopting session %s: clearing stale journal: %w", id, err)
		}
		if err := s.openFreshJournal(sess, recSnapshot, buildSnapshotRecord(sess)); err != nil {
			return fmt.Errorf("server: adopting session %s: %w", id, err)
		}
	}
	s.trackLive(sess)
	s.metrics.sessionsMigratedIn.Add(1)
	s.enforceHotLimit(sess.tenant, sess)
	return nil
}
