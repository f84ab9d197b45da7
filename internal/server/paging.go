package server

// Transparent session paging: the cold half of the tiered session
// lifecycle. A hot session owns live engines and a journal; paging it
// out checkpoints the execution state into the journal (the exact
// snapshot record crash recovery replays), closes the journal, and
// drops the session from the hot table into a lightweight cold entry.
// The next request against the ID replays the journal — the same
// restorer that rebuilds sessions after a crash — so a paged+revived
// session reports verdicts byte-identical to one that never left
// memory, and the ?seq dedup watermark (carried inside the snapshot)
// keeps ingest exactly-once across the round trip.
//
// Two pressures trigger paging: the idle TTL (which, with journaling
// on, now pages instead of deleting — eviction is no longer data loss)
// and the global memory budget, which the janitor enforces
// coldest-first over estimated per-session footprints. Sessions
// without a journal cannot page; for them idle eviction remains
// deletion, counted separately.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/wal"
)

// pagedSession is the cold-table entry: everything the daemon needs to
// answer listings, route requests, and order revival without touching
// the journal on disk.
type pagedSession struct {
	id         string
	tenant     string
	mode       string
	specs      []string
	shard      int
	pagedAt    time.Time
	lastActive int64 // unix nanos at page-out, for LRU ordering
}

// newPagedSession builds the cold entry of the session meta describes,
// paged now and last active at lastActive (unix nanos).
func newPagedSession(meta *sessionMetaJSON, shard int, lastActive int64) *pagedSession {
	p := &pagedSession{id: meta.ID, tenant: meta.tenant(), mode: meta.Mode, shard: shard, pagedAt: time.Now(), lastActive: lastActive}
	for _, sp := range meta.Specs {
		p.specs = append(p.specs, sp.Name)
	}
	return p
}

func (p *pagedSession) info() SessionInfoJSON {
	return SessionInfoJSON{
		ID:        p.id,
		Mode:      p.mode,
		Shard:     p.shard,
		Specs:     append([]string(nil), p.specs...),
		IdleMilli: time.Since(time.Unix(0, p.lastActive)).Milliseconds(),
		Tenant:    p.tenant,
		Cold:      true,
	}
}

// errPagedOut marks a request that raced a page-out while holding a
// stale session pointer; the HTTP layer answers 409 + Retry-After and
// the retry revives the session through the cold table.
var errPagedOut = errors.New("server: session paged out")

// errNotJournaled reports a page-out attempt on a session without a
// journal: there is nowhere durable to put its state.
var errNotJournaled = errors.New("server: session has no journal to page to")

// --- memory accounting ---------------------------------------------------

// chargeSessionMem prices a newly registered session into the budget.
func (s *Server) chargeSessionMem(sess *session) {
	fp := sess.estimateFootprint()
	sess.footprint.Store(fp)
	s.memUsed.Add(fp)
}

// releaseSessionMem returns a departing session's charge. Swap makes it
// idempotent, so racing lifecycle paths cannot double-credit.
func (s *Server) releaseSessionMem(sess *session) {
	s.memUsed.Add(-sess.footprint.Swap(0))
}

// refreshSessionMem re-prices a live session (scoreboards grow).
func (s *Server) refreshSessionMem(sess *session) {
	fp := sess.estimateFootprint()
	s.memUsed.Add(fp - sess.footprint.Swap(fp))
}

// MemUsed reports the estimated resident bytes of hot session state.
func (s *Server) MemUsed() int64 { return s.memUsed.Load() }

// --- lifecycle transitions ----------------------------------------------

// trackLive registers a session in the hot table, taking the place of
// its cold entry if it has one (revival), and charges its footprint. All
// hot/cold transitions mutate the tenant counters under smu, which is
// what keeps them consistent.
func (s *Server) trackLive(sess *session) {
	s.smu.Lock()
	if cold, ok := s.paged[sess.id]; ok {
		delete(s.paged, sess.id)
		s.tenants.addCold(cold.tenant, -1)
	}
	s.sessions[sess.id] = sess
	s.tenants.addHot(sess.tenant, 1)
	s.smu.Unlock()
	s.chargeSessionMem(sess)
}

// dropHot takes sess out of the hot table and returns its memory charge,
// if sess is still the id's entry; a non-nil park becomes the id's cold
// entry under the same lock (page-out). The cold table is otherwise left
// alone: a stale pointer must never drop a session another path parked.
// It reports whether sess was removed.
func (s *Server) dropHot(sess *session, park *pagedSession) bool {
	s.smu.Lock()
	cur, ok := s.sessions[sess.id]
	if ok = ok && cur == sess; ok {
		delete(s.sessions, sess.id)
		s.tenants.addHot(sess.tenant, -1)
		if park != nil {
			s.paged[sess.id] = park
			s.tenants.addCold(park.tenant, 1)
		}
	}
	s.smu.Unlock()
	if ok {
		s.releaseSessionMem(sess)
	}
	return ok
}

// forget takes the id off the node: its hot entry (returned, charge
// released) and its cold entry (reported) both go.
func (s *Server) forget(id string) (*session, bool) {
	s.smu.Lock()
	hot, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
		s.tenants.addHot(hot.tenant, -1)
	}
	cold, wasCold := s.paged[id]
	if wasCold {
		delete(s.paged, id)
		s.tenants.addCold(cold.tenant, -1)
	}
	s.smu.Unlock()
	if ok {
		s.releaseSessionMem(hot)
	}
	return hot, wasCold
}

// liveSessions snapshots the hot table.
func (s *Server) liveSessions() []*session {
	s.smu.RLock()
	out := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sess)
	}
	s.smu.RUnlock()
	return out
}

// PageOutSession checkpoints a hot session to its journal and drops it
// cold. Paging an already-cold ID is a no-op; an unknown ID is
// ErrNoSession. Exposed for the ops endpoint, the cluster layer, and
// the conformance harness's page-every-batch campaign.
func (s *Server) PageOutSession(id string) error {
	if sess, ok := s.session(id); ok {
		return s.pageOutSession(sess)
	}
	s.smu.RLock()
	_, cold := s.paged[id]
	s.smu.RUnlock()
	if cold {
		return nil
	}
	return ErrNoSession
}

// pageOutSession is the page-out mechanics: barrier, checkpoint, close,
// demote. The barrier (an empty batch waited on under ingestMu) settles
// the shard worker, so the checkpoint covers every acknowledged batch —
// the same discipline ExportSession uses, and the reason a revived
// session is byte-identical.
func (s *Server) pageOutSession(sess *session) error {
	sess.ingestMu.Lock()
	defer sess.ingestMu.Unlock()
	if sess.pagedOut {
		return nil
	}
	if sess.frozen {
		return errMigrating
	}
	if sess.jrnl == nil {
		return errNotJournaled
	}
	if sess.jrnlErr != nil {
		// Its checkpoint would fail too, and count one more WAL error
		// on every janitor sweep.
		return sess.jrnlErr
	}
	if err := s.barrier(sess); err != nil {
		return err
	}
	if err := s.snapshotSession(sess); err != nil {
		// The session stays hot and keeps serving; the journal tail is
		// still intact, so nothing is lost.
		s.metrics.walErrors.Add(1)
		return err
	}
	sess.pagedOut = true
	_ = sess.jrnl.Close()
	sess.jrnl = nil
	sess.journaled.Store(false)
	if !s.dropHot(sess, newPagedSession(&sess.meta, sess.shard, sess.lastActive.Load())) {
		// Deleted concurrently (DELETE removes from the hot table before
		// taking ingestMu): honor the delete — drop the journal files we
		// just checkpointed instead of resurrecting the session cold.
		_ = s.wal.Remove(sess.id)
		return nil
	}
	s.metrics.sessionsPaged.Add(1)
	return nil
}

// fetchSession resolves an ID to a hot session, reviving it from the
// cold table if needed. ErrNoSession when the ID is unknown.
func (s *Server) fetchSession(id string) (*session, error) {
	if sess, ok := s.session(id); ok {
		return sess, nil
	}
	return s.reviveSession(id)
}

// reviveSession rebuilds a cold session by replaying its journal — the
// crash-recovery path reused as the page-in mechanism. reviveMu
// serializes revivals so two concurrent ticks for one cold session
// build it once; the double-check under the lock makes the second
// caller adopt the first one's result.
func (s *Server) reviveSession(id string) (*session, error) {
	s.reviveMu.Lock()
	defer s.reviveMu.Unlock()
	if sess, ok := s.session(id); ok {
		return sess, nil
	}
	s.smu.RLock()
	_, ok := s.paged[id]
	s.smu.RUnlock()
	if !ok {
		return nil, ErrNoSession
	}
	sess, err := s.rebuildFromJournal(id, "revival")
	if err != nil {
		return nil, fmt.Errorf("server: reviving session %s: %w", id, err)
	}
	if sess == nil {
		// Journal vanished or held no meta — the cold entry is stale. The
		// id has no hot entry: under reviveMu only a revival makes it hot.
		s.forget(id)
		return nil, ErrNoSession
	}
	sess.touch()
	s.trackLive(sess)
	s.metrics.sessionsRevived.Add(1)
	// Fairness and budget both react to the new hot resident.
	s.enforceHotLimit(sess.tenant, sess)
	if b := s.cfg.MemBudget; b > 0 && s.memUsed.Load() > b {
		s.kickPressure()
	}
	return sess, nil
}

// coldSessionIDs snapshots the cold table's IDs.
func (s *Server) coldSessionIDs() []string {
	s.smu.RLock()
	ids := make([]string, 0, len(s.paged))
	for id := range s.paged {
		ids = append(ids, id)
	}
	s.smu.RUnlock()
	return ids
}

// --- janitor: idle paging + pressure eviction ---------------------------

// kickPressure wakes the janitor for an immediate pressure sweep that
// drains to the low watermark (80% of budget) rather than just under
// it, so the governor does not thrash at the threshold.
func (s *Server) kickPressure() {
	s.underPressure.Store(true)
	select {
	case s.pressureCh <- struct{}{}:
	default:
	}
}

// sweep is one janitor pass: refresh footprints, page (or, without a
// journal, delete) idle sessions, then enforce the memory budget
// coldest-first and the journal disk budget oldest-first.
func (s *Server) sweep(now time.Time) {
	live := s.liveSessions()
	for _, sess := range live {
		s.refreshSessionMem(sess)
	}
	if ttl := s.cfg.IdleTTL; ttl > 0 {
		for _, sess := range live {
			if sess.idleFor(now) <= ttl {
				continue
			}
			if sess.journaled.Load() {
				_ = s.pageOutSession(sess)
			} else {
				s.evictSession(sess)
			}
		}
	}
	s.enforceMemBudget()
	s.enforceJournalBudget()
}

// enforceMemBudget pages hot sessions coldest-first until estimated
// resident bytes are back under the memory budget (or its pressure
// watermark).
func (s *Server) enforceMemBudget() {
	budget := s.cfg.MemBudget
	if budget <= 0 {
		return
	}
	target := budget
	if s.underPressure.Swap(false) {
		target = budget - budget/5
	}
	if s.memUsed.Load() <= target {
		return
	}
	s.pageColdest(target, true)
}

// enforceJournalBudget caps the on-disk bytes of the journal directory.
// Hot journals cannot be dropped without losing acknowledged state, so
// the budget prunes cold paged sessions oldest-checkpoint-first: the
// cold entry and its journal are deleted together, counted as a
// deletion (the state really is gone — a later request gets 404). The
// measured total is published as the journal_bytes gauge either way.
func (s *Server) enforceJournalBudget() {
	if s.wal == nil {
		return
	}
	total, per, err := s.wal.DiskUsage()
	if err != nil {
		return
	}
	s.metrics.journalBytes.Store(total)
	budget := s.cfg.JournalBudget
	if budget <= 0 || total <= budget {
		return
	}
	// reviveMu excludes concurrent revivals, so a session observed cold
	// under smu stays cold while its journal is removed.
	s.reviveMu.Lock()
	defer s.reviveMu.Unlock()
	s.smu.RLock()
	cold := make([]*pagedSession, 0, len(s.paged))
	for _, p := range s.paged {
		cold = append(cold, p)
	}
	s.smu.RUnlock()
	sort.Slice(cold, func(i, j int) bool { return cold[i].pagedAt.Before(cold[j].pagedAt) })
	for _, p := range cold {
		if total <= budget {
			break
		}
		s.smu.Lock()
		if cur, ok := s.paged[p.id]; !ok || cur != p {
			s.smu.Unlock()
			continue
		}
		delete(s.paged, p.id)
		s.tenants.addCold(p.tenant, -1)
		s.smu.Unlock()
		_ = s.wal.Remove(p.id)
		total -= per[p.id]
		s.metrics.sessionsDeleted.Add(1)
		s.metrics.journalPruned.Add(1)
	}
	s.metrics.journalBytes.Store(total)
}

// pageColdest pages hot journaled sessions in rising lastActive order
// until the estimated usage is at or under target. forced marks
// governor/budget-driven page-outs in the shed counters.
func (s *Server) pageColdest(target int64, forced bool) {
	cands := s.liveSessions()
	sort.Slice(cands, func(i, j int) bool {
		return cands[i].lastActive.Load() < cands[j].lastActive.Load()
	})
	for _, sess := range cands {
		if s.memUsed.Load() <= target {
			return
		}
		if !sess.journaled.Load() {
			continue
		}
		if err := s.pageOutSession(sess); err == nil && forced {
			s.metrics.shedPageouts.Add(1)
		}
	}
}

// evictSession deletes an idle session that has no journal — the
// pre-paging eviction semantics, now counted as a deletion because the
// state really is gone.
func (s *Server) evictSession(sess *session) {
	if s.dropHot(sess, nil) {
		s.metrics.sessionsDeleted.Add(1)
	}
}

// --- cold start ----------------------------------------------------------

// registerColdSessions is the Config.ColdStart alternative to eager
// recovery: every journaled session found at startup is registered cold
// (meta scanned, no replay), so a node fronting millions of sessions
// becomes ready immediately and pays replay lazily, per session, on
// first touch.
func (s *Server) registerColdSessions() error {
	ids, err := s.wal.List()
	if err != nil {
		return err
	}
	for _, id := range ids {
		meta, err := s.scanJournalMeta(id)
		if err != nil {
			return fmt.Errorf("server: cold-registering session %s: %w", id, err)
		}
		if meta == nil {
			// Never-acknowledged session (crash between mkdir and the
			// meta append): drop it, as eager recovery would.
			if err := s.wal.Remove(id); err != nil {
				return err
			}
			continue
		}
		cold := newPagedSession(meta, shardFor(id, len(s.shards)), time.Now().UnixNano())
		s.smu.Lock()
		s.paged[id] = cold
		s.tenants.addCold(cold.tenant, 1)
		s.smu.Unlock()
		s.metrics.sessionsRecovered.Add(1)
	}
	return nil
}

// scanJournalMeta reads a journal just far enough to learn the session
// meta (from the meta record or a checkpoint's embedded copy), skipping
// batch replay entirely.
func (s *Server) scanJournalMeta(id string) (*sessionMetaJSON, error) {
	var meta *sessionMetaJSON
	j, err := s.wal.OpenJournal(id, func(rec wal.Record) error {
		switch rec.Kind {
		case recMeta:
			var m sessionMetaJSON
			if err := json.Unmarshal(rec.Payload, &m); err != nil {
				return fmt.Errorf("meta record: %w", err)
			}
			meta = &m
		case recSnapshot:
			var snap snapshotRecordJSON
			if err := json.Unmarshal(rec.Payload, &snap); err != nil {
				return fmt.Errorf("snapshot record: %w", err)
			}
			meta = &snap.Meta
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	j.Abandon() // read-only scan: nothing buffered, nothing to sync
	return meta, nil
}

// --- HTTP ---------------------------------------------------------------

// handlePageOut is POST /sessions/{id}/pageout: the ops hook to demote
// a session explicitly (tests, pre-maintenance cooling, external
// policy). Idempotent on cold sessions.
func (s *Server) handlePageOut(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	err := s.PageOutSession(id)
	switch {
	case err == nil:
		WriteJSON(w, http.StatusOK, map[string]string{"paged": id})
	case errors.Is(err, ErrNoSession):
		WriteError(w, http.StatusNotFound, "no such session")
	case errors.Is(err, errNotJournaled):
		WriteError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, errMigrating):
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusConflict, "%v", err)
	default:
		WriteError(w, http.StatusInternalServerError, "%v", err)
	}
}
