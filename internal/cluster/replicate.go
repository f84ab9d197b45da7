package cluster

// Warm-standby replication: each owner tails its sessions' WAL journals
// (wal.ReadFrom) and ships new records to the ring successor's standby
// store as journal frames (wal.AppendFrame) in the octet-stream body of
// POST /cluster/replicate?session=ID[&reset=1]. The successor is exactly
// where those keys land if the owner dies, so promotion is a local replay.
//
// The cursor protocol keeps a standby copy equal to a prefix of the
// owner's journal:
//
//   - A fresh cursor (new session, or the successor changed) ships with
//     reset=1: the receiver wipes any stale copy before appending.
//   - A checkpoint on the owner prunes old segments; ReadFrom detects
//     the prune and restarts from the snapshot with reset=1, and the
//     standby copy collapses to the same snapshot + tail.
//   - Ship failures leave the cursor untouched; the next cycle re-reads
//     the same records. Appending is idempotent only via reset, so a
//     ship must never be half-applied: the receiver checks every frame
//     (wal.ReadFrames) before it wipes or appends anything, and syncs
//     before answering 200. A bad frame gets 400 and any other body
//     format (an older node's JSON) 415, so a ship between nodes of
//     different versions fails loudly and retries.
//
// Loss window: records appended after the last successful ship. The
// client's ?seq dedup watermark (inside the shipped records) makes
// cross-promotion retries exactly-once.

import (
	"net/http"
	"net/url"
	"slices"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/wal"
)

// frameContentType is the media type of a replicate body.
const frameContentType = "application/octet-stream"

// replicator tails local session journals and ships them to standbys.
type replicator struct {
	n *Node

	// cycleMu serializes cycles: the background loop and explicit
	// POST /cluster/flush must not interleave over the same cursors.
	cycleMu sync.Mutex

	mu      sync.Mutex
	cursors map[string]*replCursor
}

type replCursor struct {
	pos     wal.Position
	peer    string // successor the cursor position is valid against
	started bool   // false until the first successful ship
}

func newReplicator(n *Node) *replicator {
	return &replicator{n: n, cursors: make(map[string]*replCursor)}
}

func (r *replicator) loop(every time.Duration) {
	defer r.n.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-r.n.stop:
			return
		case <-t.C:
			r.cycle()
		}
	}
}

// forget drops a session's cursor (it migrated away or was deleted).
func (r *replicator) forget(id string) {
	r.mu.Lock()
	delete(r.cursors, id)
	r.mu.Unlock()
}

// cycle ships one round of journal tails and returns the total
// replication lag in bytes afterwards.
func (r *replicator) cycle() int64 {
	r.cycleMu.Lock()
	defer r.cycleMu.Unlock()

	n := r.n
	wm := n.srv.WAL()
	if wm == nil {
		return 0
	}
	var total int64
	perPeer := make(map[string]int64)
	live := make(map[string]bool)
	for _, id := range n.srv.SessionIDs() {
		live[id] = true
		ring := n.currentRing()
		owner, ok := ring.Owner(id)
		if !ok || owner.Name != n.self.Name {
			continue // mid-migration; the new owner replicates it
		}
		succ, ok := ring.Successor(id)
		if !ok || succ.Name == n.self.Name {
			continue // no distinct successor to hold a standby
		}
		lag := r.shipSession(wm, id, succ)
		total += lag
		perPeer[succ.Name] += lag
	}
	r.mu.Lock()
	for id := range r.cursors {
		if !live[id] {
			delete(r.cursors, id)
		}
	}
	r.mu.Unlock()
	n.metrics.setPeerLag(perPeer)
	return total
}

// shipSession advances one session's cursor toward its successor and
// returns the remaining lag in bytes.
func (r *replicator) shipSession(wm *wal.Manager, id string, succ Member) int64 {
	n := r.n
	r.mu.Lock()
	cur := r.cursors[id]
	if cur == nil {
		cur = &replCursor{}
		r.cursors[id] = cur
	}
	pos, peer, started := cur.pos, cur.peer, cur.started
	r.mu.Unlock()

	reset := !started || peer != succ.Name
	if reset {
		pos = wal.Position{}
	}
	var body []byte
	var recs int
	next, wasReset, err := wm.ReadFrom(id, pos, func(rec wal.Record) error {
		body = wal.AppendFrame(body, rec.Kind, rec.Payload)
		recs++
		return nil
	})
	if err != nil {
		n.metrics.replicationErrors.Add(1)
		return r.lag(wm, id, pos)
	}
	reset = reset || wasReset
	if recs == 0 && !reset {
		return r.lag(wm, id, next)
	}
	q := url.Values{"session": {id}}
	if reset {
		q.Set("reset", "1")
	}
	if _, err := n.call(http.MethodPost, succ.URL, "/cluster/replicate?"+q.Encode(), frameContentType, body, nil); err != nil {
		n.metrics.replicationErrors.Add(1)
		return r.lag(wm, id, pos)
	}
	r.mu.Lock()
	cur.pos, cur.peer, cur.started = next, succ.Name, true
	r.mu.Unlock()
	n.metrics.recordsReplicated.Add(uint64(recs))
	return r.lag(wm, id, next)
}

func (r *replicator) lag(wm *wal.Manager, id string, pos wal.Position) int64 {
	d, err := wm.Distance(id, pos)
	if err != nil {
		return 0
	}
	return d
}

// ─── standby store ────────────────────────────────────────────────────

// standbyStore holds warm copies of peer sessions in a wal.Manager of
// its own (never the server's — the server would recover these as live
// sessions). Open journal handles are cached across ships and closed
// before any read or removal so promotion sees fully flushed files.
type standbyStore struct {
	mgr  *wal.Manager
	mu   sync.Mutex
	open map[string]*wal.Journal
}

func newStandbyStore(mgr *wal.Manager) *standbyStore {
	return &standbyStore{mgr: mgr, open: make(map[string]*wal.Journal)}
}

// append applies one replication ship: optionally wipe, then append
// records (checkpoints go through AppendCheckpoint so standby disk use
// tracks the owner's) and sync before acknowledging.
func (s *standbyStore) append(id string, reset bool, recs []wal.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if reset {
		if err := s.dropLocked(id); err != nil {
			return err
		}
	}
	j, err := s.journalLocked(id)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if rec.Kind == server.RecordSnapshot {
			err = j.AppendCheckpoint(rec.Kind, rec.Payload)
		} else {
			err = j.Append(rec.Kind, rec.Payload)
		}
		if err != nil {
			return err
		}
	}
	return j.Sync()
}

// take closes the cached handle and reads the full standby journal for
// promotion.
func (s *standbyStore) take(id string) ([]wal.Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeLocked(id)
	var recs []wal.Record
	j, err := s.mgr.OpenJournal(id, func(rec wal.Record) error {
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	j.Abandon()
	return recs, nil
}

// drop closes and removes a standby copy.
func (s *standbyStore) drop(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropLocked(id)
}

// has reports whether a standby copy exists for the session.
func (s *standbyStore) has(id string) bool {
	s.mu.Lock()
	if _, ok := s.open[id]; ok {
		s.mu.Unlock()
		return true
	}
	s.mu.Unlock()
	ids, err := s.mgr.List()
	return err == nil && slices.Contains(ids, id)
}

// list names every session with a standby copy.
func (s *standbyStore) list() ([]string, error) {
	return s.mgr.List()
}

// closeAll releases every cached journal handle.
func (s *standbyStore) closeAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id := range s.open {
		s.closeLocked(id)
	}
}

func (s *standbyStore) journalLocked(id string) (*wal.Journal, error) {
	if j, ok := s.open[id]; ok {
		return j, nil
	}
	j, err := s.mgr.OpenJournal(id, func(wal.Record) error { return nil })
	if err != nil {
		return nil, err
	}
	s.open[id] = j
	return j, nil
}

func (s *standbyStore) closeLocked(id string) {
	if j, ok := s.open[id]; ok {
		_ = j.Close()
		delete(s.open, id)
	}
}

func (s *standbyStore) dropLocked(id string) error {
	s.closeLocked(id)
	return s.mgr.Remove(id)
}
