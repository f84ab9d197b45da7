// Package cluster turns a fleet of cescd daemons into one logical
// monitor service. Three mechanisms compose:
//
//   - A consistent-hash ring (ring.go) assigns every session ID an
//     owner. Each node wraps its server.Server with a routing layer:
//     requests for sessions it holds are served locally, everything
//     else is transparently proxied to the owner, so a client needs
//     only one node's URL.
//
//   - Ring changes trigger live session migration. The losing owner
//     freezes the session (ingest answers 409 + Retry-After), exports
//     one self-contained snapshot record — the WAL checkpoint encoding
//     — and ships it with the ring it is acting under. The receiver
//     adopts newer rings, rejects stale epochs, and rebuilds the
//     session through the recovery replay path, so a moved session is
//     byte-identical to one that never moved. The ?seq dedup watermark
//     travels inside the snapshot, keeping ingest exactly-once across
//     the move.
//
//   - Each owner asynchronously streams its sessions' WAL records to
//     the ring successor's standby store. When a node dies (failure
//     detector or explicit POST /cluster/leave), keys it owned land
//     exactly on their old successor — which holds the warm copy — and
//     promotion replays the standby journal into a live session. At
//     most the unacknowledged replication tail is lost, and the ?seq
//     watermark makes client retries across the promotion safe.
//
// Membership is static-peer with optional pull-based refresh: every
// node republishes its ring at GET /cluster/ring, polls peers on a
// timer, adopts strictly newer epochs (fingerprint breaks equal-epoch
// ties), and counts consecutive probe failures toward declaring a peer
// dead. There is no consensus layer — the ring is a CRDT-ish
// last-writer-wins table, which is the right weight for a monitor
// fleet where the WAL, not the ring, is the source of truth.
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/wal"
)

// Routing and load-gossip headers.
const (
	// HeaderForwarded marks a request already proxied once; a second
	// forward would mean the ring views disagree, so the node answers
	// 409 instead of looping.
	HeaderForwarded = "X-Cesc-Forwarded"
	// HeaderLoad carries a node's admission-governor state as
	// "<level> <score>" on ring gossip responses. Peers cache it so
	// session creation can be routed away from overloaded nodes before
	// the local 429 is ever sent.
	HeaderLoad = "X-Cesc-Load"
)

// peerLoadTTL bounds how long a gossiped load sample steers routing; a
// stale sample (peer unreachable, refresh stopped) stops influencing
// create placement rather than pinning traffic on outdated data.
const peerLoadTTL = 30 * time.Second

// peerLoad is one cached load sample gossiped by a peer.
type peerLoad struct {
	level int
	score float64
	at    time.Time
}

// Config assembles a cluster node around an embedded server config.
type Config struct {
	// Name uniquely identifies this node in the ring.
	Name string
	// AdvertiseURL is the base URL peers use to reach this node, for
	// proxied requests, migrations and replication (e.g.
	// "http://10.0.0.7:8080").
	AdvertiseURL string
	// Peers is the static membership (self is added automatically).
	// All nodes started with the same peer list converge immediately.
	Peers []Member
	// JoinURLs, when set, joins an existing cluster through any one of
	// the listed nodes instead of relying on a static peer list.
	JoinURLs []string
	// VNodes is the virtual-node count per member (default
	// DefaultVNodes).
	VNodes int
	// RefreshEvery is the ring refresh + failure probe period; 0
	// disables the background loop (tests drive refresh explicitly).
	RefreshEvery time.Duration
	// FailAfter is the number of consecutive failed probes before a
	// peer is declared dead and removed from the ring (default 3).
	FailAfter int
	// ReplicateEvery is the standby shipping period; 0 disables the
	// background loop (replication can still be driven via
	// POST /cluster/flush).
	ReplicateEvery time.Duration
	// StandbyDir, when set, stores warm standby copies of peer
	// sessions this node is successor for. It must not live inside the
	// server's WALDir (the server would mistake standby journals for
	// its own).
	StandbyDir string
	// HTTPClient is used for peer-to-peer calls (default: 5s timeout).
	// Proxied client requests go through its Transport without its
	// Timeout.
	HTTPClient *http.Client
	// Server is the wrapped daemon's configuration. Its IDFilter is
	// overwritten: the node mints only session IDs it owns.
	Server server.Config
}

// Node is one member of a cescd cluster: a server.Server wrapped in
// ring routing, migration, and standby replication.
type Node struct {
	cfg     Config
	self    Member
	srv     *server.Server
	mux     *http.ServeMux
	hc      *http.Client
	proxyHC *http.Client // hc without its total timeout
	metrics *nodeMetrics

	mu         sync.RWMutex // guards ring, draining, probeFails, peerLoads
	ring       *Ring
	draining   bool
	probeFails map[string]int
	peerLoads  map[string]peerLoad

	standby *standbyStore // nil when StandbyDir is empty
	repl    *replicator   // nil when the server has no WAL

	// migrateMu serializes rebalance scans (migration out, standby
	// promotion, standby GC) so two ring changes can't race each other
	// over the same session.
	migrateMu sync.Mutex

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// New builds the node, starts the wrapped server (recovering its WAL),
// joins or forms the ring, and starts the refresh/replication loops.
func New(cfg Config) (*Node, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("cluster: node name is required")
	}
	if cfg.AdvertiseURL == "" {
		return nil, fmt.Errorf("cluster: advertise URL is required")
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 3
	}
	if cfg.StandbyDir != "" && cfg.Server.WALDir != "" &&
		strings.HasPrefix(cfg.StandbyDir+"/", cfg.Server.WALDir+"/") {
		return nil, fmt.Errorf("cluster: standby dir %s must not live inside WAL dir %s", cfg.StandbyDir, cfg.Server.WALDir)
	}
	n := &Node{
		cfg:        cfg,
		self:       Member{Name: cfg.Name, URL: strings.TrimRight(cfg.AdvertiseURL, "/")},
		mux:        http.NewServeMux(),
		hc:         cfg.HTTPClient,
		metrics:    newNodeMetrics(),
		probeFails: make(map[string]int),
		peerLoads:  make(map[string]peerLoad),
		stop:       make(chan struct{}),
	}
	if n.hc == nil {
		n.hc = &http.Client{Timeout: 5 * time.Second}
	}
	// A proxied ticks body may trickle in for as long as the owner's body
	// deadline allows, and a ?wait=1 batch waits for its verdicts, so the
	// hop has no total timeout: the inbound request's context bounds it,
	// and the shared Transport's dial timeout bounds a dead peer.
	n.proxyHC = &http.Client{Transport: n.hc.Transport, CheckRedirect: n.hc.CheckRedirect, Jar: n.hc.Jar}
	members := append([]Member{n.self}, cfg.Peers...)
	n.ring = NewRing(1, cfg.VNodes, members)

	srvCfg := cfg.Server
	srvCfg.IDFilter = n.ownsID
	// Spans (and flight-recorder dumps) carry the ring member name, so a
	// cluster-merged timeline can attribute every span to its node.
	srvCfg.NodeName = cfg.Name
	srv, err := server.New(srvCfg)
	if err != nil {
		return nil, err
	}
	n.srv = srv

	if cfg.StandbyDir != "" {
		mgr, err := wal.OpenManager(wal.Options{Dir: cfg.StandbyDir})
		if err != nil {
			srv.Close()
			return nil, err
		}
		n.standby = newStandbyStore(mgr)
	}
	if srv.WAL() != nil {
		n.repl = newReplicator(n)
	}
	n.routes()

	if len(cfg.JoinURLs) > 0 {
		if err := n.join(); err != nil {
			n.closeStores()
			srv.Close()
			return nil, err
		}
	}
	// Settle ownership for whatever the ring and the recovered WAL say:
	// promote leftover standby copies we now own, migrate away recovered
	// sessions we no longer own.
	n.rebalance()

	if cfg.RefreshEvery > 0 {
		n.wg.Add(1)
		go n.refreshLoop()
	}
	if cfg.ReplicateEvery > 0 && n.repl != nil {
		n.wg.Add(1)
		go n.repl.loop(cfg.ReplicateEvery)
	}
	return n, nil
}

// Handler returns the node's HTTP surface: the cluster endpoints plus
// the ring-routed server API.
func (n *Node) Handler() http.Handler { return n.mux }

// Server exposes the wrapped daemon (tests compare verdicts directly).
func (n *Node) Server() *server.Server { return n.srv }

// Ring returns the node's current view of the ring.
func (n *Node) Ring() *Ring {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.ring
}

// Close stops the loops and shuts the wrapped server down cleanly.
func (n *Node) Close() {
	n.closeOnce.Do(func() {
		close(n.stop)
		n.wg.Wait()
		n.closeStores()
		n.srv.Close()
	})
}

// Kill simulates node death for failover tests: loops stop and the
// wrapped server crashes (queued work discarded, no final sync) — the
// rest of the cluster sees probe failures, nothing more.
func (n *Node) Kill() {
	n.closeOnce.Do(func() {
		close(n.stop)
		n.wg.Wait()
		n.closeStores()
		n.srv.Crash()
	})
}

func (n *Node) closeStores() {
	if n.standby != nil {
		n.standby.closeAll()
	}
}

// ─── ring state ───────────────────────────────────────────────────────

func (n *Node) currentRing() *Ring {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.ring
}

func (n *Node) isDraining() bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.draining
}

// ownsID is the server's IDFilter: freshly minted session IDs must land
// on this node under the current ring, so created sessions never start
// life needing a proxy hop.
func (n *Node) ownsID(id string) bool {
	n.mu.RLock()
	ring, draining := n.ring, n.draining
	n.mu.RUnlock()
	if draining {
		return false
	}
	if ring == nil || ring.Len() <= 1 {
		return true
	}
	owner, ok := ring.Owner(id)
	return ok && owner.Name == n.self.Name
}

// adoptInfo installs a peer's ring if it is strictly newer — higher
// epoch, or same epoch with a winning fingerprint (deterministic
// tie-break so concurrent equal-epoch edits converge fleet-wide).
func (n *Node) adoptInfo(info RingInfo) bool {
	if len(info.Members) == 0 {
		return false
	}
	incoming := NewRingFromInfo(info)
	n.mu.Lock()
	cur := n.ring
	adopt := incoming.Epoch() > cur.Epoch() ||
		(incoming.Epoch() == cur.Epoch() && incoming.Fingerprint() > cur.Fingerprint())
	if adopt {
		n.ring = incoming
	}
	n.mu.Unlock()
	if adopt {
		n.metrics.ringAdoptions.Add(1)
		n.onRingChange()
	}
	return adopt
}

// addMember grows the ring (idempotent) and gossips the result.
func (n *Node) addMember(m Member) *Ring {
	n.mu.Lock()
	cur := n.ring
	if existing, ok := cur.Lookup(m.Name); ok && existing.URL == m.URL {
		n.mu.Unlock()
		return cur
	}
	next := cur.WithMember(m)
	n.ring = next
	n.mu.Unlock()
	n.onRingChange()
	n.broadcast(next)
	return next
}

// removeMember shrinks the ring (idempotent) and gossips the result.
func (n *Node) removeMember(name string) *Ring {
	n.mu.Lock()
	cur := n.ring
	if _, ok := cur.Lookup(name); !ok {
		n.mu.Unlock()
		return cur
	}
	next := cur.WithoutMember(name)
	n.ring = next
	delete(n.probeFails, name)
	n.mu.Unlock()
	n.onRingChange()
	n.broadcast(next)
	return next
}

// onRingChange kicks an asynchronous rebalance scan. Handlers must not
// block on migrations, and the scan itself re-reads the ring per
// session, so back-to-back changes coalesce safely.
func (n *Node) onRingChange() {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.rebalance()
	}()
}

// rebalance settles local state against the current ring: promote
// standby copies this node now owns, migrate away sessions it no longer
// owns, drop standby copies it is no longer successor for.
func (n *Node) rebalance() {
	n.migrateMu.Lock()
	defer n.migrateMu.Unlock()
	n.promoteLocked()
	n.migrateLocked()
	n.gcStandbyLocked()
}

// promoteLocked replays standby journals for sessions the ring now
// assigns to this node into live sessions.
func (n *Node) promoteLocked() {
	if n.standby == nil {
		return
	}
	ids, err := n.standby.list()
	if err != nil {
		return
	}
	for _, id := range ids {
		ring := n.currentRing()
		owner, ok := ring.Owner(id)
		if !ok || owner.Name != n.self.Name {
			continue
		}
		if n.srv.HasSession(id) {
			// Already live here (migrated in while we also held a
			// standby copy from an older topology) — the copy is stale.
			_ = n.standby.drop(id)
			continue
		}
		recs, err := n.standby.take(id)
		if err != nil || len(recs) == 0 {
			continue
		}
		if err := n.srv.AdoptSession(id, recs); err != nil {
			n.metrics.replicationErrors.Add(1)
			continue
		}
		_ = n.standby.drop(id)
		n.metrics.promotions.Add(1)
	}
}

// migrateLocked ships every local session whose ring owner is another
// node.
func (n *Node) migrateLocked() {
	for _, id := range n.srv.SessionIDs() {
		ring := n.currentRing()
		owner, ok := ring.Owner(id)
		if !ok || owner.Name == n.self.Name {
			continue
		}
		n.migrateSession(id, owner, ring)
	}
}

// migrateSession hands one session to its owner: freeze + export, ship
// snapshot fenced by the ring we acted under, commit (or thaw on
// failure). Reports whether the handoff committed.
func (n *Node) migrateSession(id string, owner Member, ring *Ring) bool {
	payload, err := n.srv.ExportSession(id)
	if err != nil {
		// Already gone or already mid-handoff — nothing to do.
		return false
	}
	req := migrateRequest{
		Ring:     ring.Info(),
		Session:  id,
		Snapshot: payload,
	}
	if err := n.postJSON(owner.URL, "/cluster/migrate", req, nil); err != nil {
		n.srv.AbortMigration(id)
		n.metrics.migrationsFailed.Add(1)
		return false
	}
	n.srv.CommitMigration(id)
	if n.repl != nil {
		n.repl.forget(id)
	}
	n.metrics.migrationsOut.Add(1)
	return true
}

// gcStandbyLocked drops standby copies for sessions this node is no
// longer the successor of; the owner re-ships to the new successor with
// a reset cursor.
func (n *Node) gcStandbyLocked() {
	if n.standby == nil {
		return
	}
	ids, err := n.standby.list()
	if err != nil {
		return
	}
	for _, id := range ids {
		ring := n.currentRing()
		if owner, ok := ring.Owner(id); ok && owner.Name == n.self.Name {
			continue // promotion candidate, not garbage
		}
		if succ, ok := ring.Successor(id); ok && succ.Name == n.self.Name {
			continue
		}
		_ = n.standby.drop(id)
	}
}

// Drain removes this node from its own ring, migrates every session
// away, and then gossips the shrunk ring — in that order, so a receiver
// that learns the new topology early simply sees migrations it already
// expects. Returns the number of sessions handed off.
func (n *Node) Drain() int {
	n.mu.Lock()
	if n.draining {
		n.mu.Unlock()
		return 0
	}
	n.draining = true
	next := n.ring.WithoutMember(n.self.Name)
	n.ring = next
	n.mu.Unlock()

	n.migrateMu.Lock()
	count := 0
	for _, id := range n.srv.SessionIDs() {
		ring := n.currentRing()
		owner, ok := ring.Owner(id)
		if !ok || owner.Name == n.self.Name {
			continue
		}
		if n.migrateSession(id, owner, ring) {
			count++
		}
	}
	n.migrateMu.Unlock()
	n.broadcast(n.currentRing())
	return count
}

// Status assembles the node's cluster-plane view.
func (n *Node) Status() StatusJSON {
	n.mu.RLock()
	ring, draining := n.ring, n.draining
	n.mu.RUnlock()
	lvl, score := n.srv.GovernorState()
	n.mu.RLock()
	peerLoads := make(map[string]PeerLoadJSON, len(n.peerLoads))
	for name, pl := range n.peerLoads {
		peerLoads[name] = PeerLoadJSON{Level: pl.level, Score: pl.score}
	}
	n.mu.RUnlock()
	st := StatusJSON{
		Self:     n.self.Name,
		Epoch:    ring.Epoch(),
		Members:  ring.Members(),
		Draining: draining,

		SessionsLocal: len(n.srv.SessionIDs()),

		GovernorLevel: lvl,
		GovernorScore: score,
		PeerLoads:     peerLoads,
		LoadRouted:    n.metrics.loadRouted.Load(),

		MigrationsOut:    n.metrics.migrationsOut.Load(),
		MigrationsIn:     n.metrics.migrationsIn.Load(),
		MigrationsFailed: n.metrics.migrationsFailed.Load(),
		Promotions:       n.metrics.promotions.Load(),
		Proxied:          n.metrics.proxied.Load(),

		RingAdoptions:     n.metrics.ringAdoptions.Load(),
		PeersDeclaredDead: n.metrics.peersDeclaredDead.Load(),

		RecordsReplicated: n.metrics.recordsReplicated.Load(),
		ReplicationErrors: n.metrics.replicationErrors.Load(),
		ReplicationLag:    n.metrics.peerLagSnapshot(),
	}
	if n.standby != nil {
		if ids, err := n.standby.list(); err == nil {
			st.StandbySessions = ids
		}
	}
	return st
}

// ─── membership: join, refresh, failure detection ─────────────────────

// join introduces this node to an existing cluster through any of the
// configured join URLs.
func (n *Node) join() error {
	var lastErr error
	for _, u := range n.cfg.JoinURLs {
		var info RingInfo
		if err := n.postJSON(u, "/cluster/join", n.self, &info); err != nil {
			lastErr = err
			continue
		}
		n.adoptInfo(info)
		return nil
	}
	return fmt.Errorf("cluster: joining via %v: %w", n.cfg.JoinURLs, lastErr)
}

func (n *Node) refreshLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.RefreshEvery)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.refreshOnce()
		}
	}
}

// refreshOnce probes every peer for its ring, adopting newer views and
// counting consecutive failures toward declaring the peer dead. The
// probe response doubles as load gossip: each peer reports its
// admission-governor state in X-Cesc-Load, cached here so session
// creation can be steered toward cooler nodes.
func (n *Node) refreshOnce() {
	for _, m := range n.currentRing().Members() {
		if m.Name == n.self.Name {
			continue
		}
		var info RingInfo
		hdr, err := n.getJSONHdr(m.URL, "/cluster/ring", &info)
		if err != nil {
			n.mu.Lock()
			n.probeFails[m.Name]++
			fails := n.probeFails[m.Name]
			delete(n.peerLoads, m.Name)
			n.mu.Unlock()
			if fails >= n.cfg.FailAfter {
				n.declareDead(m.Name)
			}
			continue
		}
		n.mu.Lock()
		delete(n.probeFails, m.Name)
		if lvl, score, ok := parseLoad(hdr.Get(HeaderLoad)); ok {
			n.peerLoads[m.Name] = peerLoad{level: lvl, score: score, at: time.Now()}
		}
		n.mu.Unlock()
		n.adoptInfo(info)
	}
}

// parseLoad decodes an X-Cesc-Load header ("<level> <score>").
func parseLoad(v string) (level int, score float64, ok bool) {
	lvlStr, scoreStr, found := strings.Cut(v, " ")
	if !found {
		return 0, 0, false
	}
	lvl, err1 := strconv.Atoi(lvlStr)
	sc, err2 := strconv.ParseFloat(scoreStr, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	return lvl, sc, true
}

// coolerPeer picks the least-loaded peer to take a session create. It
// reports false unless this node's own governor is throttling new
// sessions AND some peer gossiped a strictly lower level recently — in
// every other case the create is served (and possibly shed) locally.
func (n *Node) coolerPeer() (Member, bool) {
	lvl, _ := n.srv.GovernorState()
	if lvl < server.GovLevelThrottleSessions {
		return Member{}, false
	}
	ring := n.currentRing()
	n.mu.RLock()
	defer n.mu.RUnlock()
	var best Member
	bestLvl, bestScore, found := lvl, 0.0, false
	for _, m := range ring.Members() {
		if m.Name == n.self.Name {
			continue
		}
		pl, ok := n.peerLoads[m.Name]
		if !ok || time.Since(pl.at) > peerLoadTTL || pl.level >= lvl {
			continue
		}
		if !found || pl.level < bestLvl || (pl.level == bestLvl && pl.score < bestScore) {
			best, bestLvl, bestScore, found = m, pl.level, pl.score, true
		}
	}
	return best, found
}

// declareDead removes an unresponsive peer from the ring; its sessions
// re-home to their successors, where promotion finds the standby
// copies.
func (n *Node) declareDead(name string) {
	n.mu.RLock()
	_, present := n.ring.Lookup(name)
	n.mu.RUnlock()
	if !present || name == n.self.Name {
		return
	}
	n.metrics.peersDeclaredDead.Add(1)
	n.removeMember(name)
}

// broadcast pushes a ring to every other member, best effort.
func (n *Node) broadcast(r *Ring) {
	info := r.Info()
	for _, m := range r.Members() {
		if m.Name == n.self.Name {
			continue
		}
		m := m
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			_ = n.postJSON(m.URL, "/cluster/adopt", info, nil)
		}()
	}
}

// ─── HTTP surface ─────────────────────────────────────────────────────

type migrateRequest struct {
	Ring     RingInfo        `json:"ring"`
	Session  string          `json:"session"`
	Snapshot json.RawMessage `json:"snapshot"`
}

func (n *Node) routes() {
	n.mux.HandleFunc("GET /cluster/ring", func(w http.ResponseWriter, _ *http.Request) {
		lvl, score := n.srv.GovernorState()
		w.Header().Set(HeaderLoad, fmt.Sprintf("%d %.3f", lvl, score))
		server.WriteJSON(w, http.StatusOK, n.currentRing().Info())
	})
	n.mux.HandleFunc("GET /cluster/status", func(w http.ResponseWriter, _ *http.Request) {
		server.WriteJSON(w, http.StatusOK, n.Status())
	})
	n.mux.HandleFunc("POST /cluster/join", n.handleJoin)
	n.mux.HandleFunc("POST /cluster/leave", n.handleLeave)
	n.mux.HandleFunc("POST /cluster/adopt", n.handleAdopt)
	n.mux.HandleFunc("POST /cluster/migrate", n.handleMigrate)
	n.mux.HandleFunc("POST /cluster/replicate", n.handleReplicate)
	n.mux.HandleFunc("POST /cluster/drain", func(w http.ResponseWriter, _ *http.Request) {
		server.WriteJSON(w, http.StatusOK, map[string]int{"migrated": n.Drain()})
	})
	n.mux.HandleFunc("POST /cluster/flush", func(w http.ResponseWriter, _ *http.Request) {
		var lag int64
		if n.repl != nil {
			lag = n.repl.cycle()
		}
		server.WriteJSON(w, http.StatusOK, map[string]int64{"lag_bytes": lag})
	})
	n.mux.HandleFunc("GET /cluster/trace", n.handleClusterTrace)
	n.mux.HandleFunc("GET /cluster/metrics", n.handleClusterMetrics)
	n.mux.HandleFunc("GET /readyz", n.handleReadyz)
	n.mux.HandleFunc("/", n.route)
}

func (n *Node) handleJoin(w http.ResponseWriter, r *http.Request) {
	server.ArmBodyDeadline(w)
	var m Member
	if err := json.NewDecoder(r.Body).Decode(&m); err != nil || m.Name == "" || m.URL == "" {
		server.WriteError(w, http.StatusBadRequest, "join needs {name, url}")
		return
	}
	ring := n.addMember(Member{Name: m.Name, URL: strings.TrimRight(m.URL, "/")})
	server.WriteJSON(w, http.StatusOK, ring.Info())
}

func (n *Node) handleLeave(w http.ResponseWriter, r *http.Request) {
	server.ArmBodyDeadline(w)
	var body struct {
		Name string `json:"name"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil || body.Name == "" {
		server.WriteError(w, http.StatusBadRequest, "leave needs {name}")
		return
	}
	ring := n.removeMember(body.Name)
	server.WriteJSON(w, http.StatusOK, ring.Info())
}

func (n *Node) handleAdopt(w http.ResponseWriter, r *http.Request) {
	server.ArmBodyDeadline(w)
	var info RingInfo
	if err := json.NewDecoder(r.Body).Decode(&info); err != nil {
		server.WriteError(w, http.StatusBadRequest, "adopt needs a ring")
		return
	}
	n.adoptInfo(info)
	server.WriteJSON(w, http.StatusOK, n.currentRing().Info())
}

// handleMigrate is the gaining side of a handoff: adopt the sender's
// ring if newer, then fence — the handoff only lands if this node owns
// the session under a ring at least as new as the sender's.
func (n *Node) handleMigrate(w http.ResponseWriter, r *http.Request) {
	server.ArmBodyDeadline(w)
	var req migrateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Session == "" {
		server.WriteError(w, http.StatusBadRequest, "migrate needs {ring, session, snapshot}")
		return
	}
	n.adoptInfo(req.Ring)
	ring := n.currentRing()
	if req.Ring.Epoch < ring.Epoch() {
		server.WriteError(w, http.StatusConflict, "stale ring epoch %d (current %d)", req.Ring.Epoch, ring.Epoch())
		return
	}
	if owner, ok := ring.Owner(req.Session); !ok || owner.Name != n.self.Name {
		server.WriteError(w, http.StatusConflict, "node %s does not own session %s under epoch %d", n.self.Name, req.Session, ring.Epoch())
		return
	}
	rec := wal.Record{Kind: server.RecordSnapshot, Payload: req.Snapshot}
	if err := n.srv.AdoptSession(req.Session, []wal.Record{rec}); err != nil {
		server.WriteError(w, http.StatusInternalServerError, "adopting session %s: %v", req.Session, err)
		return
	}
	n.metrics.migrationsIn.Add(1)
	server.WriteJSON(w, http.StatusOK, map[string]string{"adopted": req.Session})
}

// handleReplicate applies one standby ship of journal frames. Every
// frame is checked before the copy is wiped (reset=1) or appended to,
// so a refused ship leaves the copy as it was.
func (n *Node) handleReplicate(w http.ResponseWriter, r *http.Request) {
	server.ArmBodyDeadline(w)
	if n.standby == nil {
		server.WriteError(w, http.StatusNotImplemented, "node %s has no standby store", n.self.Name)
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != frameContentType {
		server.WriteError(w, http.StatusUnsupportedMediaType, "replicate takes %s journal frames, not %q", frameContentType, ct)
		return
	}
	q := r.URL.Query()
	id := q.Get("session")
	if id == "" {
		server.WriteError(w, http.StatusBadRequest, "replicate needs ?session")
		return
	}
	body, err := server.ReadBody(r.Body, r.ContentLength)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	var recs []wal.Record
	if err := wal.ReadFrames(body, func(rec wal.Record) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		server.WriteError(w, http.StatusBadRequest, "replicate body: %v", err)
		return
	}
	if err := n.standby.append(id, q.Get("reset") == "1", recs); err != nil {
		server.WriteError(w, http.StatusInternalServerError, "standby append for %s: %v", id, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]int{"appended": len(recs)})
}

// route is the catch-all: session traffic is ring-routed, /metrics is
// augmented with the cluster families, everything else falls through to
// the wrapped server.
func (n *Node) route(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	if rest, ok := strings.CutPrefix(path, "/sessions/"); ok {
		if id, _, _ := strings.Cut(rest, "/"); id != "" {
			n.routeSession(w, r, id)
			return
		}
	}
	if path == "/sessions" && r.Method == http.MethodPost {
		if n.isDraining() {
			n.proxyCreate(w, r)
			return
		}
		// Overload routing: when the local governor is throttling new
		// sessions and gossip shows a cooler peer, place the session
		// there instead of answering 429. A request a peer already
		// forwarded is served locally — two hot nodes must not ping-pong
		// a create between them.
		if r.Header.Get(HeaderForwarded) == "" {
			if m, ok := n.coolerPeer(); ok {
				n.metrics.loadRouted.Add(1)
				n.proxy(w, r, m)
				return
			}
		}
	}
	if path == "/metrics" && !strings.Contains(r.Header.Get("Accept"), "application/json") {
		n.serveMetrics(w, r)
		return
	}
	n.srv.Handler().ServeHTTP(w, r)
}

// routeSession serves locally held sessions first — the holder answers
// regardless of what any ring says, which keeps requests correct while
// a topology change is mid-flight — and proxies the rest to their ring
// owner.
func (n *Node) routeSession(w http.ResponseWriter, r *http.Request, id string) {
	if n.srv.HasSession(id) {
		n.srv.Handler().ServeHTTP(w, r)
		return
	}
	ring := n.currentRing()
	owner, ok := ring.Owner(id)
	if !ok || owner.Name == n.self.Name {
		if ring.Len() <= 1 {
			// Standalone: let the server produce its natural 404.
			n.srv.Handler().ServeHTTP(w, r)
			return
		}
		// This node owns the ID but doesn't hold the session: a handoff
		// or promotion is in flight (or the ID never existed). Kick the
		// rebalance scan in case a standby copy is waiting, and have
		// the client retry.
		if n.standby != nil && n.standby.has(id) {
			n.onRingChange()
		}
		w.Header().Set("Retry-After", "1")
		server.WriteError(w, http.StatusConflict, "session %s is not at its owner yet (handoff in flight); retry", id)
		return
	}
	if r.Header.Get(HeaderForwarded) != "" {
		// A peer proxied to us believing we own the session; our ring
		// disagrees. Refusing beats proxy ping-pong — the views
		// converge within a refresh period.
		w.Header().Set("Retry-After", "1")
		server.WriteError(w, http.StatusConflict, "ring views disagree about the owner; retry")
		return
	}
	n.proxy(w, r, owner)
}

// proxyCreate forwards a session create while draining to the first
// surviving member.
func (n *Node) proxyCreate(w http.ResponseWriter, r *http.Request) {
	for _, m := range n.currentRing().Members() {
		if m.Name != n.self.Name {
			n.proxy(w, r, m)
			return
		}
	}
	server.WriteError(w, http.StatusServiceUnavailable, "node is draining and no peer remains")
}

// proxy relays the request to a peer and streams the answer back. A
// traced request gets a proxy span on this node and an X-Cesc-Parent
// token on the outbound hop, so the owner's spans order causally after
// (and point back at) this hop in a merged timeline.
func (n *Node) proxy(w http.ResponseWriter, r *http.Request, m Member) {
	out, err := http.NewRequestWithContext(r.Context(), r.Method, m.URL+r.URL.RequestURI(), r.Body)
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, "building proxy request: %v", err)
		return
	}
	out.Header = r.Header.Clone()
	out.Header.Set(HeaderForwarded, n.self.Name)
	out.ContentLength = r.ContentLength
	trace := r.Header.Get("X-Cesc-Trace")
	var hlc uint64
	if trace != "" {
		var token string
		hlc, token = n.traceParentToken()
		out.Header.Set("X-Cesc-Parent", token)
	}
	start := time.Now()
	resp, err := n.proxyHC.Do(out)
	if trace != "" {
		sp := obs.Span{
			Trace: trace, Stage: obs.StageProxy, Kind: "proxy",
			Parent: r.Header.Get("X-Cesc-Parent"), HLC: hlc,
			Start: start, Dur: time.Since(start), Note: "-> " + m.Name,
		}
		if err != nil {
			sp.Note = "-> " + m.Name + ": " + err.Error()
		}
		n.srv.Tracer().Record(-1, sp)
	}
	if err != nil {
		w.Header().Set("Retry-After", "1")
		server.WriteError(w, http.StatusBadGateway, "proxy to owner %s failed: %v", m.Name, err)
		return
	}
	defer resp.Body.Close()
	n.metrics.proxied.Add(1)
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// serveMetrics appends the cluster families to the wrapped server's
// Prometheus exposition.
func (n *Node) serveMetrics(w http.ResponseWriter, r *http.Request) {
	rec := &respBuffer{hdr: make(http.Header)}
	n.srv.Handler().ServeHTTP(rec, r)
	if rec.code != 0 && rec.code != http.StatusOK {
		for k, vs := range rec.hdr {
			w.Header()[k] = vs
		}
		w.WriteHeader(rec.code)
		_, _ = w.Write(rec.buf.Bytes())
		return
	}
	for k, vs := range rec.hdr {
		w.Header()[k] = vs
	}
	body := append(rec.buf.Bytes(), n.promText()...)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

// respBuffer captures a handler's response for augmentation.
type respBuffer struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func (b *respBuffer) Header() http.Header         { return b.hdr }
func (b *respBuffer) WriteHeader(c int)           { b.code = c }
func (b *respBuffer) Write(p []byte) (int, error) { return b.buf.Write(p) }

// ─── peer HTTP helpers ────────────────────────────────────────────────

// postJSON POSTs body as JSON to a peer and decodes a 200's JSON
// answer into out (when non-nil).
func (n *Node) postJSON(baseURL, path string, body, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	_, err = n.call(http.MethodPost, baseURL, path, "application/json", payload, out)
	return err
}

// getJSONHdr performs a GET and returns the response headers along with
// the decoded body — ring probes read the X-Cesc-Load gossip from them.
func (n *Node) getJSONHdr(baseURL, path string, out any) (http.Header, error) {
	return n.call(http.MethodGet, baseURL, path, "", nil, out)
}

// call sends one request to a peer, with body as contentType when there
// is one, decodes a 200's JSON answer into out (when non-nil), and
// returns the answer's headers.
func (n *Node) call(method, baseURL, path, contentType string, body []byte, out any) (http.Header, error) {
	req, err := http.NewRequest(method, strings.TrimRight(baseURL, "/")+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := n.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return resp.Header, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.Header, fmt.Errorf("cluster: %s %s: %s: %s", method, req.URL.Path, resp.Status, strings.TrimSpace(string(raw)))
	}
	if out != nil {
		return resp.Header, json.Unmarshal(raw, out)
	}
	return resp.Header, nil
}
