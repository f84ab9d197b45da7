package cluster

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// nodeMetrics counts the cluster plane's own activity; the wrapped
// server's counters keep covering the monitor pipeline.
type nodeMetrics struct {
	migrationsOut    atomic.Uint64 // handoffs shipped and committed
	migrationsIn     atomic.Uint64 // handoffs received and adopted
	migrationsFailed atomic.Uint64 // exports aborted after a failed ship
	promotions       atomic.Uint64 // standby copies promoted to live sessions

	proxied atomic.Uint64 // requests transparently proxied to the owner

	ringAdoptions     atomic.Uint64 // newer rings adopted from peers
	peersDeclaredDead atomic.Uint64 // members removed by the failure detector
	loadRouted        atomic.Uint64 // creates proxied to a cooler peer under overload

	recordsReplicated atomic.Uint64 // WAL records shipped to standbys
	replicationErrors atomic.Uint64 // failed replication reads or ships

	// mu guards the per-peer replication lag gauge, rewritten wholesale
	// by each replication cycle.
	mu      sync.Mutex
	peerLag map[string]int64
}

func newNodeMetrics() *nodeMetrics {
	return &nodeMetrics{peerLag: make(map[string]int64)}
}

// setPeerLag replaces the per-peer replication lag gauge.
func (m *nodeMetrics) setPeerLag(lag map[string]int64) {
	m.mu.Lock()
	m.peerLag = lag
	m.mu.Unlock()
}

func (m *nodeMetrics) peerLagSnapshot() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.peerLag))
	for k, v := range m.peerLag {
		out[k] = v
	}
	return out
}

// StatusJSON is the body of GET /cluster/status: the node's view of the
// ring plus the cluster plane's counters.
type StatusJSON struct {
	Self     string   `json:"self"`
	Epoch    uint64   `json:"epoch"`
	Members  []Member `json:"members"`
	Draining bool     `json:"draining"`

	SessionsLocal   int      `json:"sessions_local"`
	StandbySessions []string `json:"standby_sessions,omitempty"`

	// Overload gossip: this node's own governor state plus the freshest
	// load sample cached for each peer.
	GovernorLevel int                     `json:"governor_level"`
	GovernorScore float64                 `json:"governor_score"`
	PeerLoads     map[string]PeerLoadJSON `json:"peer_loads,omitempty"`
	LoadRouted    uint64                  `json:"load_routed"`

	MigrationsOut    uint64 `json:"migrations_out"`
	MigrationsIn     uint64 `json:"migrations_in"`
	MigrationsFailed uint64 `json:"migrations_failed"`
	Promotions       uint64 `json:"promotions"`

	Proxied uint64 `json:"proxied"`

	RingAdoptions     uint64 `json:"ring_adoptions"`
	PeersDeclaredDead uint64 `json:"peers_declared_dead"`

	RecordsReplicated uint64           `json:"records_replicated"`
	ReplicationErrors uint64           `json:"replication_errors"`
	ReplicationLag    map[string]int64 `json:"replication_lag_bytes,omitempty"`
}

// PeerLoadJSON is one peer's gossiped admission-governor state.
type PeerLoadJSON struct {
	Level int     `json:"level"`
	Score float64 `json:"score"`
}

// promText renders the cluster families appended to the wrapped
// server's Prometheus exposition.
func (n *Node) promText() []byte {
	st := n.Status()
	w := obs.NewPromWriter()
	counter := func(name, help string, v uint64) {
		w.Family(name, "counter", help)
		w.Sample(name, nil, float64(v))
	}
	w.Family("cescd_cluster_ring_epoch", "gauge", "Current consistent-hash ring epoch.")
	w.Sample("cescd_cluster_ring_epoch", nil, float64(st.Epoch))
	w.Family("cescd_cluster_members", "gauge", "Members in the current ring.")
	w.Sample("cescd_cluster_members", nil, float64(len(st.Members)))
	w.Family("cescd_cluster_standby_sessions", "gauge", "Warm standby session copies held for peers.")
	w.Sample("cescd_cluster_standby_sessions", nil, float64(len(st.StandbySessions)))
	w.Family("cescd_cluster_draining", "gauge", "1 while the node is draining out of the ring.")
	w.Sample("cescd_cluster_draining", nil, b2f(st.Draining))
	counter("cescd_cluster_migrations_out_total", "Session handoffs shipped and committed.", st.MigrationsOut)
	counter("cescd_cluster_migrations_in_total", "Session handoffs received and adopted.", st.MigrationsIn)
	counter("cescd_cluster_migrations_failed_total", "Session handoffs aborted after a failed ship.", st.MigrationsFailed)
	counter("cescd_cluster_promotions_total", "Standby copies promoted to live sessions.", st.Promotions)
	counter("cescd_cluster_proxied_total", "Requests transparently proxied to the session owner.", st.Proxied)
	counter("cescd_cluster_ring_adoptions_total", "Newer rings adopted from peers.", st.RingAdoptions)
	counter("cescd_cluster_peers_declared_dead_total", "Members removed by the failure detector.", st.PeersDeclaredDead)
	counter("cescd_cluster_load_routed_total", "Session creates proxied to a cooler peer under overload.", st.LoadRouted)
	w.Family("cescd_cluster_peer_load_level", "gauge", "Gossiped admission-governor level per peer.")
	loadPeers := make([]string, 0, len(st.PeerLoads))
	for p := range st.PeerLoads {
		loadPeers = append(loadPeers, p)
	}
	sort.Strings(loadPeers)
	for _, p := range loadPeers {
		w.Sample("cescd_cluster_peer_load_level", []obs.L{{Name: "peer", Value: p}}, float64(st.PeerLoads[p].Level))
	}
	counter("cescd_cluster_records_replicated_total", "WAL records shipped to standby holders.", st.RecordsReplicated)
	counter("cescd_cluster_replication_errors_total", "Failed replication reads or ships.", st.ReplicationErrors)
	w.Family("cescd_cluster_replication_lag_bytes", "gauge", "Journal bytes not yet shipped to the session's standby, per peer.")
	peers := make([]string, 0, len(st.ReplicationLag))
	for p := range st.ReplicationLag {
		peers = append(peers, p)
	}
	sort.Strings(peers)
	for _, p := range peers {
		w.Sample("cescd_cluster_replication_lag_bytes", []obs.L{{Name: "peer", Value: p}}, float64(st.ReplicationLag[p]))
	}
	return w.Bytes()
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// unused import guard: strconv is used by node.go's header rendering —
// keep the compiler honest if that moves.
var _ = strconv.Itoa
