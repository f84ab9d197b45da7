// Package cluster turns a fleet of cescd daemons into one logical
// monitor service. Sessions are partitioned across nodes by a
// consistent-hash ring over session IDs; every node answers for any
// session (serving it locally or proxying to the owner); ring changes
// trigger live session migration fenced by a monotonic epoch; and each
// session's WAL streams asynchronously to its ring successor, which is
// promoted to owner when a node dies.
//
// The package is stdlib-only, like the rest of the repo: membership is a
// static peer list plus join/leave/drain admin calls, with an optional
// pull-based refresh loop that doubles as the failure detector.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Member is one node of the cluster: a stable name plus the base URL its
// peers (and routing clients) reach it at.
type Member struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// RingInfo is the wire form of the routing table, served from
// GET /cluster/ring and consumed by peers and the client-side router.
// Epoch totally orders ring versions: every membership change increments
// it, and migration handoffs carry it as a fence.
type RingInfo struct {
	Epoch   uint64   `json:"epoch"`
	VNodes  int      `json:"vnodes"`
	Members []Member `json:"members"`
}

// DefaultVNodes is the virtual-node count per member when the caller
// does not choose one. 64 keeps the expected per-member load imbalance
// in the low single-digit percents for small fleets while keeping the
// ring a few KB.
const DefaultVNodes = 64

// ringPoint is one virtual node: a position on the hash circle owned by
// a member.
type ringPoint struct {
	hash   uint64
	member int // index into Ring.members
}

// Ring is an immutable consistent-hash routing table. Build with
// NewRing; derive changed rings with WithMember/WithoutMember. Immutable
// means lookups need no locking — holders swap whole rings on change.
type Ring struct {
	epoch   uint64
	vnodes  int
	members []Member // sorted by name, unique
	points  []ringPoint
	byName  map[string]int
}

// NewRing builds a ring at the given epoch over the given members.
// Members are deduplicated by name (last URL wins) and sorted, so two
// nodes building a ring from the same member set agree on every lookup.
// vnodes <= 0 selects DefaultVNodes.
func NewRing(epoch uint64, vnodes int, members []Member) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	byName := make(map[string]Member, len(members))
	for _, m := range members {
		byName[m.Name] = m
	}
	uniq := make([]Member, 0, len(byName))
	for _, m := range byName {
		uniq = append(uniq, m)
	}
	sort.Slice(uniq, func(i, j int) bool { return uniq[i].Name < uniq[j].Name })
	r := &Ring{
		epoch:   epoch,
		vnodes:  vnodes,
		members: uniq,
		points:  make([]ringPoint, 0, len(uniq)*vnodes),
		byName:  make(map[string]int, len(uniq)),
	}
	for i, m := range uniq {
		r.byName[m.Name] = i
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(m.Name, v), member: i})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Identical hashes (vanishingly rare) break ties by member name
		// so every node orders the circle identically.
		return r.members[r.points[i].member].Name < r.members[r.points[j].member].Name
	})
	return r
}

// NewRingFromInfo rebuilds a ring from its wire form.
func NewRingFromInfo(info RingInfo) *Ring {
	return NewRing(info.Epoch, info.VNodes, info.Members)
}

// pointHash places virtual node v of a member on the circle (FNV-1a
// over "name#v", finalized by mix64 — raw FNV clusters badly on inputs
// that differ only in a counter, which is exactly what vnode labels are).
func pointHash(name string, v int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	h.Write([]byte{'#'})
	var buf [4]byte
	buf[0] = byte(v)
	buf[1] = byte(v >> 8)
	buf[2] = byte(v >> 16)
	buf[3] = byte(v >> 24)
	h.Write(buf[:])
	return mix64(h.Sum64())
}

// keyHash places a session ID on the circle.
func keyHash(id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: a cheap bijective avalanche that
// spreads structured hash inputs uniformly around the circle.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Info renders the wire form.
func (r *Ring) Info() RingInfo {
	return RingInfo{Epoch: r.epoch, VNodes: r.vnodes, Members: append([]Member(nil), r.members...)}
}

// Epoch reports the ring version.
func (r *Ring) Epoch() uint64 { return r.epoch }

// Members returns the member list, sorted by name.
func (r *Ring) Members() []Member { return append([]Member(nil), r.members...) }

// Len reports the member count.
func (r *Ring) Len() int { return len(r.members) }

// Lookup returns the member whose name is given.
func (r *Ring) Lookup(name string) (Member, bool) {
	i, ok := r.byName[name]
	if !ok {
		return Member{}, false
	}
	return r.members[i], true
}

// Owner returns the member owning a session ID: the first virtual node
// at or clockwise of the key's point. ok is false on an empty ring.
func (r *Ring) Owner(id string) (Member, bool) {
	if len(r.points) == 0 {
		return Member{}, false
	}
	return r.members[r.points[r.search(keyHash(id))].member], true
}

// Successor returns the session's standby target: the first member
// clockwise of the key that is distinct from its owner. ok is false when
// the ring has fewer than two members.
func (r *Ring) Successor(id string) (Member, bool) {
	if len(r.members) < 2 {
		return Member{}, false
	}
	start := r.search(keyHash(id))
	owner := r.points[start].member
	for i := 1; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if p.member != owner {
			return r.members[p.member], true
		}
	}
	return Member{}, false
}

// search finds the index of the first point at or clockwise of h.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// WithMember derives a ring with m added (or its URL updated) and the
// epoch advanced.
func (r *Ring) WithMember(m Member) *Ring {
	members := append(r.Members(), m)
	return NewRing(r.epoch+1, r.vnodes, members)
}

// WithoutMember derives a ring with the named member removed and the
// epoch advanced.
func (r *Ring) WithoutMember(name string) *Ring {
	members := make([]Member, 0, len(r.members))
	for _, m := range r.members {
		if m.Name != name {
			members = append(members, m)
		}
	}
	return NewRing(r.epoch+1, r.vnodes, members)
}

// Fingerprint hashes the member set (names and URLs), breaking ties
// between rings that carry the same epoch but different membership —
// concurrent admin changes on different nodes. The higher fingerprint
// deterministically wins everywhere.
func (r *Ring) Fingerprint() uint64 {
	h := fnv.New64a()
	for _, m := range r.members {
		fmt.Fprintf(h, "%s=%s;", m.Name, m.URL)
	}
	return h.Sum64()
}
