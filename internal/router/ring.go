// Package router is the fault-tolerant multi-replica serving tier
// (DESIGN.md §13): a frontend that consistent-hash-routes playback sessions
// across N cs2p-server replicas, watches each replica's health through a
// probe-driven state machine, and moves sessions between replicas by
// installing their exact state. Sessions are sticky because the HMM filter
// state lives on the session's home replica; the copy of it that rides back
// with every acknowledged observation is what makes a session
// reconstructible anywhere.
package router

import (
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node count per replica. 64 points per
// replica keeps the keyspace split within a few percent of even for small
// clusters while the ring stays tiny (3 replicas = 192 points).
const DefaultVNodes = 64

// Ring is a consistent-hash ring with virtual nodes. Each replica
// contributes VNodes points at FNV-1a hashes of "name#i"; a key routes to
// the first point clockwise from its own hash. The construction is a pure
// function of the replica set — independent of insertion order and of any
// process state — so two routers (or one router across restarts) route
// every session identically, and removing a replica moves only the ~K/N
// sessions that replica owned.
type Ring struct {
	vnodes int
	points []ringPoint
	names  []string // the replica set, sorted
}

// ringPoint is one virtual node.
type ringPoint struct {
	hash    uint64
	replica string
}

// NewRing returns an empty ring (vnodes <= 0 means DefaultVNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes}
}

// fnv1a hashes s with 64-bit FNV-1a and a murmur3-style finalizer. Raw
// FNV-1a avalanches poorly in the high bits for short, similar strings
// ("http://r1#0" vs "http://r2#0"), which skews ring-point placement badly
// enough that one replica can own most of the keyspace; the finalizer's
// xor-shift-multiply cascade spreads the points evenly.
func fnv1a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// SetReplicas replaces the replica set. Names are deduplicated and sorted;
// hash ties between points of different replicas break by name so the ring
// is deterministic regardless of how the set was assembled.
func (r *Ring) SetReplicas(names []string) {
	seen := make(map[string]bool, len(names))
	r.names = r.names[:0]
	for _, n := range names {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		r.names = append(r.names, n)
	}
	sort.Strings(r.names)
	r.points = r.points[:0]
	for _, n := range r.names {
		for i := 0; i < r.vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: fnv1a(n + "#" + strconv.Itoa(i)), replica: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].replica < r.points[j].replica
	})
}

// Replicas returns the current replica set, sorted.
func (r *Ring) Replicas() []string {
	out := make([]string, len(r.names))
	copy(out, r.names)
	return out
}

// Owner returns the replica owning key, or false on an empty ring.
func (r *Ring) Owner(key string) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	i := r.search(fnv1a(key))
	return r.points[i].replica, true
}

// Sequence returns every replica exactly once, in ring order starting from
// key's hash point — the owner first, then each successive failover
// candidate. Failover to "the ring's next replica" is what keeps migration
// targets deterministic and balanced: the sessions of a dead replica spread
// over its ring successors instead of piling onto one designated backup.
func (r *Ring) Sequence(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	out := make([]string, 0, len(r.names))
	seen := make(map[string]bool, len(r.names))
	for i, n := r.search(fnv1a(key)), 0; n < len(r.points); n++ {
		p := r.points[(i+n)%len(r.points)]
		if seen[p.replica] {
			continue
		}
		seen[p.replica] = true
		out = append(out, p.replica)
		if len(out) == len(r.names) {
			break
		}
	}
	return out
}

// search finds the first ring point at or clockwise-after h.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}
