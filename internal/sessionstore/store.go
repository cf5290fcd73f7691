// Package sessionstore holds the serving core's per-session state behind a
// sharded, independently locked table. CS2P's online stage is per-session
// state machines (one cluster lookup plus one HMM filter each, §5), so the
// session table is embarrassingly shardable: requests for different sessions
// never need to contend, and an idle-session GC sweep never needs to stop
// the world. The store also owns the bounded completed-session log ring —
// one for the store, under its own mutex, since a session ends once and its
// log is one push.
package sessionstore

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// NumShards resolves a shard-count request: n <= 0 scales to GOMAXPROCS,
// anything else rounds up to the next power of two (so the shard index is a
// mask of the hash, not a modulo).
func NumShards(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return nextPow2(n)
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// entry wraps one session with its idle clock. lastSeen is guarded by the
// owning shard's mutex, not by the session's own lock: touching it must not
// serialize against a long-running filter update.
type entry[S any] struct {
	val      *S
	lastSeen time.Time
}

// shard is one lock domain: a slice of the session table.
type shard[S any] struct {
	mu sync.Mutex
	m  map[string]*entry[S]
}

// Sharded is the session table the prediction engine programs against: a
// string-keyed, power-of-two-sharded table of per-session values S with idle
// tracking, plus a bounded ring of completed-session logs L, safe for
// concurrent use. Session ids are placed by FNV-1a; per-shard mutexes mean
// two sessions on different shards never contend, and Len is an atomic
// counter so the active-sessions gauge costs no lock at all. The shard count
// changes nothing the log ring keeps.
type Sharded[S, L any] struct {
	shards []shard[S]
	mask   uint32
	count  atomic.Int64
	logMu  sync.Mutex
	logs   ring[L]
}

// New builds a store with NumShards(shards) shards and a log ring of maxLogs
// entries.
func New[S, L any](shards, maxLogs int) *Sharded[S, L] {
	n := NumShards(shards)
	s := &Sharded[S, L]{
		shards: make([]shard[S], n),
		mask:   uint32(n - 1),
		logs:   ring[L]{max: max(maxLogs, 0)},
	}
	for i := range s.shards {
		s.shards[i].m = make(map[string]*entry[S])
	}
	return s
}

// fnv32a is FNV-1a over the session id — cheap, allocation-free, and well
// mixed for the short human-ish ids players send.
func fnv32a(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

// fnv32aBytes is fnv32a over a byte slice. Kept separate (rather than
// converting) so the wire path hashes without a string allocation.
func fnv32aBytes(b []byte) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(b); i++ {
		h ^= uint32(b[i])
		h *= prime32
	}
	return h
}

// ShardFor returns the shard index a session id hashes to.
func (s *Sharded[S, L]) ShardFor(id string) int {
	return int(fnv32a(id) & s.mask)
}

// Shards returns the shard count.
func (s *Sharded[S, L]) Shards() int { return len(s.shards) }

// Put inserts or replaces the session and stamps its last-seen time,
// reporting whether an existing entry was replaced.
func (s *Sharded[S, L]) Put(id string, v *S, now time.Time) (replaced bool) {
	sh := &s.shards[s.ShardFor(id)]
	sh.mu.Lock()
	_, replaced = sh.m[id]
	sh.m[id] = &entry[S]{val: v, lastSeen: now}
	sh.mu.Unlock()
	if !replaced {
		s.count.Add(1)
	}
	return replaced
}

// Get fetches a session and refreshes its idle clock.
func (s *Sharded[S, L]) Get(id string, now time.Time) (*S, bool) {
	sh := &s.shards[s.ShardFor(id)]
	sh.mu.Lock()
	e, ok := sh.m[id]
	if ok {
		e.lastSeen = now
	}
	sh.mu.Unlock()
	if !ok {
		return nil, false
	}
	return e.val, true
}

// GetBytes is Get keyed by raw bytes — the binary wire path's lookup. It
// neither retains id nor allocates (the string conversions sit directly in
// the map index expressions, which the compiler compiles without
// materializing a string), so a decoded frame's id can alias a pooled buffer.
func (s *Sharded[S, L]) GetBytes(id []byte, now time.Time) (*S, bool) {
	sh := &s.shards[fnv32aBytes(id)&s.mask]
	sh.mu.Lock()
	e, ok := sh.m[string(id)]
	if ok {
		e.lastSeen = now
	}
	sh.mu.Unlock()
	if !ok {
		return nil, false
	}
	return e.val, true
}

// Delete forgets a session, reporting whether it existed.
func (s *Sharded[S, L]) Delete(id string) bool {
	sh := &s.shards[s.ShardFor(id)]
	sh.mu.Lock()
	_, ok := sh.m[id]
	delete(sh.m, id)
	sh.mu.Unlock()
	if ok {
		s.count.Add(-1)
	}
	return ok
}

// Len returns the number of live sessions.
func (s *Sharded[S, L]) Len() int { return int(s.count.Load()) }

// ShardSizes returns the per-shard session counts, index-aligned with shard
// ids (the observability layer exports them as a gauge vector).
func (s *Sharded[S, L]) ShardSizes() []int {
	sizes := make([]int, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sizes[i] = len(sh.m)
		sh.mu.Unlock()
	}
	return sizes
}

// PushLog appends a completed-session log to the ring, reporting whether an
// older entry was evicted.
func (s *Sharded[S, L]) PushLog(lg L) (evicted bool) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return s.logs.push(lg)
}

// Logs returns the retained logs, oldest first.
func (s *Sharded[S, L]) Logs() []L {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return s.logs.snapshot()
}

// GC drops sessions idle since before cut and returns how many were removed:
// one shard is locked, swept, and released at a time, so requests to other
// shards never wait.
func (s *Sharded[S, L]) GC(cut time.Time) int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for id, e := range sh.m {
			if e.lastSeen.Before(cut) {
				delete(sh.m, id)
				n++
			}
		}
		sh.mu.Unlock()
	}
	if n > 0 {
		s.count.Add(int64(-n))
	}
	return n
}
