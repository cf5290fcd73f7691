package sessionstore

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

type sess struct{ n int }

type lg struct {
	id  string
	seq int
}

func at(sec int) time.Time { return time.Unix(int64(sec), 0) }

func TestNumShards(t *testing.T) {
	cases := []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {16, 16}, {17, 32},
	}
	for _, c := range cases {
		if got := NumShards(c.in); got != c.want {
			t.Errorf("NumShards(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	// 0 scales to GOMAXPROCS; whatever that is, it must be a power of two.
	n := NumShards(0)
	if n < 1 || n&(n-1) != 0 {
		t.Errorf("NumShards(0) = %d, want a power of two", n)
	}
}

func TestShardForDeterministicAndMasked(t *testing.T) {
	s := New[sess, lg](16, 64)
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("session-%d", i)
		sh := s.ShardFor(id)
		if sh < 0 || sh >= s.Shards() {
			t.Fatalf("shard %d out of range [0,%d)", sh, s.Shards())
		}
		if sh != s.ShardFor(id) {
			t.Fatalf("ShardFor(%q) not deterministic", id)
		}
	}
	// FNV-1a must actually spread short ids: with 200 ids over 16 shards no
	// shard should be empty (each expects ~12).
	seen := make(map[int]bool)
	for i := 0; i < 200; i++ {
		seen[s.ShardFor(fmt.Sprintf("session-%d", i))] = true
	}
	if len(seen) != 16 {
		t.Errorf("200 ids landed on only %d/16 shards", len(seen))
	}
}

func TestPutGetDeleteLen(t *testing.T) {
	s := New[sess, lg](4, 16)
	if replaced := s.Put("a", &sess{1}, at(1)); replaced {
		t.Error("first Put reported replaced")
	}
	if replaced := s.Put("a", &sess{2}, at(2)); !replaced {
		t.Error("second Put did not report replaced")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1 after replace", s.Len())
	}
	v, ok := s.Get("a", at(3))
	if !ok || v.n != 2 {
		t.Errorf("Get = %+v, %v", v, ok)
	}
	if _, ok := s.Get("missing", at(3)); ok {
		t.Error("Get on a missing id reported ok")
	}
	if !s.Delete("a") || s.Delete("a") {
		t.Error("Delete should report true then false")
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d after delete", s.Len())
	}
}

func TestShardSizesSumToLen(t *testing.T) {
	s := New[sess, lg](8, 16)
	for i := 0; i < 50; i++ {
		s.Put(fmt.Sprintf("id-%d", i), &sess{i}, at(i))
	}
	sizes := s.ShardSizes()
	if len(sizes) != 8 {
		t.Fatalf("ShardSizes len = %d", len(sizes))
	}
	sum := 0
	for _, n := range sizes {
		sum += n
	}
	if sum != s.Len() || sum != 50 {
		t.Errorf("shard sizes sum %d, Len %d, want 50", sum, s.Len())
	}
}

// TestGCSweepsIdleOnly pins the per-shard GC contract: only entries whose
// last-seen time predates the cut are dropped, and a Get refreshes the
// clock.
func TestGCSweepsIdleOnly(t *testing.T) {
	s := New[sess, lg](4, 16)
	s.Put("old", &sess{}, at(10))
	s.Put("fresh", &sess{}, at(10))
	s.Get("fresh", at(100)) // touch
	if n := s.GC(at(50)); n != 1 {
		t.Fatalf("GC dropped %d, want 1", n)
	}
	if _, ok := s.Get("old", at(101)); ok {
		t.Error("idle entry survived GC")
	}
	if _, ok := s.Get("fresh", at(101)); !ok {
		t.Error("touched entry evicted")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

// TestLogsMergeInPushOrder: at any shard count Logs returns push order.
func TestLogsMergeInPushOrder(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		s := New[sess, lg](shards, 64)
		for i := 0; i < 40; i++ {
			s.PushLog(lg{id: fmt.Sprintf("id-%d", i), seq: i})
		}
		logs := s.Logs()
		if len(logs) != 40 {
			t.Fatalf("shards=%d: retained %d logs, want 40", shards, len(logs))
		}
		for i, l := range logs {
			if l.seq != i {
				t.Fatalf("shards=%d: logs[%d].seq = %d, want %d (push order violated)", shards, i, l.seq, i)
			}
		}
	}
}

// TestSingleShardEvictionMatchesLegacyRing: at one shard the store must
// reproduce the old global logRing exactly — oldest-first eviction, newest
// retained.
func TestSingleShardEvictionMatchesLegacyRing(t *testing.T) {
	s := New[sess, lg](1, 3)
	evictions := 0
	for i := 0; i < 5; i++ {
		if s.PushLog(lg{seq: i}) {
			evictions++
		}
	}
	if evictions != 2 {
		t.Errorf("evictions = %d, want 2", evictions)
	}
	logs := s.Logs()
	if len(logs) != 3 || logs[0].seq != 2 || logs[2].seq != 4 {
		t.Errorf("retained %v, want seqs 2..4", logs)
	}
}

// TestConcurrentShardedEvictionOrder is the store half of the GC-vs-request
// interleaving check: 8 writers start/end sessions and push logs while a GC
// goroutine sweeps shard by shard (run under -race). Afterwards each
// writer's retained logs must be in the order it pushed them (oldest-first
// eviction never reorders), and the eviction count must equal pushes minus
// retained.
func TestConcurrentShardedEvictionOrder(t *testing.T) {
	const workers, perWorker, budget = 8, 200, 64
	s := New[sess, lg](8, budget)
	var wg sync.WaitGroup
	var evictions, deletes int64
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ev, del := 0, 0
			for i := 0; i < perWorker; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				s.Put(id, &sess{i}, time.Now())
				if _, ok := s.Get(id, time.Now()); !ok {
					// GC uses a 1h horizon below, so nothing live is swept.
					t.Error("live session vanished")
					return
				}
				if s.Delete(id) {
					del++
				}
				if s.PushLog(lg{id: fmt.Sprint(w), seq: i}) {
					ev++
				}
			}
			mu.Lock()
			evictions += int64(ev)
			deletes += int64(del)
			mu.Unlock()
		}(w)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				s.GC(time.Now().Add(-time.Hour))
				s.ShardSizes()
				_ = s.Logs()
			}
		}
	}()
	wg.Wait()
	close(done)

	if deletes != workers*perWorker {
		t.Errorf("deletes = %d, want %d (GC stole a live session)", deletes, workers*perWorker)
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d after deleting everything", s.Len())
	}
	logs := s.Logs()
	last := map[string]int{}
	for _, l := range logs {
		if prev, ok := last[l.id]; ok && l.seq <= prev {
			t.Fatalf("writer %s logs out of order: seq %d then %d", l.id, prev, l.seq)
		}
		last[l.id] = l.seq
	}
	if retained := len(logs); retained != budget || int(evictions)+retained != workers*perWorker {
		t.Errorf("evictions %d + retained %d != %d pushed (ring of %d)", evictions, retained, workers*perWorker, budget)
	}
}

// TestLogRingIgnoresShards: the log budget is the store's, not a shard's —
// logs of sessions that hash to one shard do not evict each other while the
// other shards' share sits empty.
func TestLogRingIgnoresShards(t *testing.T) {
	s := New[sess, lg](4, 4)
	var ids []string
	for i := 0; len(ids) < 4; i++ {
		if id := fmt.Sprintf("id-%d", i); s.ShardFor(id) == 0 {
			ids = append(ids, id)
		}
	}
	evictions := 0
	for i, id := range ids {
		if s.PushLog(lg{id: id, seq: i}) {
			evictions++
		}
	}
	if logs := s.Logs(); len(logs) != 4 || evictions != 0 {
		t.Errorf("four logs from one shard into a ring of 4: retained %d, evicted %d; want 4 and 0", len(logs), evictions)
	}
}
