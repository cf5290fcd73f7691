package engine

import (
	"errors"
	"fmt"
	"sync"

	"cs2p/internal/trace"
)

// ErrIngestBackpressure: the intake ring has evicted a full capacity's worth
// of sessions since the last Snapshot — producers are outrunning the retrain
// consumer, and accepting more would only churn the buffer. The HTTP layer
// turns this into 429.
var ErrIngestBackpressure = errors.New("engine: trace intake overloaded")

// TraceSink is the bounded streaming trace intake: a FIFO ring of completed
// sessions accumulating the next retrain's training set. When full, pushes
// evict the oldest session (the freshest traffic is the most valuable for
// drift recovery) and the eviction is accounted. Once evictions since the
// last Snapshot reach the ring's capacity — every buffered session has been
// churned without a consumer showing up — further pushes fail with
// ErrIngestBackpressure until Snapshot drains the ring.
//
// Safe for concurrent use.
type TraceSink struct {
	mu        sync.Mutex
	buf       []*trace.Session // ring storage, len == capacity
	head      int              // index of oldest buffered session
	n         int              // buffered sessions
	epochs    int              // buffered observation epochs
	evictions uint64           // lifetime evictions
	churn     int              // evictions since the last Snapshot
}

// NewTraceSink builds an intake ring holding up to capacity sessions.
// Snapshot datasets carry trace.DefaultEpochSeconds.
func NewTraceSink(capacity int) (*TraceSink, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("engine: trace sink capacity must be positive, got %d", capacity)
	}
	return &TraceSink{buf: make([]*trace.Session, capacity)}, nil
}

// Push appends one completed session, evicting the oldest when full.
// Reports whether an eviction happened. Sessions without observations are
// rejected (they cannot train anything).
func (ts *TraceSink) Push(s *trace.Session) (evicted bool, err error) {
	if s == nil || len(s.Throughput) == 0 {
		return false, fmt.Errorf("engine: intake session has no observations")
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.churn >= len(ts.buf) {
		return false, ErrIngestBackpressure
	}
	if ts.n == len(ts.buf) {
		old := ts.buf[ts.head]
		ts.epochs -= len(old.Throughput)
		ts.buf[ts.head] = s
		ts.head = (ts.head + 1) % len(ts.buf)
		ts.evictions++
		ts.churn++
		ts.epochs += len(s.Throughput)
		return true, nil
	}
	ts.buf[(ts.head+ts.n)%len(ts.buf)] = s
	ts.n++
	ts.epochs += len(s.Throughput)
	return false, nil
}

// Len reports the buffered session count.
func (ts *TraceSink) Len() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.n
}

// Epochs reports the buffered observation-epoch count.
func (ts *TraceSink) Epochs() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.epochs
}

// Evictions reports the lifetime eviction count.
func (ts *TraceSink) Evictions() uint64 {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.evictions
}

// Snapshot drains the ring into a training dataset (sessions in push order)
// and clears the backpressure window. Returns nil when the ring is empty.
// Each buffered session is consumed exactly once — the decayed incremental
// trainers must not double-count a batch.
func (ts *TraceSink) Snapshot() *trace.Dataset {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.churn = 0
	if ts.n == 0 {
		return nil
	}
	d := &trace.Dataset{EpochSeconds: trace.DefaultEpochSeconds, Sessions: make([]*trace.Session, 0, ts.n)}
	for i := 0; i < ts.n; i++ {
		idx := (ts.head + i) % len(ts.buf)
		d.Sessions = append(d.Sessions, ts.buf[idx])
		ts.buf[idx] = nil
	}
	ts.head, ts.n, ts.epochs = 0, 0, 0
	return d
}
