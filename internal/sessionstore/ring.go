package sessionstore

// ring is a fixed-capacity ring buffer of completed-session logs. Retaining
// every QoE report in a long-lived process is an unbounded leak, so only the
// most recent max entries survive; eviction is strictly oldest-first.
// Callers hold the store's log mutex.
type ring[L any] struct {
	buf  []L
	next int // index the next push overwrites once full
	max  int
}

// push appends a log, evicting the oldest entry once full. A zero-capacity
// ring drops the entry immediately and reports it evicted. It reports
// whether an entry was evicted, so the service can count evictions.
func (r *ring[L]) push(lg L) (evicted bool) {
	if r.max <= 0 {
		return true
	}
	if len(r.buf) < r.max {
		if r.buf == nil {
			// Grow lazily: most test services never approach the cap.
			r.buf = make([]L, 0, min(r.max, 64))
		}
		r.buf = append(r.buf, lg)
		return false
	}
	r.buf[r.next] = lg
	r.next = (r.next + 1) % r.max
	return true
}

// snapshot returns the retained logs oldest-first.
func (r *ring[L]) snapshot() []L {
	out := make([]L, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}
