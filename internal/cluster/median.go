package cluster

import (
	"container/heap"
	"math"
	"sort"
)

// RunningMedian maintains the exact median of a stream of observations with
// the classic two-heap construction: a max-heap over the lower half and a
// min-heap over the upper half, rebalanced so the lower heap holds the extra
// element when the count is odd. Add is O(log n); Value is O(1).
//
// Value reproduces mathx.Median (linear interpolation between order
// statistics) bit-for-bit: the middle element when the count is odd and
// lo*0.5 + hi*0.5 when even — so the engine's offline batch medians and the
// online cluster medians share one definition. Not safe for concurrent use;
// the online learner serializes access.
type RunningMedian struct {
	lower maxHeap // lower half; top is the largest of the small values
	upper minHeap // upper half; top is the smallest of the large values
}

// Add inserts one observation. NaN observations are ignored (a throughput
// sample that failed to parse must not poison the median forever).
func (rm *RunningMedian) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	if rm.lower.Len() == 0 || x <= rm.lower.vals[0] {
		heap.Push(&rm.lower, x)
	} else {
		heap.Push(&rm.upper, x)
	}
	// Rebalance: lower may hold at most one more element than upper.
	switch {
	case rm.lower.Len() > rm.upper.Len()+1:
		heap.Push(&rm.upper, heap.Pop(&rm.lower))
	case rm.upper.Len() > rm.lower.Len():
		heap.Push(&rm.lower, heap.Pop(&rm.upper))
	}
}

// Count reports how many observations have been absorbed.
func (rm *RunningMedian) Count() int { return rm.lower.Len() + rm.upper.Len() }

// Value returns the current median, or NaN when no observation has been
// absorbed yet.
func (rm *RunningMedian) Value() float64 {
	nl, nu := rm.lower.Len(), rm.upper.Len()
	switch {
	case nl == 0 && nu == 0:
		return math.NaN()
	case nl > nu:
		return rm.lower.vals[0]
	default:
		// Even count: interpolate exactly as mathx.QuantileSorted does at
		// q=0.5 (lo*(1-frac) + hi*frac with frac = 0.5).
		return rm.lower.vals[0]*0.5 + rm.upper.vals[0]*0.5
	}
}

type maxHeap struct{ vals []float64 }

func (h *maxHeap) Len() int           { return len(h.vals) }
func (h *maxHeap) Less(i, j int) bool { return h.vals[i] > h.vals[j] }
func (h *maxHeap) Swap(i, j int)      { h.vals[i], h.vals[j] = h.vals[j], h.vals[i] }
func (h *maxHeap) Push(x interface{}) { h.vals = append(h.vals, x.(float64)) }
func (h *maxHeap) Pop() interface{} {
	n := len(h.vals)
	v := h.vals[n-1]
	h.vals = h.vals[:n-1]
	return v
}

type minHeap struct{ vals []float64 }

func (h *minHeap) Len() int           { return len(h.vals) }
func (h *minHeap) Less(i, j int) bool { return h.vals[i] < h.vals[j] }
func (h *minHeap) Swap(i, j int)      { h.vals[i], h.vals[j] = h.vals[j], h.vals[i] }
func (h *minHeap) Push(x interface{}) { h.vals = append(h.vals, x.(float64)) }
func (h *minHeap) Pop() interface{} {
	n := len(h.vals)
	v := h.vals[n-1]
	h.vals = h.vals[:n-1]
	return v
}

// Sample is one training session's (start, initial throughput) pair: all
// Eq. 6 needs of it, for the rule search and for a server booted from a
// shipped index alike.
type Sample struct {
	StartUnix   int64   `json:"t"`
	InitialMbps float64 `json:"w"`
}

// WindowMedian is Eq. 6's median over Agg(M, s), given g, the group of s's
// feature values under M's features, sorted by start: the median initial
// throughput of the samples M's window w admits for a target starting at
// ref, or NaN when fewer than minCount (or none) are admitted. g must hold
// no NaN (trace.Session.Validate rejects non-finite epochs); the result then
// equals mathx.Median of the admitted values. The window is cut by binary
// search and counted before any copy, the values go into *buf (grown as
// needed), and the median is selected, not sorted: with a reused buffer
// nothing allocates.
func WindowMedian(g []Sample, w TimeWindow, ref int64, minCount int, buf *[]float64) float64 {
	hi := sort.Search(len(g), func(i int) bool { return g[i].StartUnix >= ref })
	from := w.earliest(ref)
	lo := sort.Search(hi, func(i int) bool { return g[i].StartUnix >= from })
	if hi-lo < minCount || hi == lo {
		return math.NaN()
	}
	vals, hour := (*buf)[:0], hourOfDay(ref)
	for _, s := range g[lo:hi] {
		if w.Kind != WindowSameHour || hourOfDay(s.StartUnix) == hour {
			vals = append(vals, s.InitialMbps)
		}
	}
	*buf = vals
	if len(vals) < minCount || len(vals) == 0 {
		return math.NaN()
	}
	return medianSelect(vals)
}

// medianSelect returns mathx.Median(x) of a non-empty, NaN-free x without
// sorting it: quickselect places the lower middle order statistic, for an
// even count the upper one is the least value above it, and the two combine
// through mathx.QuantileSorted's own expression. x is reordered.
func medianSelect(x []float64) float64 {
	k := (len(x) - 1) / 2
	selectK(x, k)
	pos := 0.5 * float64(len(x)-1)
	if pos == float64(k) {
		return x[k]
	}
	hi := x[k+1]
	for _, v := range x[k+2:] {
		hi = min(hi, v)
	}
	frac := pos - float64(k)
	return x[k]*(1-frac) + hi*frac
}

// selectK reorders x so that x[k] is its k-th smallest value, with nothing
// greater before it and nothing smaller after it. The three-way partition
// keeps runs of equal throughputs linear.
func selectK(x []float64, k int) {
	lo, hi := 0, len(x)-1
	for lo < hi {
		p := x[lo+(hi-lo)/2]
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch v := x[i]; {
			case v < p:
				x[lt], x[i] = v, x[lt]
				lt++
				i++
			case v > p:
				x[i], x[gt] = x[gt], v
				gt--
			default:
				i++
			}
		}
		// Now x[lo:lt] < p, x[lt:gt+1] == p and x[gt+1:hi+1] > p.
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return
		}
	}
}
