// Package obs is the repo's dependency-free observability layer: a metrics
// registry (atomic counters, gauges, and fixed log-scale-bucket histograms)
// with Prometheus text exposition, request-id tracing helpers shared by the
// HTTP server and client, and a debug mux that wires net/http/pprof.
//
// Design rules:
//
//   - Zero third-party dependencies; everything is stdlib.
//   - Every instrument is safe for concurrent use (atomics only on the hot
//     path; the registry mutex is taken only when an instrument is first
//     created or the registry is scraped).
//   - A nil *Registry hands out nil instruments, and every instrument method
//     is a no-op on a nil receiver, so instrumented packages never branch on
//     "is observability enabled" — they just call through.
//
// Metric names follow Prometheus conventions (snake_case, unit-suffixed,
// `_total` on counters); DESIGN.md §9 tables every series the system emits.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels name one series within a metric family. Families are keyed by
// metric name; series by the sorted label set.
type Labels map[string]string

// Counter is a monotonically increasing counter. All methods are nil-safe
// no-ops so uninstrumented code paths cost one predictable branch.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored; counters only go up).
func (c *Counter) Add(n int) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(uint64(n))
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 value that can go up and down (stored as IEEE-754 bits
// behind an atomic, with a CAS loop for Add).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets (cumulative on export,
// like Prometheus). Buckets are chosen at registration and shared by every
// series of the family; ExpBuckets builds the log-scale ladders the
// latency/error metrics use.
type Histogram struct {
	bounds []float64       // upper bounds, strictly increasing; +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1, last = overflow
	sum    Gauge
	count  atomic.Uint64
}

// Observe records one sample. NaN samples are dropped (they would poison
// the sum and satisfy no bucket).
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	// Buckets are few (≤ ~25); linear scan beats binary search at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Bounds returns the histogram's upper bucket bounds (shared, not copied —
// bounds are immutable after registration). Nil on a nil histogram.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// Counts returns a snapshot of the per-bucket counts, len(Bounds())+1 with
// the overflow bucket last. Each bucket is read atomically; like any scrape,
// the snapshot is approximate across in-flight updates. Nil on a nil
// histogram. The engine's drift detector diffs successive snapshots to get a
// windowed view of the live APE distribution.
func (h *Histogram) Counts() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// QuantileFromCounts estimates the q-quantile (0 ≤ q ≤ 1, clamped) of a
// bucket snapshot by linear interpolation inside the bucket the target rank
// falls in. counts must have len(bounds)+1 entries (overflow last), as
// returned by Histogram.Counts — or a difference of two such snapshots, which
// is how the drift detector computes the median APE of a sliding window.
// Accuracy is bounded by the ladder's growth factor; samples past the last
// bound report that bound (the estimate saturates rather than inventing a
// tail). Returns 0 when the counts are empty.
func QuantileFromCounts(bounds []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum uint64
	lower := 0.0
	for i, bound := range bounds {
		c := counts[i]
		cum += c
		if c > 0 && float64(cum) >= rank {
			frac := (rank - float64(cum-c)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lower + frac*(bound-lower)
		}
		lower = bound
	}
	return lower
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// ExpBuckets returns n upper bounds starting at start and growing by factor:
// the fixed log-scale ladder used across the repo's histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		return nil
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Standard bucket ladders. Latency spans 100µs–27s; error ratios span
// 0.1%–1600% (the paper's Figure 9 error CDFs live well inside this range);
// entropy spans a 6-state posterior's 0–log2(6)≈2.6 bits.
var (
	// LatencyBuckets covers HTTP handling and training stage durations (s).
	LatencyBuckets = ExpBuckets(100e-6, 3, 13)
	// ErrorBuckets covers absolute-percentage-error ratios (1.0 = 100%).
	ErrorBuckets = ExpBuckets(0.001, 2, 15)
	// EntropyBuckets covers posterior entropies in bits.
	EntropyBuckets = ExpBuckets(0.01, 2, 11)
)

// metricKind discriminates family types.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one metric name with its type, help text, and label-keyed series.
type family struct {
	name    string
	help    string
	kind    metricKind
	buckets []float64
	series  map[string]any // rendered label string -> *Counter/*Gauge/*Histogram
	order   []string       // registration order of series keys
	labels  map[string]Labels
}

// Registry owns metric families and renders them in Prometheus text format.
// The zero value is not usable; call NewRegistry. A nil *Registry is a valid
// no-op sink: it returns nil instruments.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup finds or creates the family and series, enforcing that a metric
// name keeps one type for the registry's lifetime.
func (r *Registry) lookup(name, help string, kind metricKind, buckets []float64, labels Labels) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name:    name,
			help:    help,
			kind:    kind,
			buckets: buckets,
			series:  make(map[string]any),
			labels:  make(map[string]Labels),
		}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	key := renderLabels(labels)
	if m, ok := f.series[key]; ok {
		return m
	}
	var m any
	switch kind {
	case kindCounter:
		m = &Counter{}
	case kindGauge:
		m = &Gauge{}
	default:
		h := &Histogram{bounds: f.buckets}
		h.counts = make([]atomic.Uint64, len(f.buckets)+1)
		m = h
	}
	f.series[key] = m
	f.order = append(f.order, key)
	f.labels[key] = cloneLabels(labels)
	return m
}

// Counter returns the named counter series, creating it on first use.
// Repeated calls with the same name+labels return the same instrument.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, nil, labels).(*Counter)
}

// Gauge returns the named gauge series.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, nil, labels).(*Gauge)
}

// Histogram returns the named histogram series. The first registration of a
// family fixes its buckets; later calls may pass nil.
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = LatencyBuckets
	}
	return r.lookup(name, help, kindHistogram, buckets, labels).(*Histogram)
}

// GaugeFunc is a gauge whose value is computed at scrape time instead of
// being pushed — the shape for quantities that drift with the clock (a model
// artifact's age) where a pushed gauge would go stale between events. The
// callback must be fast, concurrency-safe, and must not touch the registry
// (it runs under the registry mutex during a scrape).
type GaugeFunc struct {
	fn atomic.Pointer[func() float64]
}

// Value evaluates the callback (0 when nil or unbound).
func (g *GaugeFunc) Value() float64 {
	if g == nil {
		return 0
	}
	if f := g.fn.Load(); f != nil {
		return (*f)()
	}
	return 0
}

// GaugeFunc returns the named scrape-time gauge series, binding (or
// re-binding) fn as its value source. It shares the gauge namespace: a name
// registered as a pushed Gauge cannot be re-registered as a GaugeFunc.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) *GaugeFunc {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name:   name,
			help:   help,
			kind:   kindGauge,
			series: make(map[string]any),
			labels: make(map[string]Labels),
		}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.kind != kindGauge {
		panic(fmt.Sprintf("obs: metric %q registered as %s and gauge", name, f.kind))
	}
	key := renderLabels(labels)
	if m, ok := f.series[key]; ok {
		gf, isFunc := m.(*GaugeFunc)
		if !isFunc {
			panic(fmt.Sprintf("obs: metric %q series %q registered as both pushed and scrape-time gauge", name, key))
		}
		gf.fn.Store(&fn)
		return gf
	}
	gf := &GaugeFunc{}
	gf.fn.Store(&fn)
	f.series[key] = gf
	f.order = append(f.order, key)
	f.labels[key] = cloneLabels(labels)
	return gf
}

// renderLabels builds the canonical `{k="v",...}` suffix (sorted keys,
// escaped values). Empty labels render as "".
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the Prometheus text-format escapes.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

func cloneLabels(l Labels) Labels {
	if len(l) == 0 {
		return nil
	}
	out := make(Labels, len(l))
	for k, v := range l {
		out[k] = v
	}
	return out
}
