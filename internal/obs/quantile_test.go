package obs

import (
	"math"
	"strings"
	"testing"
)

// quantile reads h the way the drift detector does: QuantileFromCounts over
// the histogram's own bounds and a Counts snapshot.
func quantile(h *Histogram, q float64) float64 {
	return QuantileFromCounts(h.Bounds(), h.Counts(), q)
}

func TestHistogramQuantile(t *testing.T) {
	var nilH *Histogram
	if got := quantile(nilH, 0.99); got != 0 {
		t.Fatalf("nil histogram quantile = %v, want 0", got)
	}

	reg := NewRegistry()
	h := reg.Histogram("q_seconds", "", []float64{1, 2, 4, 8}, nil)
	if got := quantile(h, 0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}

	// 100 observations spread uniformly through (0, 1]: every sample lands
	// in the first bucket, and interpolation places quantiles inside it.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	if got := quantile(h, 0.5); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("p50 = %v, want 0.5 by linear interpolation", got)
	}
	if got := quantile(h, 1); got != 1 {
		t.Fatalf("p100 = %v, want the bucket bound 1", got)
	}
	// Out-of-range q clamps.
	if quantile(h, -1) != quantile(h, 0) || quantile(h, 2) != quantile(h, 1) {
		t.Fatal("quantile arguments did not clamp to [0,1]")
	}

	// Push mass into a higher bucket: 100 in (0,1], 100 in (4,8]. The p75
	// rank (150) falls mid-way through the second populated bucket.
	for i := 0; i < 100; i++ {
		h.Observe(5)
	}
	if got := quantile(h, 0.75); math.Abs(got-6) > 1e-9 {
		t.Fatalf("p75 = %v, want 6 (half-way through the (4,8] bucket)", got)
	}

	// Overflow beyond the last bound reports the last bound — the ladder's
	// saturation contract (exact maxima must be tracked separately).
	h2 := reg.Histogram("q2_seconds", "", []float64{1, 2}, nil)
	h2.Observe(50)
	if got := quantile(h2, 0.99); got != 2 {
		t.Fatalf("overflow quantile = %v, want last bound 2", got)
	}
}

func TestRegisterRuntimeMetrics(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntimeMetrics(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("runtime metrics scrape does not parse: %v", err)
	}
	got := map[string]float64{}
	for _, s := range samples {
		got[s.Key()] = s.Value
	}
	for _, name := range []string{
		"cs2p_runtime_heap_alloc_bytes",
		"cs2p_runtime_heap_objects",
		"cs2p_runtime_gc_cycles",
		"cs2p_runtime_goroutines",
	} {
		v, ok := got[name]
		if !ok {
			t.Fatalf("runtime gauge %s missing from scrape: %v", name, got)
		}
		if name != "cs2p_runtime_gc_cycles" && v <= 0 {
			t.Fatalf("runtime gauge %s = %v, want > 0 in a live process", name, v)
		}
	}
}
