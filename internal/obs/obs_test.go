package obs

import (
	"bytes"
	"context"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryAndInstrumentsAreNoops(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "", nil)
	g := r.Gauge("g", "", nil)
	h := r.Histogram("h", "", nil, nil)
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Errorf("nil instruments mutated: %v %v %v", c.Value(), g.Value(), h.Count())
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Errorf("nil registry write: %v", err)
	}
	var tr *Trace
	tr.Mark("stage")
	if tr.Summary() != "" || tr.ID() != "" {
		t.Error("nil trace not inert")
	}
}

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests", Labels{"route": "/v1/predict", "code": "200"})
	c.Add(3)
	c.Inc()
	c.Add(-7) // ignored: counters are monotonic
	if got := c.Value(); got != 4 {
		t.Errorf("counter = %d, want 4", got)
	}
	if again := r.Counter("reqs_total", "requests", Labels{"code": "200", "route": "/v1/predict"}); again != c {
		t.Error("same name+labels should return the same instrument regardless of map order")
	}

	g := r.Gauge("inflight", "", nil)
	g.Set(2)
	g.Add(1.5)
	if got := g.Value(); got != 3.5 {
		t.Errorf("gauge = %v, want 3.5", got)
	}

	h := r.Histogram("lat_seconds", "", []float64{0.1, 1, 10}, nil)
	for _, v := range []float64{0.05, 0.5, 5, 50, math.NaN()} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("histogram count = %d, want 4 (NaN dropped)", h.Count())
	}
	if want := 0.05 + 0.5 + 5 + 50; math.Abs(h.Sum()-want) > 1e-12 {
		t.Errorf("histogram sum = %v, want %v", h.Sum(), want)
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "", nil)
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge should panic")
		}
	}()
	r.Gauge("m", "", nil)
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	if len(b) != len(want) {
		t.Fatalf("len = %d", len(b))
	}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-12 {
			t.Errorf("bucket[%d] = %v, want %v", i, b[i], want[i])
		}
	}
	if ExpBuckets(0, 10, 4) != nil || ExpBuckets(1, 1, 4) != nil || ExpBuckets(1, 2, 0) != nil {
		t.Error("degenerate bucket specs should return nil")
	}
}

// TestPrometheusRoundTrip renders a populated registry and re-parses it with
// the strict parser: the exposition format itself is the contract under test.
func TestPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_requests_total", "Total requests.", Labels{"route": "/a", "code": "200"}).Add(7)
	r.Counter("app_requests_total", "Total requests.", Labels{"route": "/a", "code": "500"}).Inc()
	r.Gauge("app_sessions_active", "Active sessions.", nil).Set(12)
	r.Gauge("app_weird", "labels with \"quotes\" and \\ slashes", Labels{"v": "a\"b\\c\nd{e}"}).Set(1)
	h := r.Histogram("app_latency_seconds", "Latency.", []float64{0.01, 0.1, 1}, Labels{"route": "/a"})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse failed: %v\n%s", err, buf.String())
	}

	checks := map[string]float64{
		`app_requests_total{code="200",route="/a"}`:        7,
		`app_requests_total{code="500",route="/a"}`:        1,
		`app_sessions_active`:                              12,
		`app_latency_seconds_bucket{le="0.01",route="/a"}`: 1,
		`app_latency_seconds_bucket{le="0.1",route="/a"}`:  2,
		`app_latency_seconds_bucket{le="1",route="/a"}`:    3,
		`app_latency_seconds_bucket{le="+Inf",route="/a"}`: 4,
		`app_latency_seconds_count{route="/a"}`:            4,
	}
	for key, want := range checks {
		got, ok := SampleValue(samples, key)
		if !ok {
			t.Errorf("missing sample %s (have %v)", key, SampleKeys(samples))
			continue
		}
		if got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
		}
	}
	weirdKey := "app_weird" + renderLabels(Labels{"v": "a\"b\\c\nd{e}"})
	if v, ok := SampleValue(samples, weirdKey); !ok || v != 1 {
		t.Errorf("escaped label round trip failed: %v %v (have %v)", v, ok, SampleKeys(samples))
	}
	if sum, ok := SampleValue(samples, `app_latency_seconds_sum{route="/a"}`); !ok || math.Abs(sum-5.555) > 1e-9 {
		t.Errorf("histogram sum = %v, %v", sum, ok)
	}
}

func TestParseTextRejectsMalformed(t *testing.T) {
	cases := []string{
		"app_untyped 3\n",                  // sample before TYPE
		"# TYPE m counter\nm{a=\"b\" 3\n",  // unterminated labels
		"# TYPE m counter\nm notanumber\n", // bad value
		"# TYPE m wibble\n",                // unknown type
		"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n", // non-cumulative
	}
	for _, c := range cases {
		if _, err := ParseText(strings.NewReader(c)); err == nil {
			t.Errorf("ParseText accepted malformed input %q", c)
		}
	}
}

func TestHandlerServesMetrics(t *testing.T) {
	r := NewRegistry()
	r.Counter("h_total", "", nil).Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "h_total 1") {
		t.Errorf("body = %q", rec.Body.String())
	}
}

func TestDebugMuxRoutes(t *testing.T) {
	r := NewRegistry()
	r.Counter("d_total", "", nil).Inc()
	mux := DebugMux(r)
	for _, path := range []string{"/metrics", "/healthz", "/debug/pprof/"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Errorf("GET %s = %d, want 200", path, rec.Code)
		}
	}
}

// TestServeDebugLifecycle binds the -debug-addr listener on an ephemeral
// port, scrapes it, and checks that cancelling the context closes the port.
func TestServeDebugLifecycle(t *testing.T) {
	r := NewRegistry()
	r.Counter("d_total", "", nil).Inc()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var logged []string
	var mu sync.Mutex
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logged = append(logged, format)
	}
	addr, err := ServeDebug(ctx, "127.0.0.1:0", r, logf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ServeDebug(ctx, addr.String(), r, logf); err == nil {
		t.Error("second ServeDebug on a bound port returned no error")
	}

	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := SampleValue(samples, "d_total"); !ok || v != 1 {
		t.Errorf("d_total over the debug listener = %v, %v; want 1", v, ok)
	}

	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", addr.String(), time.Second)
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("debug port still accepting 5s after cancel")
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logged) != 1 || !strings.Contains(logged[0], "listening") {
		t.Errorf("logged %q, want the one listening line and no serve error", logged)
	}
}

// TestConcurrentInstruments hammers one family from many goroutines; run
// under -race this is the registry's thread-safety proof.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("cc_total", "", Labels{"w": "shared"}).Inc()
				r.Gauge("cg", "", nil).Add(1)
				r.Histogram("ch", "", []float64{1, 10}, nil).Observe(float64(i % 20))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("cc_total", "", Labels{"w": "shared"}).Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Gauge("cg", "", nil).Value(); got != workers*per {
		t.Errorf("gauge = %v, want %d", got, workers*per)
	}
	if got := r.Histogram("ch", "", nil, nil).Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseText(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestTraceSummary(t *testing.T) {
	tr := NewTrace("abc123")
	tr.Mark("decode")
	tr.Mark("predict")
	s := tr.Summary()
	for _, want := range []string{"rid=abc123", "total=", "decode=", "predict="} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
	if id := NewRequestID(); len(id) != 16 {
		t.Errorf("request id %q not 16 hex chars", id)
	}
}

func TestGaugeFunc(t *testing.T) {
	var r *Registry
	if g := r.GaugeFunc("age", "", nil, func() float64 { return 7 }); g.Value() != 0 {
		t.Error("nil-registry GaugeFunc not inert")
	}

	r = NewRegistry()
	val := 3.5
	g := r.GaugeFunc("model_age_seconds", "seconds since training", nil, func() float64 { return val })
	if got := g.Value(); got != 3.5 {
		t.Errorf("gauge func = %v, want 3.5", got)
	}
	val = 9 // scrape-time semantics: the rendered value tracks the callback
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "model_age_seconds 9") {
		t.Errorf("scrape should evaluate the callback:\n%s", buf.String())
	}

	// Re-binding replaces the value source on the same series.
	if again := r.GaugeFunc("model_age_seconds", "", nil, func() float64 { return 1 }); again != g {
		t.Error("same name+labels should return the same instrument")
	}
	if got := g.Value(); got != 1 {
		t.Errorf("re-bound gauge func = %v, want 1", got)
	}
}

func TestGaugeFuncPushedMixPanics(t *testing.T) {
	r := NewRegistry()
	r.Gauge("m", "", nil)
	defer func() {
		if recover() == nil {
			t.Error("registering a pushed gauge series as a GaugeFunc should panic")
		}
	}()
	r.GaugeFunc("m", "", nil, func() float64 { return 0 })
}
