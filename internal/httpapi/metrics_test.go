package httpapi

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cs2p/internal/core"
	"cs2p/internal/engine"
	"cs2p/internal/obs"
	"cs2p/internal/video"
	"cs2p/internal/wire"
)

// metricsServer builds a server + engine service sharing one registry, on
// top of the harness's trained engine. maxLogs caps the QoE-log ring (0 =
// the engine's default).
func metricsServer(t testing.TB, maxLogs int) (*httptest.Server, *engine.Service) {
	t.Helper()
	ensureEnv()
	reg := obs.NewRegistry()
	// Shards pinned to 4 so the per-shard series show up even where
	// GOMAXPROCS would default the store to a single shard.
	svc := engine.NewServiceWithOptions(envEngine, envCfg, video.Default(),
		engine.ServiceOptions{Shards: 4, MaxLogs: maxLogs})
	svc.SetMetrics(reg)
	srv := NewServer(svc, (*core.Engine).Store)
	srv.SetLogf(func(string, ...any) {})
	srv.SetMetrics(reg)
	return httptest.NewServer(srv.Handler()), svc
}

// TestMetricsEndpointScrape drives real traffic through the instrumented
// stack, scrapes /metrics, and validates the exposition end to end: the
// output must parse as strict Prometheus text and carry the request-layer,
// engine, and prediction-quality series the dashboards are built on.
func TestMetricsEndpointScrape(t *testing.T) {
	ts, _ := metricsServer(t, 0)
	defer ts.Close()
	c := NewClient(ts.URL)

	// Traffic: two sessions, several epochs each (so both the initial and
	// midstream APE phases fill), one ended, one 404, one bad request.
	for i, s := range envTest.Sessions[:2] {
		id := fmt.Sprintf("met-%d", i)
		if _, err := c.StartSession(id, s.Features, s.StartUnix); err != nil {
			t.Fatal(err)
		}
		for _, w := range s.Throughput[:5] {
			if _, err := c.ObserveAndPredict(id, w, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Log(engine.SessionLog{SessionID: "met-0", QoE: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ObserveAndPredict("no-such-session", 1, 1); err == nil {
		t.Fatal("expected 404")
	}
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Binary wire traffic: two single ops plus one 3-op batch, so the
	// format-split counters, the batch-size histogram, and the byte
	// counters all have data.
	cw := NewClient(ts.URL)
	cw.SetWireBinary(true)
	if _, err := cw.ObserveAndPredict("met-1", 2.0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cw.PredictAt("met-1", 3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cw.Batch([]wire.Op{
		{SessionID: []byte("met-0"), ObservedMbps: 1.5, Horizon: 1, HasObserve: true},
		{SessionID: []byte("met-1"), Horizon: 2},
		{SessionID: []byte("gone"), Horizon: 1},
	}); err != nil {
		t.Fatal(err)
	}

	// Scrape.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("scrape does not parse as Prometheus text: %v\n%s", err, body)
	}

	get := func(key string) float64 {
		t.Helper()
		v, ok := obs.SampleValue(samples, key)
		if !ok {
			t.Fatalf("missing sample %s\nscrape:\n%s", key, body)
		}
		return v
	}
	// Request layer: counts and latency by route and status.
	if got := get(`cs2p_http_requests_total{code="200",route="/v1/predict"}`); got < 10 {
		t.Errorf("predict 200s = %v, want >= 10", got)
	}
	if get(`cs2p_http_requests_total{code="404",route="/v1/predict"}`) != 1 {
		t.Error("missing the 404 request count")
	}
	if get(`cs2p_http_requests_total{code="400",route="/v1/predict"}`) != 1 {
		t.Error("missing the 400 request count")
	}
	if get(`cs2p_http_requests_total{code="200",route="/v1/session/start"}`) != 2 {
		t.Error("missing start request count")
	}
	if got := get(`cs2p_http_request_seconds_count{route="/v1/predict"}`); got < 12 {
		t.Errorf("predict latency count = %v, want >= 12", got)
	}
	if get(`cs2p_http_request_seconds_bucket{le="+Inf",route="/v1/predict"}`) !=
		get(`cs2p_http_request_seconds_count{route="/v1/predict"}`) {
		t.Error("+Inf bucket does not equal histogram count")
	}
	// The scrape itself is the only request in flight while rendering.
	if get(`cs2p_http_in_flight`) != 1 {
		t.Error("in-flight gauge != 1 during the scrape")
	}
	// Wire-format split: the JSON predict traffic and the binary ops are
	// counted under the same metric with a format label.
	if got := get(`cs2p_http_wire_requests_total{format="json",route="/v1/predict"}`); got < 12 {
		t.Errorf("json predict wire count = %v, want >= 12", got)
	}
	if get(`cs2p_http_wire_requests_total{format="binary",route="/v2/observe"}`) != 1 {
		t.Error("binary observe wire count != 1")
	}
	if get(`cs2p_http_wire_requests_total{format="binary",route="/v2/predict"}`) != 1 {
		t.Error("binary predict wire count != 1")
	}
	if get(`cs2p_http_wire_requests_total{format="binary",route="/v2/batch"}`) != 1 {
		t.Error("binary batch wire count != 1")
	}
	// Batch-size histogram saw exactly one 3-op batch.
	if get(`cs2p_http_batch_ops_count`) != 1 {
		t.Error("batch ops histogram count != 1")
	}
	if get(`cs2p_http_batch_ops_sum`) != 3 {
		t.Error("batch ops histogram sum != 3")
	}
	// Payload byte counters moved in both directions.
	if get(`cs2p_http_bytes_in_total`) <= 0 {
		t.Error("bytes-in counter did not move")
	}
	if get(`cs2p_http_bytes_out_total`) <= 0 {
		t.Error("bytes-out counter did not move")
	}
	// Engine layer.
	if get(`cs2p_engine_sessions_started_total`) != 2 {
		t.Error("sessions started != 2")
	}
	if get(`cs2p_engine_sessions_active`) != 1 {
		t.Error("active sessions gauge != 1 after one EndSession")
	}
	// Sharded-store balance: one gauge per shard, summing to the active
	// total, plus the skew summary. With 1 session across 4 shards, skew
	// (max over mean occupancy) is exactly 4.
	var shardSum float64
	shardSamples := 0
	for _, s := range samples {
		if s.Name == "cs2p_engine_shard_sessions" {
			shardSum += s.Value
			shardSamples++
		}
	}
	if shardSamples != 4 {
		t.Errorf("found %d cs2p_engine_shard_sessions series, want 4 (one per shard)", shardSamples)
	}
	if shardSum != get(`cs2p_engine_sessions_active`) {
		t.Errorf("shard gauges sum to %v, want the active total %v", shardSum, get(`cs2p_engine_sessions_active`))
	}
	if got := get(`cs2p_engine_shard_skew_ratio`); got != 4 {
		t.Errorf("shard skew = %v, want 4 (one session on one of four shards)", got)
	}
	// Prediction-quality pipeline: per-epoch APE split by phase, cluster
	// hit/fallback, posterior entropy. 10 JSON epochs plus the one binary
	// observe (the batch's observe hit an ended session, so no epoch).
	if get(`cs2p_prediction_epochs_total`) != 11 {
		t.Error("epochs != 11")
	}
	if get(`cs2p_prediction_ape_count{phase="initial"}`) != 2 {
		t.Error("initial-phase APE count != 2 (one per session)")
	}
	if get(`cs2p_prediction_ape_count{phase="midstream"}`) != 9 {
		t.Error("midstream-phase APE count != 9")
	}
	hit, _ := obs.SampleValue(samples, `cs2p_prediction_cluster_total{source="cluster"}`)
	fb, _ := obs.SampleValue(samples, `cs2p_prediction_cluster_total{source="global"}`)
	if hit+fb != 2 {
		t.Errorf("cluster hit (%v) + global fallback (%v) != sessions started", hit, fb)
	}
	if get(`cs2p_prediction_posterior_entropy_bits_count`) != 11 {
		t.Error("entropy observations != epochs")
	}
}

// TestSessionChurnAccounting churns whole sessions (start, two observes, QoE
// log) over HTTP against a small log ring and checks the leak invariants from
// /metrics scrapes taken before and after: the active-session gauge is back at
// its baseline, every start has its end, and the log-eviction counter accounts
// exactly for the logs pushed minus the logs the ring retained.
func TestSessionChurnAccounting(t *testing.T) {
	const sessions, maxLogs = 30, 8
	ts, svc := metricsServer(t, maxLogs)
	defer ts.Close()
	c := NewClient(ts.URL)

	scrape := func() map[string]float64 {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		samples, err := obs.ParseText(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, name := range []string{
			"cs2p_engine_sessions_active",
			"cs2p_engine_sessions_started_total",
			"cs2p_engine_sessions_ended_total",
			"cs2p_engine_log_evictions_total",
		} {
			v, ok := obs.SampleValue(samples, name)
			if !ok {
				t.Fatalf("scrape is missing %s", name)
			}
			out[name] = v
		}
		return out
	}

	before := scrape()
	for i := 0; i < sessions; i++ {
		s := envTest.Sessions[i%len(envTest.Sessions)]
		id := fmt.Sprintf("churn-%d", i)
		if _, err := c.StartSession(id, s.Features, s.StartUnix); err != nil {
			t.Fatal(err)
		}
		for _, w := range s.Throughput[:2] {
			if _, err := c.ObserveAndPredict(id, w, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Log(engine.SessionLog{SessionID: id, QoE: 1}); err != nil {
			t.Fatal(err)
		}
	}
	after := scrape()
	delta := func(name string) float64 { return after[name] - before[name] }

	if got, base := after["cs2p_engine_sessions_active"], before["cs2p_engine_sessions_active"]; got != base {
		t.Errorf("active sessions %v after the churn, want the baseline %v", got, base)
	}
	if started, ended := delta("cs2p_engine_sessions_started_total"), delta("cs2p_engine_sessions_ended_total"); started != sessions || ended != sessions {
		t.Errorf("started %v, ended %v; want %d each", started, ended, sessions)
	}
	retained := len(svc.Logs())
	if retained > maxLogs {
		t.Errorf("log ring holds %d, above its cap %d", retained, maxLogs)
	}
	if got, want := delta("cs2p_engine_log_evictions_total"), float64(sessions-retained); got != want {
		t.Errorf("log evictions %v, want ended (%d) - retained (%d) = %v", got, sessions, retained, want)
	}
}

// TestRequestIDPropagation checks the trace header contract: a client-sent
// id is always echoed back, but the server only MINTS ids when request
// tracing is on — with tracing off a minted id joins nothing and its
// allocation is pure hot-path overhead (the metrics-overhead benchmark
// floor depends on this).
func TestRequestIDPropagation(t *testing.T) {
	ts, _ := metricsServer(t, 0)
	defer ts.Close()
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/healthz", nil)
	req.Header.Set(obs.RequestIDHeader, "my-trace-id")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "my-trace-id" {
		t.Errorf("request id echoed as %q", got)
	}
	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "" {
		t.Errorf("tracing off: request id %q minted, want none", got)
	}

	// With tracing on, absent ids are minted (16 hex chars).
	ensureEnv()
	svc := engine.NewService(envEngine, envCfg, video.Default())
	srv := NewServer(svc, nil)
	srv.SetLogf(func(string, ...any) {})
	srv.SetTraceRequests(true)
	ts2 := httptest.NewServer(srv.Handler())
	defer ts2.Close()
	resp, err = http.Get(ts2.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); len(got) != 16 {
		t.Errorf("tracing on: minted request id %q, want 16 hex chars", got)
	}
}

// TestTraceRequestLogging turns on request tracing and checks the per-stage
// summary line reaches the server's logger with the request id.
func TestTraceRequestLogging(t *testing.T) {
	ensureEnv()
	svc := engine.NewService(envEngine, envCfg, video.Default())
	srv := NewServer(svc, nil)
	var lines []string
	srv.SetLogf(func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	})
	srv.SetTraceRequests(true)
	ts2 := httptest.NewServer(srv.Handler())
	defer ts2.Close()
	c := NewClient(ts2.URL)
	s := envTest.Sessions[0]
	if _, err := c.StartSession("tr-1", s.Features, s.StartUnix); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ObserveAndPredict("tr-1", 2.0, 1); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, l := range lines {
		if strings.Contains(l, "/v1/predict") && strings.Contains(l, "rid=") &&
			strings.Contains(l, "decode=") && strings.Contains(l, "predict=") {
			found = true
		}
	}
	if !found {
		t.Errorf("no trace summary line for /v1/predict; logs: %q", lines)
	}
}

// BenchmarkPredictRoundTrip measures the full client->server observe+predict
// round trip with the metrics middleware off and on; the acceptance bar is
// <5% overhead for the instrumented path.
func BenchmarkPredictRoundTrip(b *testing.B) {
	ensureEnv()
	run := func(b *testing.B, withMetrics bool) {
		svc := engine.NewService(envEngine, envCfg, video.Default())
		srv := NewServer(svc, nil)
		srv.SetLogf(func(string, ...any) {})
		if withMetrics {
			reg := obs.NewRegistry()
			svc.SetMetrics(reg)
			srv.SetMetrics(reg)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		c := NewClient(ts.URL)
		s := envTest.Sessions[0]
		if _, err := c.StartSession("bench", s.Features, s.StartUnix); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.ObserveAndPredict("bench", 2.5, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("metrics=off", func(b *testing.B) { run(b, false) })
	b.Run("metrics=on", func(b *testing.B) { run(b, true) })
}

// TestRouteLabelsCoverServedRoutes: every route the server (or a router on
// the same stack) serves is its own `route` label on a scrape — intake's 429s
// and every handoff call can be told apart — while a session id never becomes
// a label value and unserved paths stay "other".
func TestRouteLabelsCoverServedRoutes(t *testing.T) {
	ensureEnv()
	reg := obs.NewRegistry()
	srv := NewServer(engine.NewService(envEngine, envCfg, video.Default()), nil)
	srv.SetLogf(func(string, ...any) {})
	srv.SetMetrics(reg)
	srv.Handle("GET /v1/admin/replicas", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)

	ctx := context.Background()
	s := envTest.Sessions[0]
	for _, id := range []string{"lbl-1", "lbl-2"} {
		if _, err := c.StartSession(id, s.Features, s.StartUnix); err != nil {
			t.Fatal(err)
		}
		st, err := c.ExportSession(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.ImportSession(ctx, st); err != nil {
			t.Fatal(err)
		}
		if err := c.ForgetSession(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SetDraining(ctx, false); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/ingest", "/v1/admin/replicas", "/v1/session/a/b/state", "/v1/nowhere"} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if path == "/v1/ingest" {
			req, _ = http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader("{}"))
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		`cs2p_http_requests_total{code="400",route="/v1/ingest"}`:             1, // no sessions in the body
		`cs2p_http_requests_total{code="204",route="/v1/admin/drain"}`:        1,
		`cs2p_http_requests_total{code="200",route="/v1/admin/replicas"}`:     1,
		`cs2p_http_requests_total{code="200",route="/v1/session/{id}/state"}`: 2,
		`cs2p_http_requests_total{code="204",route="/v1/session/{id}/state"}`: 4,
		`cs2p_http_requests_total{code="404",route="other"}`:                  2,
	} {
		if got, _ := obs.SampleValue(samples, key); got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
		}
	}
	for _, sm := range samples {
		if strings.Contains(sm.Key(), "lbl-") {
			t.Errorf("a session id is a label value: %s", sm.Key())
		}
	}
}
