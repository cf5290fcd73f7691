package router

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cs2p/internal/engine"
	"cs2p/internal/httpapi"
	"cs2p/internal/obs"
	"cs2p/internal/trace"
	"cs2p/internal/wire"
)

// TestRouterHTTPSurface: a player pointed at the router uses the exact
// single-replica API — JSON v1, readiness, and the binary v2 protocol —
// and gets cluster-fault-tolerant service without knowing it.
func TestRouterHTTPSurface(t *testing.T) {
	reg := obs.NewRegistry()
	c := newStubCluster(t, Config{Metrics: reg}, 1, 1, 1)
	c.rt.ProbeAll(context.Background())
	front := httptest.NewServer(c.rt.Handler())
	defer front.Close()
	cl := httpapi.NewClient(front.URL)

	// Readiness reports the tier: all replicas live, versions converged.
	hr, err := cl.Readiness(context.Background())
	if err != nil {
		t.Fatalf("readiness: %v", err)
	}
	if hr.Status != httpapi.HealthzOK {
		t.Fatalf("status %q, want %q", hr.Status, httpapi.HealthzOK)
	}
	if hr.ModelVersion != 1 {
		t.Fatalf("readiness model_version %d, want the converged 1", hr.ModelVersion)
	}

	// JSON v1 round trip.
	f := trace.Features{ISP: "isp", Province: "p"}
	if _, err := cl.StartSession("http-1", f, 0); err != nil {
		t.Fatalf("start: %v", err)
	}
	pred, err := cl.ObserveAndPredict("http-1", 2, 1)
	if err != nil {
		t.Fatalf("observe: %v", err)
	}
	if pred != 3 { // 2 + horizon 1
		t.Fatalf("prediction %g, want 3", pred)
	}
	if pred, err = cl.PredictAt("http-1", 5); err != nil || pred != 7 {
		t.Fatalf("predict = %g, %v; want 7", pred, err)
	}

	// Binary v2 round trip through the same frontend.
	cl.SetWireBinary(true)
	if pred, err = cl.ObserveAndPredict("http-1", 3, 1); err != nil || pred != 6 {
		t.Fatalf("binary observe = %g, %v; want 6", pred, err)
	}

	// A batch spanning sessions homed on different replicas splits, forwards
	// per group, and merges index-aligned.
	ids := []string{"http-1"}
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("http-b%d", i)
		if _, err := cl.StartSession(id, f, 0); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	homes := map[string]bool{}
	for _, id := range ids {
		h, _ := c.rt.SessionHome(id)
		homes[h] = true
	}
	if len(homes) < 2 {
		t.Fatalf("9 sessions on %d replica(s); batch split is untested", len(homes))
	}
	ops := make([]wire.Op, len(ids))
	for i, id := range ids {
		ops[i] = wire.Op{SessionID: []byte(id), ObservedMbps: 10, Horizon: 2, HasObserve: true}
	}
	ops = append(ops, wire.Op{SessionID: []byte("nobody"), Horizon: 1})
	res, _, err := cl.Batch(ops)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if res[0].Code != wire.OpOK || res[0].PredictionMbps != 17 { // 2+3+10 + horizon 2
		t.Fatalf("op 0 = %+v, want OK/17", res[0])
	}
	for i := 1; i < len(ids); i++ {
		if res[i].Code != wire.OpOK || res[i].PredictionMbps != 12 { // 10 + horizon 2
			t.Fatalf("op %d = %+v, want OK/12", i, res[i])
		}
	}
	if res[len(ops)-1].Code != wire.OpUnknownSession {
		t.Fatalf("unknown-session op = %+v, want code %d", res[len(ops)-1], wire.OpUnknownSession)
	}

	// Kill one replica that homes batch sessions: the next batch recovers
	// those ops per-op (migrate + replay) and still succeeds whole.
	var victim string
	for h := range homes {
		victim = h
	}
	c.kill(victim)
	res, _, err = cl.Batch(ops[:len(ids)])
	if err != nil {
		t.Fatalf("batch across dead replica: %v", err)
	}
	if res[0].Code != wire.OpOK || res[0].PredictionMbps != 27 { // 2+3+10+10 + 2
		t.Fatalf("op 0 after kill = %+v, want OK/27", res[0])
	}
	for i := 1; i < len(ids); i++ {
		if res[i].Code != wire.OpOK || res[i].PredictionMbps != 22 { // 10+10 + 2
			t.Fatalf("op %d after kill = %+v, want OK/22", i, res[i])
		}
	}

	// QoE log and session teardown.
	cl.SetWireBinary(false)
	if err := cl.Log(engine.SessionLog{SessionID: "http-1", QoE: 4}); err != nil {
		t.Fatalf("log: %v", err)
	}
}

// TestRouterHealthzNotReady: the router's own readiness endpoint goes 503
// once every replica is down — the signal a load balancer above a router
// pair needs.
func TestRouterHealthzNotReady(t *testing.T) {
	c := newStubCluster(t, Config{}, 1, 1)
	front := httptest.NewServer(c.rt.Handler())
	defer front.Close()
	for _, n := range c.names {
		c.kill(n)
	}
	for i := 0; i < 3; i++ { // drive everyone to down
		c.rt.ProbeAll(context.Background())
	}
	cl := httpapi.NewClient(front.URL)
	hr, err := cl.Readiness(context.Background())
	if httpapi.HTTPStatus(err) != http.StatusServiceUnavailable {
		t.Fatalf("readiness err = %v, want 503", err)
	}
	if hr.Status != httpapi.HealthzNoModel {
		t.Fatalf("payload status %q, want %q", hr.Status, httpapi.HealthzNoModel)
	}
}

// TestRouterModelProxy: GET /v1/model forwards to a live replica with query
// and conditional-request headers intact, and falls back across dead
// replicas.
func TestRouterModelProxy(t *testing.T) {
	const body = `{"version":7}`
	model := func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/model" {
			http.NotFound(w, r)
			return
		}
		if r.Header.Get("If-None-Match") == `"v7"` {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("ETag", `"v7"`)
		fmt.Fprint(w, body)
	}
	up := httptest.NewServer(http.HandlerFunc(model))
	defer up.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused

	rt, err := New(Config{Replicas: []string{dead.URL, up.URL}, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp, err := http.Get(front.URL + "/v1/model?cluster=3")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(b)) != body {
		t.Fatalf("proxied model: %d %q, want 200 %q", resp.StatusCode, b, body)
	}
	if et := resp.Header.Get("ETag"); et != `"v7"` {
		t.Fatalf("ETag %q not relayed", et)
	}

	req, _ := http.NewRequest(http.MethodGet, front.URL+"/v1/model", nil)
	req.Header.Set("If-None-Match", `"v7"`)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional fetch: %d, want 304", resp.StatusCode)
	}
}

// TestRouterModelProxySkipsFailingReplica: a replica answering the model
// export with a 5xx has failed like on any other upstream call — counted,
// fed to the health machine as a failure, and the next replica asked — while
// a refusal (501: no local model surface) is the replica's answer and is
// relayed as it came.
func TestRouterModelProxySkipsFailingReplica(t *testing.T) {
	var status atomic.Int32
	status.Store(http.StatusServiceUnavailable)
	sick := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, int(status.Load()), httpapi.ErrorBody{Error: "no"})
	}))
	up := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"version":7}`)
	}))
	// The proxy walks the members in name order: the sick one must sort first.
	if sick.Listener.Addr().String() > up.Listener.Addr().String() {
		sick.Config.Handler, up.Config.Handler = up.Config.Handler, sick.Config.Handler
		sick, up = up, sick
	}
	sick.Start()
	defer sick.Close()
	up.Start()
	defer up.Close()
	reg := obs.NewRegistry()
	rt, err := New(Config{Replicas: []string{sick.URL, up.URL}, Metrics: reg, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	get := func() (int, string) {
		resp, err := http.Get(front.URL + "/v1/model")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, strings.TrimSpace(string(b))
	}
	errors := reg.Counter("cs2p_router_requests_total", "", obs.Labels{"replica": sick.URL, "outcome": "error"})

	if code, body := get(); code != http.StatusOK || body != `{"version":7}` {
		t.Fatalf("model behind a 503 replica: %d %q, want the next replica's 200", code, body)
	}
	if got := errors.Value(); got != 1 {
		t.Errorf("the 503 was counted as %v failed calls, want 1", got)
	}
	if st := rt.ReplicaStates()[sick.URL]; st == StateHealthy {
		t.Errorf("the 503 replica is still %v: its failure fed the health machine nothing", st)
	}
	status.Store(http.StatusNotImplemented)
	if code, body := get(); code != http.StatusNotImplemented || !strings.Contains(body, `"no"`) {
		t.Errorf("a replica's 501: %d %q, want it relayed", code, body)
	}
}

// TestRouterMetricsScrape: the instruments named in the README's metrics
// reference actually appear on /metrics with the values the scenario
// implies. Scraped through the real handler and the repo's own parser, so a
// rename in either place fails here.
func TestRouterMetricsScrape(t *testing.T) {
	reg := obs.NewRegistry()
	c := newStubCluster(t, Config{Metrics: reg}, 1, 1, 1)
	c.rt.ProbeAll(context.Background())
	front := httptest.NewServer(c.rt.Handler())
	defer front.Close()
	cl := httpapi.NewClient(front.URL)

	// One ordinary session plus one forced failover.
	if _, err := cl.StartSession("m-1", trace.Features{ISP: "i"}, 0); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 3; k++ {
		if _, err := cl.ObserveAndPredict("m-1", float64(k), 1); err != nil {
			t.Fatal(err)
		}
	}
	home, _ := c.rt.SessionHome("m-1")
	c.kill(home)
	if _, err := cl.ObserveAndPredict("m-1", 4, 1); err != nil {
		t.Fatalf("failover observe: %v", err)
	}

	resp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("metrics output failed to parse: %v", err)
	}
	vals := make(map[string]float64, len(samples))
	for _, s := range samples {
		vals[s.Key()] = s.Value
	}

	for _, n := range c.names {
		key := fmt.Sprintf(`cs2p_router_replica_state{replica=%q}`, n)
		v, ok := vals[key]
		if !ok {
			t.Fatalf("missing %s", key)
		}
		if n == home && v == float64(StateHealthy) {
			t.Errorf("killed replica %s still scored healthy", n)
		}
	}
	if v := vals["cs2p_router_failovers_total"]; v < 1 {
		t.Errorf("cs2p_router_failovers_total = %g after a forced failover", v)
	}
	if _, ok := vals["cs2p_router_replayed_observations_total"]; ok {
		t.Error("cs2p_router_replayed_observations_total still exported; replay is gone")
	}
	if _, ok := vals["cs2p_router_model_skew"]; !ok {
		t.Error("missing cs2p_router_model_skew")
	}
	if v := vals["cs2p_router_sessions"]; v != 1 {
		t.Errorf("cs2p_router_sessions = %g, want 1", v)
	}
	okReqs := 0.0
	for _, n := range c.names {
		okReqs += vals[fmt.Sprintf(`cs2p_router_requests_total{outcome="ok",replica=%q}`, n)]
	}
	if okReqs < 4 {
		t.Errorf("summed ok requests = %g, want >= 4", okReqs)
	}
	probeOK := 0.0
	for _, n := range c.names {
		probeOK += vals[fmt.Sprintf(`cs2p_router_probes_total{replica=%q,result="ok"}`, n)]
	}
	if probeOK != 3 {
		t.Errorf("ok probes = %g, want 3 (one round, all live)", probeOK)
	}
}

// TestRouterConcurrentFailover hammers the router from many goroutines
// while a replica dies mid-run. Run under -race this is the memory-safety
// gate; the sum-backend makes it a correctness gate too — every session's
// final prediction must equal its full observation sum exactly, meaning no
// observation was lost or double-applied across the migrations.
func TestRouterConcurrentFailover(t *testing.T) {
	c := newStubCluster(t, Config{}, 1, 1, 1)
	const (
		workers = 8
		perW    = 4
		obsN    = 20
	)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		failures []string
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	killAt := obsN / 2
	var killOnce sync.Once
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := 0; s < perW; s++ {
				id := fmt.Sprintf("conc-%d-%d", w, s)
				if _, err := c.rt.Start(id, trace.Features{ISP: "i"}, 0); err != nil {
					fail("start %s: %v", id, err)
					return
				}
				want := 0.0
				for k := 1; k <= obsN; k++ {
					if k == killAt && w == 0 && s == 0 {
						// One worker pulls the plug mid-playback; every
						// other goroutine is in flight somewhere.
						killOnce.Do(func() { c.kill(c.names[0]) })
					}
					want += float64(k)
					pred, err := c.rt.ObserveAndPredict(id, float64(k), 1)
					if err != nil {
						fail("observe %s #%d: %v", id, k, err)
						return
					}
					if math.Abs(pred-(want+1)) > 1e-9 {
						fail("session %s #%d: prediction %g, want %g", id, k, pred, want+1)
						return
					}
				}
				c.rt.EndSession(engine.SessionLog{SessionID: id, QoE: 1})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("concurrent failover run wedged")
	}
	for _, f := range failures {
		t.Error(f)
	}
	if len(failures) == 0 {
		// Every session ended; the routing table must be empty.
		if n := c.rt.Health().Sessions; n != 0 {
			t.Errorf("%d sessions still routed after all ended", n)
		}
	}
}
