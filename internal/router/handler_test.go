package router

import (
	"context"
	"encoding/json"
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

	"cs2p/internal/core"
	"cs2p/internal/engine"
	"cs2p/internal/httpapi"
	"cs2p/internal/obs"
	"cs2p/internal/registry"
	"cs2p/internal/trace"
	"cs2p/internal/video"
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

// TestHandlerRefusals: one stack serves every route on a replica and on a
// router, and the refusals its ServeMux owns behind the fixed-path index are
// pinned here — every served path answers a wrong method 405 with its exact
// Allow list, GET routes answer HEAD, an unknown path is 404, an escaped
// {id} segment reaches the state handlers as one id — as are the /v2/
// catch-all's MsgError frames (GET /v2/stream's other methods included, and
// its 426 without the upgrade), each under its route label on a scrape.
func TestHandlerRefusals(t *testing.T) {
	cluster := newRealCluster(t, 2, nil)
	regy, err := registry.Open(chaosRegDir)
	if err != nil {
		t.Fatal(err)
	}
	art, err := regy.Latest()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := engine.NewServiceFromArtifact(art, chaosCfg, video.Default(), engine.ServiceOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	replicaReg := obs.NewRegistry()
	replica := httpapi.NewServer(svc, (*core.Engine).Store)
	replica.SetLogf(func(string, ...any) {})
	replica.SetMetrics(replicaReg)
	replicaTS := httptest.NewServer(replica.Handler())
	defer replicaTS.Close()

	// A session whose id needs escaping in a path: its exported state is
	// what both targets are asked to import under /v1/session/a%2Fb/state.
	ctx := context.Background()
	rc := httpapi.NewClient(replicaTS.URL)
	s := chaosTest.Sessions[0]
	if _, err := rc.StartSession("a/b", s.Features, s.StartUnix); err != nil {
		t.Fatal(err)
	}
	st, err := rc.ExportSession(ctx, "a/b")
	if err != nil || st.SessionID != "a/b" {
		t.Fatalf("export of a/b: id %q, %v", st.SessionID, err)
	}

	allow := map[string]string{
		"/v1/session/start":   "POST",
		"/v1/predict":         "POST",
		"/v1/log":             "POST",
		"/v1/ingest":          "POST",
		"/v1/model":           "GET, HEAD",
		"/v1/session/x/state": "DELETE, GET, HEAD, PUT",
		"/v1/admin/models":    "GET, HEAD",
		"/v1/admin/rollback":  "POST",
		"/v1/admin/drain":     "POST",
		"/v1/healthz":         "GET, HEAD",
		"/metrics":            "GET, HEAD",
	}
	for _, tc := range []struct {
		name, base string
		reg        *obs.Registry
		extra      map[string]string
	}{
		{"replica", replicaTS.URL, replicaReg, nil},
		{"router", cluster.front.URL, cluster.reg, map[string]string{"/v1/admin/replicas": "GET, HEAD, POST"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			do := func(method, path, contentType string) (*http.Response, []byte) {
				t.Helper()
				req, _ := http.NewRequest(method, tc.base+path, nil)
				if contentType != "" {
					req.Header.Set("Content-Type", contentType)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				body, _ := io.ReadAll(resp.Body)
				return resp, body
			}
			wrong := 0
			for _, routes := range []map[string]string{allow, tc.extra} {
				for path, want := range routes {
					resp, _ := do(http.MethodPatch, path, "")
					if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != want {
						t.Errorf("PATCH %s: %d Allow %q, want 405 Allow %q", path, resp.StatusCode, resp.Header.Get("Allow"), want)
					}
					wrong++
				}
			}
			if resp, body := do(http.MethodHead, "/v1/healthz", ""); resp.StatusCode != http.StatusOK || len(body) != 0 {
				t.Errorf("HEAD /v1/healthz: %d with %d body bytes, want 200 and none", resp.StatusCode, len(body))
			}
			if resp, _ := do(http.MethodGet, "/v1/nowhere", ""); resp.StatusCode != http.StatusNotFound {
				t.Errorf("GET /v1/nowhere: %d, want 404", resp.StatusCode)
			}
			// The payload's session_id must equal the URL's: 204 means the
			// handler read the id as a/b.
			if err := httpapi.NewClient(tc.base).ImportSession(ctx, st); err != nil {
				t.Errorf("PUT /v1/session/a%%2Fb/state: %v", err)
			}
			for _, v2 := range []struct {
				method, path string
				want         int
			}{
				{http.MethodGet, "/v2/observe", http.StatusMethodNotAllowed},
				{http.MethodPost, "/v2/nope", http.StatusNotFound},
				{http.MethodPost, "/v2/stream", http.StatusMethodNotAllowed},
				{http.MethodPatch, "/v2/stream", http.StatusMethodNotAllowed},
				{http.MethodGet, "/v2/stream", http.StatusUpgradeRequired}, // no Upgrade: cs2p-wire
			} {
				resp, body := do(v2.method, v2.path, wire.ContentType)
				f, err := wire.DecodeFrame(body, wire.DefaultLimits())
				if err != nil || f.Type != wire.MsgError || resp.StatusCode != v2.want {
					t.Errorf("%s %s: %d (%v), want %d and a MsgError frame", v2.method, v2.path, resp.StatusCode, err, v2.want)
				} else if code, _, _ := wire.DecodeError(f.Payload); code != v2.want {
					t.Errorf("%s %s: frame carries %d, want %d", v2.method, v2.path, code, v2.want)
				}
			}

			resp, body := do(http.MethodGet, "/metrics", "")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/metrics: %d", resp.StatusCode)
			}
			samples, err := obs.ParseText(strings.NewReader(string(body)))
			if err != nil {
				t.Fatal(err)
			}
			for key, want := range map[string]float64{
				`cs2p_http_requests_total{code="405",route="other"}`:                  float64(wrong),
				`cs2p_http_requests_total{code="200",route="/v1/healthz"}`:            1,
				`cs2p_http_requests_total{code="404",route="other"}`:                  1,
				`cs2p_http_requests_total{code="204",route="/v1/session/{id}/state"}`: 1,
				`cs2p_http_requests_total{code="405",route="/v2/"}`:                   3,
				`cs2p_http_requests_total{code="404",route="/v2/"}`:                   1,
				`cs2p_http_requests_total{code="426",route="/v2/stream"}`:             1,
			} {
				if got, _ := obs.SampleValue(samples, key); got != want {
					t.Errorf("%s = %v, want %v", key, got, want)
				}
			}
		})
	}
}

// TestRouterAbandonedModelFetchIsNoEvidence: a player that gives up on a
// model fetch ends the router's walk over the members, and its abandoned
// call counts against no replica. Three players leaving after 10 ms, from
// two replicas 50 ms away, used to cost each replica three failures: both
// Down.
func TestRouterAbandonedModelFetchIsNoEvidence(t *testing.T) {
	const latency = 50 * time.Millisecond
	c := newRealCluster(t, 2, nil)
	for _, n := range c.names {
		c.gate.SetHostLatency(strings.TrimPrefix(n, "http://"), latency)
	}
	impatient := &http.Client{Timeout: 10 * time.Millisecond}
	for i := 0; i < 3; i++ {
		if resp, err := impatient.Get(c.front.URL + "/v1/model?isp=x"); err == nil {
			resp.Body.Close()
			t.Fatal("a fetch from 50 ms replicas finished inside 10 ms")
		}
	}
	inFlight := c.reg.Gauge("cs2p_http_in_flight", "", nil)
	for deadline := time.Now().Add(5 * time.Second); inFlight.Value() > 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%v model proxies still running", inFlight.Value())
		}
	}
	// The gauge falls when a response is written; a walk over both members
	// that outlived its response must have ended by now too.
	time.Sleep(2 * latency)
	for n, st := range c.rt.ReplicaStates() {
		if st != StateHealthy {
			t.Errorf("replica %s is %v after players abandoned their fetches, want healthy", n, st)
		}
	}
	var errors uint64
	for _, n := range c.names {
		errors += c.reg.Counter("cs2p_router_requests_total", "", obs.Labels{"replica": n, "outcome": "error"}).Value()
	}
	if errors != 0 {
		t.Errorf("%v abandoned calls counted as errors, want 0", errors)
	}
}

// TestRouterAdminDrainOutlivesRequestTimeout: RequestTimeout bounds only how
// long a body may take to arrive, so an admin drain longer than it runs to
// the end on a live context and answers when done. Behind the TimeoutHandler
// the control plane once had, this drain got a 503 at 100 ms, its remaining
// handoffs failed on the dead context, and those failures marked both
// healthy successors Down.
func TestRouterAdminDrainOutlivesRequestTimeout(t *testing.T) {
	c := newRealCluster(t, 3, nil)
	cfg := httpapi.DefaultServerConfig()
	cfg.RequestTimeout = 100 * time.Millisecond
	c.rt.srvOnce().SetConfig(cfg)
	front := httptest.NewServer(c.rt.Handler())
	defer front.Close()

	source := c.names[0]
	s := chaosTest.Sessions[0]
	homed := 0
	for i := 0; homed < 20; i++ {
		id := fmt.Sprintf("drain-%d", i)
		if _, err := c.rt.Start(id, s.Features, s.StartUnix); err != nil {
			t.Fatal(err)
		}
		if home, _ := c.rt.SessionHome(id); home == source {
			homed++
		}
	}
	for _, n := range c.names[1:] {
		c.gate.SetHostLatency(strings.TrimPrefix(n, "http://"), 15*time.Millisecond)
	}
	started := time.Now()
	resp, err := http.Post(front.URL+"/v1/admin/replicas", "application/json",
		strings.NewReader(fmt.Sprintf(`{"action":"drain","replica":%q}`, source)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out ReplicaAdminResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK || out.Drain == nil {
		t.Fatalf("drain: %d %+v (%v), want 200 with a tally", resp.StatusCode, out, err)
	}
	if took := time.Since(started); took < cfg.RequestTimeout {
		t.Fatalf("the drain took %v, not longer than RequestTimeout: the test proves nothing", took)
	}
	if *out.Drain != (DrainResult{Warm: homed}) {
		t.Errorf("drain tally %+v, want all %d sessions warm", *out.Drain, homed)
	}
	for _, n := range c.names[1:] {
		if st := c.rt.ReplicaStates()[n]; st != StateHealthy {
			t.Errorf("successor %s is %v after the drain, want healthy", n, st)
		}
	}
}
