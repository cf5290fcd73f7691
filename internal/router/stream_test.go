package router

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cs2p/internal/core"
	"cs2p/internal/engine"
	"cs2p/internal/httpapi"
	"cs2p/internal/obs"
	"cs2p/internal/registry"
	"cs2p/internal/video"
	"cs2p/internal/wire"
)

// chaosService is a fresh engine over the chaos artifact: a replica's
// backend, or the undisturbed twin a recovered session is held to.
func chaosService(t *testing.T) *engine.Service {
	t.Helper()
	ensureChaosEnv(t)
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
	return svc
}

// liveReplica is an artifact-served replica whose listener keeps every
// connection it accepts, so a test can kill it outright — listener and
// connections, hijacked streams included, with no fault gate anywhere — and
// restart it, empty, on the same address.
type liveReplica struct {
	t        *testing.T
	url      string
	ts       *httptest.Server
	upgrades atomic.Uint64
	mu       sync.Mutex
	conns    []net.Conn
}

type keepListener struct {
	net.Listener
	r *liveReplica
}

func (l keepListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.r.mu.Lock()
		l.r.conns = append(l.r.conns, c)
		l.r.mu.Unlock()
	}
	return c, err
}

func startLiveReplica(t *testing.T) *liveReplica {
	r := &liveReplica{t: t}
	r.start("127.0.0.1:0")
	r.url = r.ts.URL
	return r
}

func (r *liveReplica) start(addr string) {
	r.t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		r.t.Fatal(err)
	}
	srv := httpapi.NewServer(chaosService(r.t), (*core.Engine).Store)
	srv.SetLogf(func(string, ...any) {})
	srv.SetMetrics(obs.NewRegistry())
	h := srv.Handler()
	r.upgrades.Store(0)
	count := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/v2/stream" {
			r.upgrades.Add(1)
		}
		h.ServeHTTP(w, req)
	})
	r.ts = &httptest.Server{Listener: keepListener{ln, r}, Config: &http.Server{Handler: count}}
	r.ts.Start()
	r.t.Cleanup(r.ts.Close)
}

// kill is the process dying: nothing accepts, and every connection it had
// is cut.
func (r *liveReplica) kill() {
	_ = r.ts.Listener.Close()
	r.mu.Lock()
	for _, c := range r.conns {
		_ = c.Close()
	}
	r.conns = nil
	r.mu.Unlock()
}

// restart kills the replica and boots a fresh one — no sessions — where it
// was.
func (r *liveReplica) restart() {
	r.kill()
	r.start(strings.TrimPrefix(r.url, "http://"))
}

// streams is how many streams the current process has upgraded, counted as
// each upgrade arrives. The 101's own metric is recorded only once the
// response is out, so a busy scheduler can keep it behind a client already
// serving ops on the stream.
func (r *liveReplica) streams() uint64 { return r.upgrades.Load() }

// twin drives one session through the router and its undisturbed twin
// through a direct engine, and requires every prediction and the final
// filter state bit-identical: recovery is exact or it is wrong.
type twin struct {
	t    *testing.T
	rt   *Router
	id   string
	ref  *engine.Service
	next int
}

func newTwin(t *testing.T, rt *Router, id string) *twin {
	s := chaosPick(t)[0]
	ref := chaosService(t)
	ref.StartSession(id, s.Features, s.StartUnix)
	if _, err := rt.Start(id, s.Features, s.StartUnix); err != nil {
		t.Fatal(err)
	}
	return &twin{t: t, rt: rt, id: id, ref: ref}
}

func (tw *twin) observe(n int) {
	tw.t.Helper()
	for ; n > 0; n-- {
		w := chaosPick(tw.t)[0].Throughput[tw.next]
		tw.next++
		got, err := tw.rt.ObserveAndPredict(tw.id, w, 1)
		want, _ := tw.ref.ObserveAndPredict(tw.id, w, 1)
		if err != nil || got != want {
			tw.t.Fatalf("chunk %d: routed %v (%v), undisturbed %v", tw.next, got, err, want)
		}
	}
	home, _ := tw.rt.SessionHome(tw.id)
	got, err := httpapi.NewClient(home).ExportSession(context.Background(), tw.id)
	want, _ := tw.ref.ExportSession(tw.id)
	if err != nil || got.Epoch != want.Epoch || fmt.Sprint(got.Posterior) != fmt.Sprint(want.Posterior) {
		tw.t.Fatalf("after chunk %d: state epoch=%d post=%v (%v), undisturbed epoch=%d post=%v", tw.next, got.Epoch, got.Posterior, err, want.Epoch, want.Posterior)
	}
}

// TestStreamReplicaKilledMidStream: the replica a session's stream leads to
// dies for real — its listener and every connection closed, no gate. The
// next op's stream call fails with no status, so it is callFailed: counted
// as an error against the dead replica, and migrate recovers the session
// exactly onto the survivor.
func TestStreamReplicaKilledMidStream(t *testing.T) {
	if testing.Short() {
		t.Skip("boots trained replicas; slow for -short")
	}
	a, b := startLiveReplica(t), startLiveReplica(t)
	reg := obs.NewRegistry()
	rt, err := New(Config{Replicas: []string{a.url, b.url}, Metrics: reg, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	id := ""
	for i := 0; id == ""; i++ {
		if n := fmt.Sprintf("kill-%d", i); rt.mem.Ring().Sequence(n)[0] == a.url {
			id = n
		}
	}
	tw := newTwin(t, rt, id)
	tw.observe(5)
	if a.streams() != 1 {
		t.Fatalf("%v streams upgraded on the home replica, want 1", a.streams())
	}
	a.kill()
	tw.observe(1)
	if home, _ := rt.SessionHome(id); home != b.url {
		t.Fatalf("session homed on %s after its home died, want %s", home, b.url)
	}
	failed := reg.Counter("cs2p_router_requests_total", "", obs.Labels{"replica": a.url, "outcome": "error"}).Value()
	if failovers := reg.Counter("cs2p_router_failovers_total", "", nil).Value(); failed == 0 || failovers != 1 {
		t.Errorf("%d failed calls to the dead replica and %d failovers, want some and 1", failed, failovers)
	}
	tw.observe(5)
	if b.streams() != 1 {
		t.Errorf("%v streams upgraded on the survivor, want 1", b.streams())
	}
}

// TestStreamStaleAfterReplicaRestart: a pool of three streams outlives its
// replica's process, which restarts empty on the same address. The call
// written onto a stale stream fails — it is never retried, an observation is
// not idempotent — and takes the other two down with it, so the restart
// costs one failed call, not one per pooled stream, and the replica is not
// marked Down. An observe's session is re-installed exactly on the restarted
// replica by migrate, over a fresh stream that later ops reuse; a start lands
// on the next candidate, and the next start homed on the restarted replica
// dials one fresh stream.
func TestStreamStaleAfterReplicaRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("boots trained replicas; slow for -short")
	}
	// staleHome leaves three streams to a in rt's pool — three calls in
	// flight at once — then restarts a under them.
	staleHome := func(t *testing.T, rt *Router, a *liveReplica) {
		var held []io.Closer
		for i := 0; i < 3; i++ {
			probe := wire.AppendBatch(nil, []wire.Op{{SessionID: []byte("no-such-session"), Horizon: 1}})
			resp, err := rt.mem.replicas[a.url].streams.Post(a.url+"/v2/batch", wire.ContentType, bytes.NewReader(probe))
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, resp.Body)
		}
		for _, body := range held {
			_ = body.Close()
		}
		if a.streams() != 3 {
			t.Fatalf("%v streams upgraded, want a pool of 3", a.streams())
		}
		a.restart()
	}
	failedOnce := func(t *testing.T, rt *Router, reg *obs.Registry, a *liveReplica) {
		if got := reg.Counter("cs2p_router_requests_total", "", obs.Labels{"replica": a.url, "outcome": "error"}).Value(); got != 1 {
			t.Errorf("%d failed calls, want exactly the one written onto a stale stream", got)
		}
		if st := rt.ReplicaStates()[a.url]; st == StateDown {
			t.Errorf("the restarted replica is %v", st)
		}
	}
	t.Run("observe", func(t *testing.T) {
		a := startLiveReplica(t)
		reg := obs.NewRegistry()
		rt, err := New(Config{Replicas: []string{a.url}, Metrics: reg, Logf: func(string, ...any) {}})
		if err != nil {
			t.Fatal(err)
		}
		tw := newTwin(t, rt, "stale-1")
		tw.observe(3)
		staleHome(t, rt, a)
		tw.observe(1)
		failedOnce(t, rt, reg, a)
		if a.streams() != 1 {
			t.Errorf("%v streams upgraded on the restarted replica, want 1 fresh one", a.streams())
		}
		tw.observe(3)
		if a.streams() != 1 {
			t.Errorf("%v streams upgraded after more ops, want the fresh one reused", a.streams())
		}
	})
	t.Run("start", func(t *testing.T) {
		a, b := startLiveReplica(t), startLiveReplica(t)
		reg := obs.NewRegistry()
		rt, err := New(Config{Replicas: []string{a.url, b.url}, Metrics: reg, Logf: func(string, ...any) {}})
		if err != nil {
			t.Fatal(err)
		}
		var ids []string // ring-homed on a
		for i := 0; len(ids) < 2; i++ {
			if id := fmt.Sprintf("stale-start-%d", i); rt.mem.Ring().Sequence(id)[0] == a.url {
				ids = append(ids, id)
			}
		}
		s := chaosPick(t)[0]
		staleHome(t, rt, a)
		if _, err := rt.Start(ids[0], s.Features, s.StartUnix); err != nil {
			t.Fatal(err)
		}
		failedOnce(t, rt, reg, a)
		if home, _ := rt.SessionHome(ids[0]); home != b.url {
			t.Errorf("session started on %s, want the next candidate %s", home, b.url)
		}
		rt.ProbeAll(context.Background()) // a answers: Suspect → Healthy, placing sessions again
		if _, err := rt.Start(ids[1], s.Features, s.StartUnix); err != nil {
			t.Fatal(err)
		}
		if home, _ := rt.SessionHome(ids[1]); home != a.url || a.streams() != 1 {
			t.Errorf("next start homed on %s over %v streams upgraded there, want %s over 1 fresh one", home, a.streams(), a.url)
		}
	})
}

// TestStreamMetricsCountCallsNotStreams: over the stream, the router still
// counts one request per upstream call, and the replica counts every frame —
// a start, 7 observes and a log — under route /v2/stream on its wire-request
// family, each batch on the batch family, and the start and the log as the
// requests they are, on their own routes. Every byte is counted once: the
// byte counters read what the same session over plain HTTP has another
// replica count. The open stream is no request in flight and one 101 in the
// latency histogram, not a lifetime-long sample. A frame is counted before
// its reply is written, so the scrape that follows misses none.
func TestStreamMetricsCountCallsNotStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("boots trained replicas; slow for -short")
	}
	scrape := func(r *liveReplica) []obs.Sample {
		resp, err := http.Get(r.url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		samples, err := obs.ParseText(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return samples
	}
	a, h := startLiveReplica(t), startLiveReplica(t)
	reg := obs.NewRegistry()
	var rt *Router
	for _, cfg := range []Config{
		{Replicas: []string{h.url}, NewClient: httpapi.NewClient},
		{Replicas: []string{a.url}, Metrics: reg},
	} {
		cfg.Logf = func(string, ...any) {}
		var err error
		if rt, err = New(cfg); err != nil {
			t.Fatal(err)
		}
		tw := newTwin(t, rt, "metrics-1")
		tw.observe(7)
		rt.EndSession(engine.SessionLog{SessionID: "metrics-1"})
	}
	if got := reg.Counter("cs2p_router_requests_total", "", obs.Labels{"replica": a.url, "outcome": "ok"}).Value(); got != 1+7+1 {
		t.Errorf("router counted %d upstream calls, want 9 (a start, 7 observes, a log)", got)
	}
	samples, overHTTP := scrape(a), scrape(h)
	for key, want := range map[string]float64{
		`cs2p_http_wire_requests_total{format="binary",route="/v2/stream"}`: 9,
		`cs2p_http_batch_ops_count`:                                         7,
		`cs2p_http_requests_total{code="101",route="/v2/stream"}`:           1,
		`cs2p_http_request_seconds_count{route="/v2/stream"}`:               1,
		`cs2p_http_requests_total{code="200",route="/v1/session/start"}`:    1,
		`cs2p_http_requests_total{code="204",route="/v1/log"}`:              1,
		`cs2p_http_in_flight`:                                               1, // the scrape itself
	} {
		if got, _ := obs.SampleValue(samples, key); got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
		}
	}
	for _, key := range []string{`cs2p_http_bytes_in_total`, `cs2p_http_bytes_out_total`} {
		got, _ := obs.SampleValue(samples, key)
		if want, _ := obs.SampleValue(overHTTP, key); got != want || got == 0 {
			t.Errorf("%s = %v over the stream, %v over HTTP", key, got, want)
		}
	}
	if got, _ := obs.SampleValue(samples, `cs2p_http_request_seconds_sum{route="/v2/stream"}`); got > 0.5 {
		t.Errorf("the upgrade's latency sample is %vs: the stream's lifetime leaked into it", got)
	}
}

// TestRouterServeBatchAllocFloor pins the allocations of one routed op
// through the production carrier — router, upstream client, stream, replica
// handler and engine, all in this process — and of a batch over two
// sessions on two replicas. Over the HTTP carrier, with per-batch scratch
// allocated afresh, this test read 104 and 212; over the stream with pooled
// scratch it reads 18 and 39, and the floors leave a little room for a GC
// emptying the pools mid-run.
func TestRouterServeBatchAllocFloor(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("boots a trained cluster (slow for -short); allocation counts are meaningless under -race")
	}
	c := newRealCluster(t, 2, func(cfg *Config) { cfg.NewClient = nil })
	// One session homed on each replica, so the batch forwards two groups.
	s := chaosPick(t)[0]
	var ids []string
	for i := 0; len(ids) < 2; i++ {
		if id := fmt.Sprintf("floor-%d", i); c.rt.mem.Ring().Sequence(id)[0] == c.names[len(ids)] {
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		if _, err := c.rt.Start(id, s.Features, s.StartUnix); err != nil {
			t.Fatal(err)
		}
	}
	res := make([]wire.OpResult, 2)
	for _, tc := range []struct {
		name  string
		ops   []wire.Op
		floor float64
	}{
		{"single observe", []wire.Op{{SessionID: []byte(ids[0]), ObservedMbps: 2, Horizon: 1, HasObserve: true}}, 20},
		{"two-session batch", []wire.Op{
			{SessionID: []byte(ids[1]), ObservedMbps: 2, Horizon: 1, HasObserve: true},
			{SessionID: []byte(ids[0]), Horizon: 3},
		}, 42},
	} {
		for i := 0; i < 20; i++ { // warm connections, pools and buffers
			c.rt.ServeBatch(tc.ops, res)
		}
		got := testing.AllocsPerRun(200, func() { c.rt.ServeBatch(tc.ops, res) })
		for i := range tc.ops {
			if res[i].Code != wire.OpOK {
				t.Fatalf("%s: op %d answered code %d", tc.name, i, res[i].Code)
			}
		}
		t.Logf("%s: %v allocs", tc.name, got)
		if got > tc.floor {
			t.Errorf("%s: %v allocs per batch, want at most %v", tc.name, got, tc.floor)
		}
	}
}

// TestRouterStartAllocFloor pins the allocations of a routed session's two
// writes — its start and its QoE log — through the production carrier, both
// replicas in this process. Over HTTP to the replicas the pair read 268; as
// call frames on the stream, run through the replica's handler stack, it
// reads 112, and the floor leaves a little room for a GC emptying the pools.
func TestRouterStartAllocFloor(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("boots a trained cluster (slow for -short); allocation counts are meaningless under -race")
	}
	c := newRealCluster(t, 2, func(cfg *Config) { cfg.NewClient = nil })
	s := chaosPick(t)[0]
	pair := func() {
		if _, err := c.rt.Start("floor-start", s.Features, s.StartUnix); err != nil {
			t.Fatal(err)
		}
		c.rt.EndSession(engine.SessionLog{SessionID: "floor-start"})
	}
	for i := 0; i < 20; i++ { // warm connections, pools and buffers
		pair()
	}
	got := testing.AllocsPerRun(200, pair)
	t.Logf("start+log: %v allocs", got)
	if floor := 120.0; got > floor {
		t.Errorf("start+log: %v allocs per pair, want at most %v", got, floor)
	}
}
