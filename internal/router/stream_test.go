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
	t     *testing.T
	url   string
	reg   *obs.Registry
	ts    *httptest.Server
	mu    sync.Mutex
	conns []net.Conn
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
	r.reg = obs.NewRegistry()
	srv := httpapi.NewServer(chaosService(r.t), (*core.Engine).Store)
	srv.SetLogf(func(string, ...any) {})
	srv.SetMetrics(r.reg)
	r.ts = &httptest.Server{Listener: keepListener{ln, r}, Config: &http.Server{Handler: srv.Handler()}}
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

// streams is how many streams the current process has upgraded.
func (r *liveReplica) streams() uint64 {
	return r.reg.Counter("cs2p_http_requests_total", "", obs.Labels{"route": "/v2/stream", "code": "101"}).Value()
}

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
// replica's process, which restarts empty on the same address. The op
// written onto a stale stream fails — it is never retried, an observation is
// not idempotent — and takes the other two down with it, so the restart
// costs one failed call, not one per pooled stream, and the replica is not
// marked Down. migrate re-installs the session exactly on the restarted
// replica over a fresh stream, and later ops reuse that one.
func TestStreamStaleAfterReplicaRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a trained replica; slow for -short")
	}
	a := startLiveReplica(t)
	reg := obs.NewRegistry()
	rt, err := New(Config{Replicas: []string{a.url}, Metrics: reg, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	tw := newTwin(t, rt, "stale-1")
	tw.observe(3)
	// Three calls in flight at once leave three streams in the pool.
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
	// A keep-alive connection the restart left stale is net/http's to retire,
	// and it may lose that race to migrate's import; this test is about the
	// stream, so those go now.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	tw.observe(1)
	if got := reg.Counter("cs2p_router_requests_total", "", obs.Labels{"replica": a.url, "outcome": "error"}).Value(); got != 1 {
		t.Errorf("%d failed calls, want exactly the one written onto a stale stream", got)
	}
	if st := rt.ReplicaStates()[a.url]; st == StateDown {
		t.Errorf("the restarted replica is %v", st)
	}
	if a.streams() != 1 {
		t.Errorf("%v streams upgraded on the restarted replica, want 1 fresh one", a.streams())
	}
	tw.observe(3)
	if a.streams() != 1 {
		t.Errorf("%v streams upgraded after more ops, want the fresh one reused", a.streams())
	}
}

// TestStreamMetricsCountCallsNotStreams: over the stream, the router still
// counts one request per upstream call, and the replica counts every frame
// on its wire-request and batch families under route /v2/stream — while the
// open stream is no request in flight and one 101 in the latency histogram,
// not a lifetime-long sample.
func TestStreamMetricsCountCallsNotStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a trained replica; slow for -short")
	}
	a := startLiveReplica(t)
	reg := obs.NewRegistry()
	rt, err := New(Config{Replicas: []string{a.url}, Metrics: reg, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	tw := newTwin(t, rt, "metrics-1")
	tw.observe(7)
	if got := reg.Counter("cs2p_router_requests_total", "", obs.Labels{"replica": a.url, "outcome": "ok"}).Value(); got != 1+7 {
		t.Errorf("router counted %d upstream calls, want 8 (a start, 7 observes)", got)
	}
	resp, err := http.Get(a.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	samples, err := obs.ParseText(strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		`cs2p_http_wire_requests_total{format="binary",route="/v2/stream"}`: 7,
		`cs2p_http_batch_ops_count`:                                         7,
		`cs2p_http_requests_total{code="101",route="/v2/stream"}`:           1,
		`cs2p_http_request_seconds_count{route="/v2/stream"}`:               1,
		`cs2p_http_in_flight`:                                               1, // the scrape itself
	} {
		if got, _ := obs.SampleValue(samples, key); got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
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
