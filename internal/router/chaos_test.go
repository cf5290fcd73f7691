package router

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cs2p/internal/abr"
	"cs2p/internal/core"
	"cs2p/internal/engine"
	"cs2p/internal/faultinject"
	"cs2p/internal/httpapi"
	"cs2p/internal/mathx"
	"cs2p/internal/obs"
	"cs2p/internal/predict"
	"cs2p/internal/qoe"
	"cs2p/internal/registry"
	"cs2p/internal/sim"
	"cs2p/internal/trace"
	"cs2p/internal/tracegen"
	"cs2p/internal/video"
	"cs2p/internal/wire"
)

// The cluster chaos environment: one trained model published to a registry
// once per test process; every scenario boots its replicas from that same
// artifact, exactly like the production topology (N servers, one registry).
var (
	chaosOnce   sync.Once
	chaosErr    error
	chaosCfg    core.Config
	chaosTest   *trace.Dataset
	chaosRegDir string
)

func ensureChaosEnv(t *testing.T) {
	t.Helper()
	chaosOnce.Do(func() {
		cfg := tracegen.SmallConfig()
		cfg.Sessions = 400
		d, _ := tracegen.Generate(cfg)
		cut := d.Sessions[d.Len()*2/3].Start()
		train, test := d.SplitByTime(cut)
		ecfg := core.DefaultConfig()
		ecfg.Cluster.MinGroupSize = 10
		ecfg.HMM.NStates = 3
		ecfg.HMM.MaxIters = 12
		eng, err := core.Train(train, ecfg)
		if err != nil {
			chaosErr = err
			return
		}
		dir, err := os.MkdirTemp("", "cs2p-cluster-reg-")
		if err != nil {
			chaosErr = err
			return
		}
		reg, err := registry.Open(dir)
		if err != nil {
			chaosErr = err
			return
		}
		if _, err := reg.Publish(eng.Store(), core.TrainingMeta{
			TrainedAtUnix: 1700000000,
			TraceSessions: train.Len(),
			Clusters:      eng.Clusters(),
		}); err != nil {
			chaosErr = err
			return
		}
		chaosCfg = ecfg
		chaosTest = test
		chaosRegDir = dir
	})
	if chaosErr != nil {
		t.Fatal(chaosErr)
	}
}

// realCluster is 3 artifact-booted cs2p-server replicas behind one router,
// with a HostGate on the router->replica path for fault injection, in front
// of the stream carrier the router runs without one.
type realCluster struct {
	t     *testing.T
	gate  *faultinject.HostGate
	rt    *Router
	reg   *obs.Registry
	names []string
	srvs  map[string]*httpapi.Server
	front *httptest.Server
}

func newRealCluster(t *testing.T, size int, mut func(*Config)) *realCluster {
	t.Helper()
	ensureChaosEnv(t)
	streams := &http.Client{Transport: httpapi.NewStreamTransport()}
	c := &realCluster{t: t, gate: faultinject.NewHostGate(streams.Transport), reg: obs.NewRegistry(), srvs: map[string]*httpapi.Server{}}
	regy, err := registry.Open(chaosRegDir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < size; i++ {
		art, err := regy.Latest()
		if err != nil {
			t.Fatal(err)
		}
		svc, err := engine.NewServiceFromArtifact(art, chaosCfg, video.Default(), engine.ServiceOptions{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		srv := httpapi.NewServer(svc, (*core.Engine).Store)
		srv.SetLogf(func(string, ...any) {})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		c.srvs[ts.URL] = srv
		c.names = append(c.names, ts.URL)
	}
	t.Cleanup(streams.CloseIdleConnections) // before the replicas close: their stream goroutines end
	cfg := Config{
		Replicas: c.names,
		NewClient: func(base string) *httpapi.Client {
			return httpapi.NewClientWith(base, &http.Client{Transport: c.gate})
		},
		Metrics: c.reg,
		Logf:    func(string, ...any) {},
	}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.rt = rt
	rt.ProbeAll(context.Background())
	c.front = httptest.NewServer(rt.Handler())
	t.Cleanup(c.front.Close)
	return c
}

func (c *realCluster) panics() int64 {
	n := c.rt.PanicCount()
	for _, srv := range c.srvs {
		n += srv.PanicCount()
	}
	return n
}

// state reads session id's exact state straight off its home replica (not
// through the fault gate): what stands behind the rendered prediction.
func (c *realCluster) state(id string) engine.SessionState {
	c.t.Helper()
	home, _ := c.rt.SessionHome(id)
	st, err := httpapi.NewClient(home).ExportSession(context.Background(), id)
	if err != nil {
		c.t.Fatalf("export %s from %s: %v", id, home, err)
	}
	return st
}

func (c *realCluster) failovers() uint64 {
	return c.reg.Counter("cs2p_router_failovers_total", "", nil).Value()
}

// chaosPick selects the playback sessions: long enough that a mid-playback
// replica death is genuinely mid-playback.
func chaosPick(t *testing.T) []*trace.Session {
	t.Helper()
	var out []*trace.Session
	for _, s := range chaosTest.Sessions {
		if len(s.Throughput) >= 20 {
			out = append(out, s)
		}
		if len(out) == 6 {
			return out
		}
	}
	t.Fatalf("only %d sessions with >= 20 epochs", len(out))
	return nil
}

// obsHook fires scheduled callbacks at fixed observation indices — the
// deterministic "replica dies at chunk 10" trigger.
type obsHook struct {
	inner predict.Midstream
	n     int
	hooks map[int]func()
}

func (r *obsHook) Predict() float64           { return r.inner.Predict() }
func (r *obsHook) PredictAhead(k int) float64 { return r.inner.PredictAhead(k) }
func (r *obsHook) Observe(w float64) {
	if fn, ok := r.hooks[r.n]; ok {
		fn()
	}
	r.n++
	r.inner.Observe(w)
}

// clusterResult is one full playback sweep through the cluster.
type clusterResult struct {
	qoes   []float64
	chunks []int
	render string // every prediction, printed — the determinism contract
}

// playAll drives the chaos sessions through the router front end with the
// real player simulator. hooks (may be nil) maps session index ->
// observation index -> callback.
func playAll(t *testing.T, c *realCluster, hooks map[int]map[int]func()) clusterResult {
	t.Helper()
	spec := video.Default()
	weights := qoe.DefaultWeights()
	cl := httpapi.NewClient(c.front.URL)
	var res clusterResult
	var b strings.Builder
	sessions := chaosPick(t)
	for i, s := range sessions {
		id := fmt.Sprintf("cchaos-%d", i)
		p, err := cl.NewSessionPredictor(id, s.Features, s.StartUnix)
		if err != nil {
			t.Fatalf("session %d start: %v", i, err)
		}
		var pred predict.Midstream = p
		if h := hooks[i]; h != nil {
			pred = &obsHook{inner: p, hooks: h}
		}
		rec := &renderHook{inner: pred, b: &b, i: i, state: func() engine.SessionState { return c.state(id) }}
		play := sim.Play(spec, abr.MPC{}, rec, s.Throughput, weights)
		res.qoes = append(res.qoes, play.QoE)
		res.chunks = append(res.chunks, play.Chunks)
		if err := cl.Log(engine.SessionLog{SessionID: id, QoE: play.QoE}); err != nil {
			t.Fatalf("session %d log: %v", i, err)
		}
	}
	res.render = b.String()
	return res
}

// renderHook prints every prediction the player actually used and the
// session state it came from (epoch count, filter posterior), so two runs
// can be compared bit for bit — on the state, not just on the
// most-likely-state mean the prediction rule reduces it to, which a merely
// approximate recovery usually reproduces.
type renderHook struct {
	inner predict.Midstream
	b     *strings.Builder
	i     int
	n     int
	state func() engine.SessionState
}

func (r *renderHook) Predict() float64           { return r.inner.Predict() }
func (r *renderHook) PredictAhead(k int) float64 { return r.inner.PredictAhead(k) }
func (r *renderHook) Observe(w float64) {
	r.inner.Observe(w)
	st := r.state()
	fmt.Fprintf(r.b, "s%d c%d obs=%.10g pred=%.10g epoch=%d post=%v\n", r.i, r.n, w, r.inner.Predict(), st.Epoch, st.Posterior)
	r.n++
}

// assertClusterBand: complete playback, zero panics, median QoE within tol
// of the fault-free baseline.
func assertClusterBand(t *testing.T, name string, base, run clusterResult, c *realCluster, tol float64) {
	t.Helper()
	spec := video.Default()
	for i, s := range chaosPick(t) {
		want := spec.NumChunks()
		if len(s.Throughput) < want {
			want = len(s.Throughput)
		}
		if run.chunks[i] != want {
			t.Errorf("%s: session %d played %d/%d chunks", name, i, run.chunks[i], want)
		}
	}
	if n := c.panics(); n != 0 {
		t.Errorf("%s: %d handler panics", name, n)
	}
	medBase := mathx.Median(append([]float64(nil), base.qoes...))
	medRun := mathx.Median(append([]float64(nil), run.qoes...))
	if math.Abs(medRun-medBase) > tol*math.Abs(medBase) {
		t.Errorf("%s: median QoE %.2f vs fault-free %.2f (> %.0f%% off)", name, medRun, medBase, 100*tol)
	}
}

// killChunk is where the kill scenarios take a replica away: past the 16
// observations the router used to keep for replay, so only recovery from
// exact state — not a windowed approximation of it — can render fault-free.
const killChunk = 17

// TestClusterChaosKillReplica is the acceptance scenario: 6 full playbacks
// through a 3-replica cluster; while session 2 is mid-playback its home
// replica is killed. Every video must finish, nothing panics, at least one
// failover is recorded — and a crash, like a planned drain, may move a
// session but never change an answer: the faulted run renders every
// prediction bit-identically to the fault-free one, repeatably.
func TestClusterChaosKillReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster chaos boots a trained 3-replica cluster; slow for -short")
	}
	base := playAll(t, newRealCluster(t, 3, nil), nil)
	for i, q := range base.qoes {
		if math.IsNaN(q) {
			t.Fatalf("fault-free baseline: session %d QoE is NaN", i)
		}
	}

	run := func() (clusterResult, uint64) {
		c := newRealCluster(t, 3, nil)
		hooks := map[int]map[int]func(){
			2: {killChunk: func() {
				home, ok := c.rt.SessionHome("cchaos-2")
				if !ok {
					t.Fatal("session cchaos-2 has no home at kill time")
				}
				c.gate.SetHostDown(strings.TrimPrefix(home, "http://"), true)
			}},
		}
		res := playAll(t, c, hooks)
		if n := c.panics(); n != 0 {
			t.Fatalf("%d panics during faulted run", n)
		}
		return res, c.failovers()
	}

	first, failovers := run()
	if failovers == 0 {
		t.Error("killed a home replica mid-playback but no failover was recorded")
	}
	if first.render != base.render {
		t.Errorf("killed-replica run diverged from fault-free — recovery from state must be bit-identical\ngot:\n%s\nwant:\n%s",
			first.render, base.render)
	}
	assertClusterBand(t, "kill-replica", base, first, newRealCluster(t, 3, nil), 0)

	second, _ := run()
	if first.render != second.render {
		t.Errorf("faulted run is nondeterministic across identical runs\nfirst:\n%s\nsecond:\n%s",
			first.render, second.render)
	}
	if !floatsEqual(first.qoes, second.qoes) {
		t.Errorf("faulted QoEs differ across identical runs: %v vs %v", first.qoes, second.qoes)
	}
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestClusterChaosKillAndRevive: the killed replica comes back two epochs
// later. The migrated session must NOT flap back (stickiness after
// failover), and the run still renders bit-identically to fault-free.
func TestClusterChaosKillAndRevive(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster chaos boots a trained 3-replica cluster; slow for -short")
	}
	base := playAll(t, newRealCluster(t, 3, nil), nil)
	c := newRealCluster(t, 3, nil)
	var killed string
	hooks := map[int]map[int]func(){
		2: {
			killChunk: func() {
				killed, _ = c.rt.SessionHome("cchaos-2")
				c.gate.SetHostDown(strings.TrimPrefix(killed, "http://"), true)
			},
			killChunk + 2: func() {
				c.gate.SetHostDown(strings.TrimPrefix(killed, "http://"), false)
			},
		},
	}
	run := playAll(t, c, hooks)
	if run.render != base.render {
		t.Errorf("kill-and-revive run diverged from fault-free\ngot:\n%s\nwant:\n%s", run.render, base.render)
	}
	assertClusterBand(t, "kill-revive", base, run, c, 0)
	if home, _ := c.rt.SessionHome("cchaos-2"); home == killed {
		t.Errorf("session flapped back to revived replica %s mid-playback", killed)
	}
	if c.failovers() == 0 {
		t.Error("no failover recorded")
	}
}

// TestClusterChaosProbePartition: the probe path is partitioned (monitoring
// sees every replica dead) while the data path is fine — the classic
// observer/reality split. The Down-last-resort tier keeps sessions playing;
// a partitioned prober must never turn into a full outage.
func TestClusterChaosProbePartition(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster chaos boots a trained 3-replica cluster; slow for -short")
	}
	base := playAll(t, newRealCluster(t, 3, nil), nil)
	probeGate := faultinject.NewHostGate(nil)
	c := newRealCluster(t, 3, func(cfg *Config) {
		cfg.NewProbeClient = func(base string) *httpapi.Client {
			return httpapi.NewClientWith(base, &http.Client{Transport: probeGate, Timeout: 5 * time.Second})
		}
	})
	// Partition the probe path and drive every replica to Down in the
	// router's (wrong) view of the world.
	for _, n := range c.names {
		probeGate.SetHostDown(strings.TrimPrefix(n, "http://"), true)
	}
	for i := 0; i < 3; i++ {
		c.rt.ProbeAll(context.Background())
	}
	for n, st := range c.rt.ReplicaStates() {
		if st != StateDown {
			t.Fatalf("replica %s state %s; partition should have driven it down", n, st)
		}
	}
	run := playAll(t, c, nil)
	assertClusterBand(t, "probe-partition", base, run, c, 0.20)
}

// TestClusterChaosSlowReplica: added latency on one replica slows requests
// but corrupts nothing — the rendered predictions are bit-identical to
// fault-free.
func TestClusterChaosSlowReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster chaos boots a trained 3-replica cluster; slow for -short")
	}
	base := playAll(t, newRealCluster(t, 3, nil), nil)
	c := newRealCluster(t, 3, nil)
	c.gate.SetHostLatency(strings.TrimPrefix(c.names[0], "http://"), 2*time.Millisecond)
	run := playAll(t, c, nil)
	if run.render != base.render {
		t.Errorf("slow replica changed predictions\ngot:\n%s\nwant:\n%s", run.render, base.render)
	}
	assertClusterBand(t, "slow-replica", base, run, c, 0.20)
}

// bootExtraChaosReplica boots one more artifact-served replica from the
// shared chaos registry. It is NOT yet a member — the test joins it through
// the membership surface mid-load.
func bootExtraChaosReplica(t *testing.T, c *realCluster) string {
	t.Helper()
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
	srv := httpapi.NewServer(svc, (*core.Engine).Store)
	srv.SetLogf(func(string, ...any) {})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c.srvs[ts.URL] = srv
	return ts.URL
}

// TestClusterChaosDrainUnderLoad: while session 2 is mid-playback, its home
// replica is administratively drained. The handoff must be warm — exact
// filter state — which makes the whole run render bit-identically to the
// fault-free baseline: a drain is allowed to move sessions but never to
// change an answer. The run is also deterministic across identical repeats.
func TestClusterChaosDrainUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster chaos boots a trained 3-replica cluster; slow for -short")
	}
	base := playAll(t, newRealCluster(t, 3, nil), nil)

	run := func() (clusterResult, *realCluster) {
		c := newRealCluster(t, 3, nil)
		hooks := map[int]map[int]func(){
			2: {10: func() {
				home, ok := c.rt.SessionHome("cchaos-2")
				if !ok {
					t.Fatal("session cchaos-2 has no home at drain time")
				}
				res, err := c.rt.DrainReplica(context.Background(), home)
				if err != nil {
					t.Fatalf("drain %s: %v", home, err)
				}
				if res.Warm == 0 || res.Failed != 0 {
					t.Errorf("drain tally %+v; want all-warm with a live source", res)
				}
			}},
		}
		return playAll(t, c, hooks), c
	}

	first, c1 := run()
	if warm, failed := c1.rt.HandoffOutcomes(); warm == 0 || failed != 0 {
		t.Errorf("handoff outcomes warm=%d failed=%d; want warm only", warm, failed)
	}
	if first.render != base.render {
		t.Errorf("drained run's predictions diverged from fault-free — warm handoff must be bit-identical\ngot:\n%s\nwant:\n%s",
			first.render, base.render)
	}
	assertClusterBand(t, "drain-under-load", base, first, c1, 0.20)

	second, _ := run()
	if first.render != second.render {
		t.Errorf("drain-under-load is nondeterministic across identical runs\nfirst:\n%s\nsecond:\n%s",
			first.render, second.render)
	}
}

// TestClusterChaosKillDuringDrain is the compound event: while session 2 is
// mid-playback (past the old replay window), the replica its drain handoff
// would land on is killed, and then its home is drained. The handoff must
// step over the dead target, land the exact state on the remaining member,
// and later sessions must place around both — all without changing one
// rendered prediction relative to fault-free.
func TestClusterChaosKillDuringDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster chaos boots a trained 3-replica cluster; slow for -short")
	}
	base := playAll(t, newRealCluster(t, 3, nil), nil)
	c := newRealCluster(t, 3, nil)
	hooks := map[int]map[int]func(){
		2: {killChunk: func() {
			const id = "cchaos-2"
			home, _ := c.rt.SessionHome(id)
			var target string
			for _, rep := range c.rt.candidates(id, false) {
				if rep.name != home {
					target = rep.name
					break
				}
			}
			c.gate.SetHostDown(strings.TrimPrefix(target, "http://"), true)
			res, err := c.rt.DrainReplica(context.Background(), home)
			if err != nil {
				t.Fatalf("drain %s: %v", home, err)
			}
			if res.Warm != 1 || res.Failed != 0 {
				t.Errorf("drain tally %+v; want the one live session moved warm past the dead target", res)
			}
			if h, _ := c.rt.SessionHome(id); h == home || h == target {
				t.Errorf("session homed on %s after draining %s with %s dead", h, home, target)
			}
		}},
	}
	run := playAll(t, c, hooks)
	if run.render != base.render {
		t.Errorf("kill-during-drain run diverged from fault-free\ngot:\n%s\nwant:\n%s", run.render, base.render)
	}
	assertClusterBand(t, "kill-during-drain", base, run, c, 0)
}

// TestClusterChaosJoinUnderLoad: a fourth artifact-booted replica joins the
// ring while session 2 is mid-playback. Existing sessions stay put (sticky
// homes survive a join), later sessions may land on the newcomer — and
// because every member serves the same artifact, the rendering is
// bit-identical to the fault-free 3-replica baseline, deterministically.
func TestClusterChaosJoinUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster chaos boots a trained 3-replica cluster; slow for -short")
	}
	base := playAll(t, newRealCluster(t, 3, nil), nil)

	run := func() (clusterResult, *realCluster) {
		c := newRealCluster(t, 3, nil)
		extra := bootExtraChaosReplica(t, c)
		var homeBefore string
		hooks := map[int]map[int]func(){
			2: {
				10: func() {
					homeBefore, _ = c.rt.SessionHome("cchaos-2")
					if err := c.rt.AddReplica(context.Background(), extra); err != nil {
						t.Fatalf("join %s: %v", extra, err)
					}
					if n := len(c.rt.Replicas()); n != 4 {
						t.Fatalf("after join: %d members, want 4", n)
					}
				},
				15: func() {
					if h, _ := c.rt.SessionHome("cchaos-2"); h != homeBefore {
						t.Errorf("session cchaos-2 moved %s -> %s on a join; sticky homes must survive ring growth", homeBefore, h)
					}
				},
			},
		}
		return playAll(t, c, hooks), c
	}

	first, c1 := run()
	if warm, failed := c1.rt.HandoffOutcomes(); warm+failed != 0 {
		t.Errorf("a pure join triggered handoffs (warm=%d failed=%d); joins must not move sessions", warm, failed)
	}
	if first.render != base.render {
		t.Errorf("join-under-load changed predictions — same artifact everywhere must render identically\ngot:\n%s\nwant:\n%s",
			first.render, base.render)
	}
	assertClusterBand(t, "join-under-load", base, first, c1, 0.20)

	second, _ := run()
	if first.render != second.render {
		t.Errorf("join-under-load is nondeterministic across identical runs\nfirst:\n%s\nsecond:\n%s",
			first.render, second.render)
	}
}

// TestClusterModelFetchThroughRouter: a decentralized client pulls its
// cluster-local model via the router's /v1/model proxy and gets working
// local predictions.
func TestClusterModelFetchThroughRouter(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a trained 3-replica cluster; slow for -short")
	}
	c := newRealCluster(t, 3, nil)
	cl := httpapi.NewClient(c.front.URL)
	s := chaosPick(t)[0]
	lp, err := cl.FetchLocalPredictor(s.Features)
	if err != nil {
		t.Fatalf("local model fetch through router: %v", err)
	}
	lp.Observe(s.Throughput[0])
	if p := lp.Predict(); math.IsNaN(p) || p <= 0 {
		t.Fatalf("local predictor from proxied model predicts %g", p)
	}
}

// TestClusterRouterRestartClientResync: the router itself restarts 12 chunks
// into a session — its routing table, held states and all, is gone, while
// the replicas live on. The resilient player's next observation is answered
// 404; it pushes its local mirror's state through the new router, which
// places the session and carries on. Every later prediction, at every
// horizon, and the replica-side state (epoch, posterior bits) equal those of
// a control session whose router never restarted.
func TestClusterRouterRestartClientResync(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a trained 3-replica cluster; slow for -short")
	}
	c := newRealCluster(t, 3, nil)
	reborn, err := New(Config{Replicas: c.names, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	reborn.ProbeAll(context.Background())
	var live atomic.Value
	live.Store(c.rt.Handler())
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		live.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer front.Close()

	s := chaosPick(t)[2]
	open := func(base, id string) *httpapi.ResilientSessionPredictor {
		cfg := httpapi.DefaultResilienceConfig()
		cfg.Sleep = func(time.Duration) {}
		p, err := httpapi.NewResilientPredictor(httpapi.NewClient(base), id, s.Features, s.StartUnix, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	restarted, control := open(front.URL, "rr-1"), open(c.front.URL, "rr-control")
	state := func(rt *Router, id string) engine.SessionState {
		home, _ := rt.SessionHome(id)
		st, err := httpapi.NewClient(home).ExportSession(context.Background(), id)
		if err != nil {
			t.Fatalf("export %s from %q: %v", id, home, err)
		}
		return st
	}
	rt := c.rt
	for j, w := range s.Throughput[:20] {
		if j == 12 {
			rt = reborn
			live.Store(reborn.Handler())
		}
		restarted.Observe(w)
		control.Observe(w)
		for _, k := range []int{1, 3} {
			if got, want := restarted.PredictAhead(k), control.PredictAhead(k); got != want {
				t.Fatalf("chunk %d horizon %d: prediction %v across the router restart, undisturbed %v", j, k, got, want)
			}
		}
		got, want := state(rt, "rr-1"), state(c.rt, "rr-control")
		if got.Epoch != want.Epoch || fmt.Sprint(got.Posterior) != fmt.Sprint(want.Posterior) {
			t.Fatalf("chunk %d: state epoch=%d post=%v, undisturbed epoch=%d post=%v", j, got.Epoch, got.Posterior, want.Epoch, want.Posterior)
		}
	}
	if st := restarted.Stats(); st.Reregistrations != 1 || st.LocalFallbacks != 0 || st.RemoteOK != 20 {
		t.Errorf("stats %+v; want one resync and every observation answered remotely", st)
	}
}

// TestClusterHopStateAllocParity measures the whole routed hop — router,
// upstream round trip, replica handler, engine — for an observation, whose
// state rides back to the router, against a horizon query, which carries
// none: in steady state the observation allocates nothing more. The state
// is filled, encoded, decoded and recorded entirely in recycled buffers.
func TestClusterHopStateAllocParity(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("boots a trained cluster (slow for -short); allocation counts are meaningless under -race")
	}
	c := newRealCluster(t, 2, nil)
	s := chaosPick(t)[0]
	if _, err := c.rt.Start("alloc-1", s.Features, s.StartUnix); err != nil {
		t.Fatal(err)
	}
	res := make([]engine.BatchResult, 1)
	observe := []engine.BatchOp{{SessionID: []byte("alloc-1"), ObservedMbps: 2, Horizon: 1, HasObserve: true}}
	query := []engine.BatchOp{{SessionID: []byte("alloc-1"), Horizon: 2}}
	for i := 0; i < 20; i++ { // warm connections, pools and buffers
		c.rt.ServeBatch(observe, res)
		c.rt.ServeBatch(query, res)
	}
	withState := testing.AllocsPerRun(200, func() { c.rt.ServeBatch(observe, res) })
	without := testing.AllocsPerRun(200, func() { c.rt.ServeBatch(query, res) })
	if res[0].Code != wire.OpOK {
		t.Fatalf("op answered code %d", res[0].Code)
	}
	if withState > without {
		t.Errorf("routed observe allocates %v per op, a stateless query %v: carrying state must add none", withState, without)
	}
}
