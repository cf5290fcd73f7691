package router

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cs2p/internal/engine"
	"cs2p/internal/faultinject"
	"cs2p/internal/httpapi"
	"cs2p/internal/obs"
	"cs2p/internal/trace"
	"cs2p/internal/wire"
)

// stubBackend implements httpapi.SessionService (plus HealthReporter) with
// a prediction that is a pure function of the observation history:
// sum(observations) + horizon. Its whole "filter state" IS that history,
// carried in the state payload's posterior slot, which makes recovery
// fidelity directly checkable — a migrated session predicts exactly what an
// uninterrupted one would if and only if its full state arrived, once.
type stubBackend struct {
	mu        sync.Mutex
	version   uint64
	trainedAt int64
	sessions  map[string][]float64
	starts    map[string]int
	logs      []engine.SessionLog
	draining  bool
	// refuseImport makes ImportSession answer with the model-guard error,
	// simulating a generation-skewed target refusing transferred state.
	refuseImport bool
	// onBatch runs at the start of every ServeBatch, before any op is
	// applied; onExport runs in ExportSession after the state snapshot is
	// taken. Tests use them (setHooks) to hold an op or a drain handoff at
	// an exact point; both run without mu held.
	onBatch, onExport func()
}

func newStubBackend(version uint64) *stubBackend {
	return &stubBackend{
		version:  version,
		sessions: make(map[string][]float64),
		starts:   make(map[string]int),
	}
}

func (s *stubBackend) StartSession(id string, f trace.Features, startUnix int64) engine.StartResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.starts[id]++
	s.sessions[id] = nil
	return engine.StartResponse{InitialPredictionMbps: 1, ClusterID: "stub"}
}

func (s *stubBackend) ObserveAndPredict(id string, observedMbps float64, horizon int) (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obs, ok := s.sessions[id]
	if !ok {
		return 0, engine.ErrUnknownSession
	}
	obs = append(obs, observedMbps)
	s.sessions[id] = obs
	return sum(obs) + float64(horizon), nil
}

func (s *stubBackend) Predict(id string, horizon int) (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obs, ok := s.sessions[id]
	if !ok {
		return 0, engine.ErrUnknownSession
	}
	return sum(obs) + float64(horizon), nil
}

// ServeBatch is the stub's per-chunk door — every op the router forwards
// arrives here as a binary batch. Ops are served one by one through the
// single-op methods, so the sum-of-history prediction rule holds.
func (s *stubBackend) ServeBatch(ops []engine.BatchOp, res []engine.BatchResult) uint64 {
	s.mu.Lock()
	hook := s.onBatch
	s.mu.Unlock()
	if hook != nil {
		hook()
	}
	for i, op := range ops {
		var (
			pred float64
			err  error
		)
		h := max(op.Horizon, 1)
		if op.HasObserve {
			pred, err = s.ObserveAndPredict(string(op.SessionID), op.ObservedMbps, h)
		} else {
			pred, err = s.Predict(string(op.SessionID), h)
		}
		res[i] = engine.BatchResult{PredictionMbps: pred}
		if err != nil {
			res[i] = engine.BatchResult{Code: wire.OpUnknownSession}
		} else if op.WantState {
			st, _ := s.state(string(op.SessionID))
			res[i].State = wire.State{Posterior: st.Posterior, LastOneStep: math.NaN(),
				ModelVersion: st.ModelVersion, Epoch: uint32(st.Epoch), Started: st.Started}
		}
	}
	return 0
}

func (s *stubBackend) EndSession(lg engine.SessionLog) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.sessions, lg.SessionID)
	s.logs = append(s.logs, lg)
}

func (s *stubBackend) Health() engine.HealthStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return engine.HealthStatus{Ready: true, Draining: s.draining, ModelVersion: s.version, Sessions: len(s.sessions), TrainedAtUnix: s.trainedAt}
}

// ExportSession packs the observation history into the state payload's
// posterior slot, stamped with the stub's model version.
func (s *stubBackend) ExportSession(id string) (engine.SessionState, error) {
	st, ok := s.state(id)
	if !ok {
		return engine.SessionState{}, engine.ErrUnknownSession
	}
	s.mu.Lock()
	hook := s.onExport
	s.mu.Unlock()
	if hook != nil {
		hook()
	}
	return st, nil
}

// state snapshots a session's history as its state payload.
func (s *stubBackend) state(id string) (engine.SessionState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obs, ok := s.sessions[id]
	return engine.SessionState{
		Schema:       engine.SessionStateSchema,
		SessionID:    id,
		ModelVersion: s.version,
		Posterior:    append([]float64(nil), obs...),
		Started:      len(obs) > 0,
		Epoch:        len(obs),
	}, ok
}

func (s *stubBackend) ImportSession(st engine.SessionState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The model guard: state indexed by another model's states is refused.
	if s.refuseImport || st.ModelVersion != s.version {
		return fmt.Errorf("%w: stub v%d refuses state from v%d", engine.ErrSessionStateModelMismatch, s.version, st.ModelVersion)
	}
	s.sessions[st.SessionID] = append([]float64(nil), st.Posterior...)
	return nil
}

func (s *stubBackend) ForgetSession(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sessions[id]; !ok {
		return false
	}
	delete(s.sessions, id)
	return true
}

func (s *stubBackend) SetDraining(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = on
}

func (s *stubBackend) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *stubBackend) setHooks(onBatch, onExport func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onBatch, s.onExport = onBatch, onExport
}

func (s *stubBackend) setRefuseImport(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refuseImport = on
}

// setTrainedAt stamps the model training time the stub's healthz reports.
func (s *stubBackend) setTrainedAt(t int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.trainedAt = t
}

// wipe simulates a process restart: all session state is gone.
func (s *stubBackend) wipe() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sessions = make(map[string][]float64)
}

func (s *stubBackend) observations(id string) ([]float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obs, ok := s.sessions[id]
	return append([]float64(nil), obs...), ok
}

func (s *stubBackend) totalStarts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.starts {
		n += c
	}
	return n
}

func (s *stubBackend) logCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.logs)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// stubCluster is N stub replicas behind one Router, with a HostGate in front
// of the stream carrier so tests can kill, revive, and slow individual
// replicas.
type stubCluster struct {
	t     *testing.T
	gate  *faultinject.HostGate
	rt    *Router
	names []string
	stubs map[string]*stubBackend
}

// newStubCluster builds the cluster. versions assigns each replica's model
// version (len(versions) replicas).
func newStubCluster(t *testing.T, cfg Config, versions ...uint64) *stubCluster {
	t.Helper()
	streams := &http.Client{Transport: httpapi.NewStreamTransport()}
	c := &stubCluster{t: t, gate: faultinject.NewHostGate(streams.Transport), stubs: make(map[string]*stubBackend)}
	for _, v := range versions {
		sb := newStubBackend(v)
		srv := httpapi.NewServer(sb, nil)
		srv.SetLogf(func(string, ...any) {})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		c.stubs[ts.URL] = sb
		c.names = append(c.names, ts.URL)
	}
	t.Cleanup(streams.CloseIdleConnections)
	cfg.Replicas = c.names
	if cfg.NewClient == nil {
		cfg.NewClient = func(base string) *httpapi.Client {
			return httpapi.NewClientWith(base, &http.Client{Transport: c.gate})
		}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.rt = rt
	return c
}

func hostOf(base string) string { return strings.TrimPrefix(base, "http://") }

// TestRouterModelAge: the router turns probed training timestamps into the
// cs2p_model_age_seconds staleness gauge — the newest model among live
// replicas, excluding Down ones — and mirrors the timestamp on its own
// healthz for tiers stacked above.
func TestRouterModelAge(t *testing.T) {
	reg := obs.NewRegistry()
	now := time.Unix(1700000600, 0)
	c := newStubCluster(t, Config{Metrics: reg, Now: func() time.Time { return now }}, 1, 1, 1)

	// Unprobed cluster: age unknown.
	if age := c.rt.modelAgeSeconds(); age != 0 {
		t.Fatalf("unprobed model age = %v, want 0", age)
	}

	// Replicas trained at staggered times; the freshest (100s ago) wins.
	c.stubs[c.names[0]].setTrainedAt(1700000000) // 600s old
	c.stubs[c.names[1]].setTrainedAt(1700000500) // 100s old
	c.stubs[c.names[2]].setTrainedAt(1700000300) // 300s old
	c.rt.ProbeAll(context.Background())
	if age := c.rt.modelAgeSeconds(); age != 100 {
		t.Fatalf("model age = %v, want 100", age)
	}
	if got := c.rt.Health().TrainedAtUnix; got != 1700000500 {
		t.Fatalf("health trained_at = %d, want 1700000500", got)
	}

	// The freshest replica dies: its model no longer serves, so staleness
	// honestly degrades to the freshest survivor.
	c.kill(c.names[1])
	for i := 0; i < 3; i++ {
		c.rt.ProbeAll(context.Background())
	}
	if st := c.rt.ReplicaStates()[c.names[1]]; st != StateDown {
		t.Fatalf("killed replica state = %v, want down", st)
	}
	if age := c.rt.modelAgeSeconds(); age != 300 {
		t.Fatalf("model age after death = %v, want 300", age)
	}

	// The gauge is on the scrape surface.
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "cs2p_model_age_seconds 300") {
		t.Fatalf("scrape missing model age gauge:\n%s", rec.Body.String())
	}
}

// kill takes a replica's process away: connections refused, state lost.
func (c *stubCluster) kill(name string) {
	c.gate.SetHostDown(hostOf(name), true)
	c.stubs[name].wipe()
}

func (c *stubCluster) revive(name string) { c.gate.SetHostDown(hostOf(name), false) }

// mustStart starts a session through the router or fails the test.
func (c *stubCluster) mustStart(id string) {
	c.t.Helper()
	if _, err := c.rt.Start(id, trace.Features{ISP: "isp", Province: "p"}, 0); err != nil {
		c.t.Fatalf("start %s: %v", id, err)
	}
}

// home returns the session's home replica or fails.
func (c *stubCluster) home(id string) string {
	c.t.Helper()
	h, ok := c.rt.SessionHome(id)
	if !ok {
		c.t.Fatalf("session %s has no home", id)
	}
	return h
}

// TestRouterStickySessions: every session's observations land on exactly
// one replica, the one the router reports as its home, and the load spreads
// over more than one replica.
func TestRouterStickySessions(t *testing.T) {
	c := newStubCluster(t, Config{}, 1, 1, 1)
	used := map[string]bool{}
	for i := 0; i < 24; i++ {
		id := fmt.Sprintf("sticky-%d", i)
		c.mustStart(id)
		for k := 1; k <= 3; k++ {
			if _, err := c.rt.ObserveAndPredict(id, float64(k), 1); err != nil {
				t.Fatalf("observe %s: %v", id, err)
			}
		}
		home := c.home(id)
		used[home] = true
		holders := 0
		for name, sb := range c.stubs {
			if obs, ok := sb.observations(id); ok {
				holders++
				if name != home {
					t.Errorf("session %s lives on %s, home is %s", id, name, home)
				}
				if len(obs) != 3 {
					t.Errorf("session %s: %d observations on its replica, want 3", id, len(obs))
				}
			}
		}
		if holders != 1 {
			t.Errorf("session %s held by %d replicas, want exactly 1", id, holders)
		}
	}
	if len(used) < 2 {
		t.Errorf("24 sessions all routed to %d replica(s); ring is not spreading", len(used))
	}
}

// TestRouterFailoverReplay is the tentpole invariant: kill a session's home
// replica and the next observation must (a) succeed, (b) land the session
// on another replica, and (c) return EXACTLY the prediction an
// uninterrupted run would have produced, because the session's last
// acknowledged state was installed there and the observation applied on top,
// once. (The name is from when recovery replayed an observation window.)
func TestRouterFailoverReplay(t *testing.T) {
	c := newStubCluster(t, Config{}, 1, 1, 1)
	const id = "failover-1"
	c.mustStart(id)
	for k := 1; k <= 5; k++ {
		if _, err := c.rt.ObserveAndPredict(id, float64(k), 1); err != nil {
			t.Fatalf("observe %d: %v", k, err)
		}
	}
	oldHome := c.home(id)
	c.kill(oldHome)

	pred, err := c.rt.ObserveAndPredict(id, 6, 1)
	if err != nil {
		t.Fatalf("observe after kill: %v", err)
	}
	// Fault-free: sum(1..6) + horizon 1 = 22.
	if want := 22.0; pred != want {
		t.Fatalf("post-failover prediction %g, want fault-free value %g", pred, want)
	}
	newHome := c.home(id)
	if newHome == oldHome {
		t.Fatalf("session still homed on killed replica %s", oldHome)
	}
	obs, ok := c.stubs[newHome].observations(id)
	if !ok {
		t.Fatalf("session missing on new home %s", newHome)
	}
	if len(obs) != 6 {
		t.Fatalf("new home has %d observations, want the full history of 6", len(obs))
	}

	// Subsequent traffic flows to the new home without further migration.
	pred, err = c.rt.ObserveAndPredict(id, 7, 1)
	if err != nil {
		t.Fatalf("observe after migration: %v", err)
	}
	if want := 29.0; pred != want {
		t.Fatalf("steady-state prediction %g, want %g", pred, want)
	}
	if h := c.home(id); h != newHome {
		t.Fatalf("session moved again (%s -> %s) without a fault", newHome, h)
	}
}

// TestRouterFailoverBeyondOldWindow: failover after 40 observations — far
// past the 16 the router used to keep for replay — equals the full history.
// State recovery has no horizon: the new home holds all 41 samples and
// predicts the fault-free sum, where a windowed replay answered from the
// last 16.
func TestRouterFailoverBeyondOldWindow(t *testing.T) {
	c := newStubCluster(t, Config{}, 1, 1, 1)
	const id = "long-1"
	c.mustStart(id)
	want := 0.0
	for k := 1; k <= 40; k++ {
		want += float64(k)
		if _, err := c.rt.ObserveAndPredict(id, float64(k), 1); err != nil {
			t.Fatal(err)
		}
	}
	c.kill(c.home(id))
	pred, err := c.rt.ObserveAndPredict(id, 41, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want += 41 + 1; pred != want {
		t.Fatalf("failover after 40 observations predicts %g, want the full-history %g", pred, want)
	}
	if obs, _ := c.stubs[c.home(id)].observations(id); len(obs) != 41 {
		t.Fatalf("new home has %d observations, want all 41", len(obs))
	}
}

// TestRouterPredictFailover: a stateless horizon query also survives a dead
// home, answered from the recovered state.
func TestRouterPredictFailover(t *testing.T) {
	c := newStubCluster(t, Config{}, 1, 1, 1)
	const id = "predict-1"
	c.mustStart(id)
	for k := 1; k <= 4; k++ {
		if _, err := c.rt.ObserveAndPredict(id, float64(k), 1); err != nil {
			t.Fatal(err)
		}
	}
	c.kill(c.home(id))
	pred, err := c.rt.Predict(id, 3)
	if err != nil {
		t.Fatalf("predict after kill: %v", err)
	}
	// sum(1..4) + horizon 3 = 13; no new observation is recorded.
	if want := 13.0; pred != want {
		t.Fatalf("post-failover predict %g, want %g", pred, want)
	}
	if obs, _ := c.stubs[c.home(id)].observations(id); len(obs) != 4 {
		t.Fatalf("predict failover left %d observations on the new home, want 4", len(obs))
	}
}

// TestRouterSuspectDrains: a suspect replica stops receiving new sessions
// while its existing sessions keep flowing to it.
func TestRouterSuspectDrains(t *testing.T) {
	c := newStubCluster(t, Config{}, 1, 1, 1)
	// Place sessions while everyone is healthy; find one homed on names[0].
	victim := ""
	target := c.names[0]
	for i := 0; i < 32 && victim == ""; i++ {
		id := fmt.Sprintf("drain-%d", i)
		c.mustStart(id)
		if _, err := c.rt.ObserveAndPredict(id, 1, 1); err != nil {
			t.Fatal(err)
		}
		if c.home(id) == target {
			victim = id
		}
	}
	if victim == "" {
		t.Fatalf("no session landed on %s", target)
	}

	// One failed probe demotes the target to Suspect (SuspectAfter 1),
	// then the replica comes back before any data-path call fails.
	c.gate.SetHostDown(hostOf(target), true)
	c.rt.ProbeAll(context.Background())
	c.revive(target)
	if st := c.rt.ReplicaStates()[target]; st != StateSuspect {
		t.Fatalf("replica state %s after one failed probe, want suspect", st)
	}

	// New sessions avoid the suspect replica...
	startsBefore := c.stubs[target].totalStarts()
	for i := 0; i < 16; i++ {
		c.mustStart(fmt.Sprintf("fresh-%d", i))
	}
	if got := c.stubs[target].totalStarts(); got != startsBefore {
		t.Errorf("suspect replica received %d new session starts", got-startsBefore)
	}

	// ...while the existing one drains to it, state intact.
	pred, err := c.rt.ObserveAndPredict(victim, 2, 1)
	if err != nil {
		t.Fatalf("observe on draining session: %v", err)
	}
	if want := 4.0; pred != want { // 1+2 + horizon 1
		t.Fatalf("draining session prediction %g, want %g (filter state lost?)", pred, want)
	}
	if h := c.home(victim); h != target {
		t.Fatalf("draining session migrated to %s without a data-path failure", h)
	}

	// A successful probe restores the replica and new sessions return.
	c.rt.ProbeAll(context.Background())
	if st := c.rt.ReplicaStates()[target]; st != StateHealthy {
		t.Fatalf("replica state %s after successful probe, want healthy", st)
	}
}

// TestRouterVersionSkewRefusal: a posterior cannot cross models, and the
// replica's import guard — not the router — is the authority on that. While
// a same-model replica lives, failover lands there exactly. With only a
// different-model replica left, its guard refuses the state (counted) and
// the session takes the one cold path: a fresh start from the new model's
// prior, with the pending observation applied on top.
func TestRouterVersionSkewRefusal(t *testing.T) {
	reg := obs.NewRegistry()
	c := newStubCluster(t, Config{Metrics: reg}, 1, 1, 2)
	c.rt.ProbeAll(context.Background())

	// Find a session homed on a v1 replica whose first failover candidate
	// is the v2 one, so the refusal is exercised while a v1 replica lives.
	var id string
	for i := 0; i < 64 && id == ""; i++ {
		cand := fmt.Sprintf("skew-%d", i)
		c.mustStart(cand)
		if _, err := c.rt.ObserveAndPredict(cand, 1, 1); err != nil {
			t.Fatal(err)
		}
		seq := c.rt.candidates(cand, false)
		if c.stubs[c.home(cand)].version == 1 && c.stubs[seq[1].name].version == 2 {
			id = cand
		}
	}
	if id == "" {
		t.Fatal("no v1-homed session with the v2 replica next in line")
	}
	refusals := reg.Counter("cs2p_router_version_skew_refusals_total", "", nil)

	// Kill its home: v2 is asked first and refuses; the other v1 replica
	// takes the state, so the prediction is the fault-free one.
	c.kill(c.home(id))
	pred, err := c.rt.ObserveAndPredict(id, 2, 1)
	if err != nil {
		t.Fatalf("failover with a same-version replica available: %v", err)
	}
	if want := 4.0; pred != want {
		t.Fatalf("post-failover prediction %g, want %g", pred, want)
	}
	if v := c.stubs[c.home(id)].version; v != 1 {
		t.Fatalf("session migrated onto model v%d, want v1", v)
	}
	if refusals.Value() == 0 {
		t.Error("the v2 replica refused the state but the counter is zero")
	}

	// Kill the second v1 replica too: only v2 remains. The session restarts
	// there from the prior — history gone, the pending observation applied.
	c.kill(c.home(id))
	pred, err = c.rt.ObserveAndPredict(id, 3, 1)
	if err != nil {
		t.Fatalf("failover across versions: %v", err)
	}
	if want := 3.0 + 1; pred != want {
		t.Fatalf("cold restart predicts %g, want %g (fresh session + the pending observation)", pred, want)
	}
	if v := c.stubs[c.home(id)].version; v != 2 {
		t.Fatalf("session on model v%d, want the v2 survivor", v)
	}
	// From there on the session is exact again under the new model.
	c.stubs[c.home(id)].wipe()
	if pred, err = c.rt.ObserveAndPredict(id, 4, 1); err != nil || pred != 3+4+1 {
		t.Fatalf("after the cold restart: prediction %g err %v, want %g", pred, err, 3.0+4+1)
	}
}

// TestRouterVersionSkewAllowed: recovery across a model change needs no
// escape hatch — with only a different-version replica alive, failover
// succeeds onto it.
func TestRouterVersionSkewAllowed(t *testing.T) {
	c := newStubCluster(t, Config{}, 1, 1, 2)
	c.rt.ProbeAll(context.Background())
	c.mustStart("skew-ok")
	if _, err := c.rt.ObserveAndPredict("skew-ok", 1, 1); err != nil {
		t.Fatal(err)
	}
	// Kill every replica except one with a different version than the
	// session started on; failover must still succeed.
	homeVer := c.stubs[c.home("skew-ok")].version
	var survivor string
	for _, n := range c.names {
		if c.stubs[n].version != homeVer && survivor == "" {
			survivor = n
			continue
		}
	}
	for _, n := range c.names {
		if n != survivor {
			c.kill(n)
		}
	}
	if _, err := c.rt.ObserveAndPredict("skew-ok", 2, 1); err != nil {
		t.Fatalf("failover onto a different model version: %v", err)
	}
	if h := c.home("skew-ok"); h != survivor {
		t.Fatalf("session on %s, want the sole survivor %s", h, survivor)
	}
}

// TestRouterUnknownSession: operations on unregistered sessions fail with
// the engine's error, not a panic or a silent migration.
func TestRouterUnknownSession(t *testing.T) {
	c := newStubCluster(t, Config{}, 1, 1)
	if _, err := c.rt.ObserveAndPredict("ghost", 1, 1); !errors.Is(err, engine.ErrUnknownSession) {
		t.Fatalf("observe ghost: %v, want ErrUnknownSession", err)
	}
	if _, err := c.rt.Predict("ghost", 1); !errors.Is(err, engine.ErrUnknownSession) {
		t.Fatalf("predict ghost: %v, want ErrUnknownSession", err)
	}
}

// TestRouterReplicaRestartReRegisters: a replica that restarts (state
// wiped, process back) answers 404 for its sessions; the router must
// re-install the session's state in place rather than fail the call.
func TestRouterReplicaRestartReRegisters(t *testing.T) {
	c := newStubCluster(t, Config{}, 1, 1, 1)
	const id = "restart-1"
	c.mustStart(id)
	for k := 1; k <= 3; k++ {
		if _, err := c.rt.ObserveAndPredict(id, float64(k), 1); err != nil {
			t.Fatal(err)
		}
	}
	home := c.home(id)
	c.stubs[home].wipe() // restart without an outage window
	pred, err := c.rt.ObserveAndPredict(id, 4, 1)
	if err != nil {
		t.Fatalf("observe after replica restart: %v", err)
	}
	if want := 11.0; pred != want { // sum(1..4) + 1
		t.Fatalf("post-restart prediction %g, want %g", pred, want)
	}
	if obs, _ := c.stubs[c.home(id)].observations(id); len(obs) != 4 {
		t.Fatalf("re-installed session holds %d observations, want 4", len(obs))
	}
}

// TestRouterEndSessionDeliversLog: the QoE log reaches some live replica
// even when the session's home is dead, and the session is forgotten.
func TestRouterEndSessionDeliversLog(t *testing.T) {
	c := newStubCluster(t, Config{}, 1, 1, 1)
	const id = "end-1"
	c.mustStart(id)
	if _, err := c.rt.ObserveAndPredict(id, 1, 1); err != nil {
		t.Fatal(err)
	}
	c.kill(c.home(id))
	c.rt.EndSession(engine.SessionLog{SessionID: id, QoE: 3.5})
	total := 0
	for _, sb := range c.stubs {
		total += sb.logCount()
	}
	if total != 1 {
		t.Fatalf("QoE log recorded %d times across the cluster, want 1", total)
	}
	if _, ok := c.rt.SessionHome(id); ok {
		t.Fatal("session still routed after EndSession")
	}
}

// TestRouterTotalOutage: with every replica dead, calls fail cleanly and
// the tier reports not-ready; recovery restores service (through the Down
// last-resort tier) without losing the session.
func TestRouterTotalOutage(t *testing.T) {
	c := newStubCluster(t, Config{}, 1, 1, 1)
	const id = "outage-1"
	c.mustStart(id)
	for k := 1; k <= 3; k++ {
		if _, err := c.rt.ObserveAndPredict(id, float64(k), 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range c.names {
		c.kill(n)
	}
	if _, err := c.rt.ObserveAndPredict(id, 4, 1); err == nil {
		t.Fatal("observe succeeded with every replica dead")
	}
	// Three probe rounds push every replica through suspect to down
	// (DownAfter default 3); only then does the tier report not-ready.
	for i := 0; i < 3; i++ {
		c.rt.ProbeAll(context.Background())
	}
	if h := c.rt.Health(); h.Ready {
		t.Error("router reports ready with every replica down")
	}
	// One replica returns. The observation answered 502 was not applied —
	// a failed op has no effect — so the recovered session is every
	// acknowledged observation plus the new one.
	c.revive(c.names[0])
	pred, err := c.rt.ObserveAndPredict(id, 5, 1)
	if err != nil {
		t.Fatalf("observe after partial recovery: %v", err)
	}
	if want := 12.0; pred != want { // 1+2+3 + 5 + 1
		t.Fatalf("recovered prediction %g, want %g (acknowledged history + the new sample)", pred, want)
	}
	if !c.rt.Health().Ready {
		t.Error("router still not ready after a replica recovered")
	}
}

// TestRouterStartValidationPassesThrough: a 4xx from the replica (input the
// whole cluster would reject) is returned as-is, not treated as replica
// failure — no health demotion, no pointless retries on other replicas.
func TestRouterStartValidationPassesThrough(t *testing.T) {
	c := newStubCluster(t, Config{}, 1, 1)
	long := strings.Repeat("x", 300)
	_, err := c.rt.Start("bad", trace.Features{ISP: long}, 0)
	if st := httpapi.HTTPStatus(err); st != http.StatusBadRequest {
		t.Fatalf("oversized feature: status %d (err %v), want 400", st, err)
	}
	for name, st := range c.rt.ReplicaStates() {
		if st != StateHealthy {
			t.Errorf("replica %s demoted to %s by a client input error", name, st)
		}
	}
}

// TestRouterImportSession: the router's half of client-side recovery. A
// router that has never heard of a session (it restarted) takes the state a
// client pushes through PUT /v1/session/{id}/state, places the session like
// a new one and holds the state as its record — so the very next failover is
// exact too. A state no replica's model guard accepts comes back 409, the
// client's signal to start afresh.
func TestRouterImportSession(t *testing.T) {
	c := newStubCluster(t, Config{}, 1, 1, 1)
	front := httptest.NewServer(c.rt.Handler())
	defer front.Close()
	cl := httpapi.NewClient(front.URL)
	ctx := context.Background()
	const id = "pushed-1"
	history := []float64{1, 2, 3, 4, 5}
	st := engine.SessionState{Schema: engine.SessionStateSchema, SessionID: id, ModelVersion: 1,
		Posterior: history, Started: true, Epoch: len(history)}
	if err := cl.ImportSession(ctx, st); err != nil {
		t.Fatalf("import through the router: %v", err)
	}
	if got, _ := c.stubs[c.home(id)].observations(id); !floatsEqual(got, history) {
		t.Fatalf("home holds %v after the import, want %v", got, history)
	}
	pred, err := cl.ObserveAndPredict(id, 6, 1)
	if err != nil || pred != 21+1 {
		t.Fatalf("observe after import: %g, %v; want 22", pred, err)
	}
	// The pushed state (plus the observation acknowledged since) is the
	// router's record: losing the home loses nothing.
	c.kill(c.home(id))
	if pred, err = cl.ObserveAndPredict(id, 7, 1); err != nil || pred != 28+1 {
		t.Fatalf("failover after import: %g, %v; want 29", pred, err)
	}

	st.SessionID, st.ModelVersion = "pushed-2", 9
	if err := cl.ImportSession(ctx, st); httpapi.HTTPStatus(err) != http.StatusConflict {
		t.Fatalf("state from a model no replica serves: %v, want 409", err)
	}
	if _, ok := c.rt.SessionHome("pushed-2"); ok {
		t.Error("a refused import left a routed session behind")
	}
}

// TestRouterStateRidesAllocFree: holding every session's last acknowledged
// state costs the data path no allocation in steady state — ack copies into
// the record's own posterior buffer.
func TestRouterStateRidesAllocFree(t *testing.T) {
	sess := &routedSession{}
	ws := wire.State{Posterior: []float64{0.2, 0.5, 0.3}, LastOneStep: 2.5, ModelVersion: 3, Epoch: 40, Started: true}
	sess.ack(&ws) // sizes the buffer
	if allocs := testing.AllocsPerRun(100, func() { sess.ack(&ws) }); allocs != 0 {
		t.Errorf("ack allocates %v per observation, want 0", allocs)
	}
	if sess.st.LastOneStep == nil || *sess.st.LastOneStep != 2.5 || sess.st.Epoch != 40 || !floatsEqual(sess.st.Posterior, ws.Posterior) {
		t.Errorf("record %+v does not hold the acknowledged state", sess.st)
	}
	ws.LastOneStep = math.NaN()
	if sess.ack(&ws); sess.st.LastOneStep != nil {
		t.Error("a NaN pending prediction must be recorded as none")
	}
}
