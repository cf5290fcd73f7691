package router

import (
	"context"
	"errors"
	"fmt"
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
)

// stubBackend implements httpapi.SessionService (plus HealthReporter) with
// a prediction that is a pure function of the observation history:
// sum(observations) + horizon. That makes replay fidelity directly
// checkable — a migrated session predicts exactly what an uninterrupted
// one would if and only if the router replayed the full history.
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
			res[i] = engine.BatchResult{Code: engine.BatchUnknownSession}
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
// posterior slot: the stub's entire "filter state" IS the history, so a
// warm handoff is exact iff the full history arrives — which makes warm vs
// replay directly distinguishable once the history outgrows the replay
// window.
func (s *stubBackend) ExportSession(id string) (engine.SessionState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obs, ok := s.sessions[id]
	if !ok {
		return engine.SessionState{}, engine.ErrUnknownSession
	}
	st := engine.SessionState{
		Schema:    engine.SessionStateSchema,
		SessionID: id,
		Posterior: append([]float64(nil), obs...),
		Started:   len(obs) > 0,
		Epoch:     len(obs),
	}
	if hook := s.onExport; hook != nil {
		s.mu.Unlock()
		hook()
		s.mu.Lock()
	}
	return st, nil
}

func (s *stubBackend) ImportSession(st engine.SessionState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.refuseImport {
		return fmt.Errorf("%w: stub refuses transfers", engine.ErrSessionStateModelMismatch)
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

func (s *stubBackend) startCount(id string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.starts[id]
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

// stubCluster is N stub replicas behind one Router, with a HostGate on
// every client transport so tests can kill, revive, and slow individual
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
	c := &stubCluster{t: t, gate: faultinject.NewHostGate(nil), stubs: make(map[string]*stubBackend)}
	for _, v := range versions {
		sb := newStubBackend(v)
		srv := httpapi.NewServer(sb, nil)
		srv.SetLogf(func(string, ...any) {})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		c.stubs[ts.URL] = sb
		c.names = append(c.names, ts.URL)
	}
	cfg.Replicas = c.names
	if cfg.NewClient == nil {
		cfg.NewClient = func(base string) *httpapi.Client {
			return httpapi.NewClientWith(base, &http.Client{Transport: c.gate, Timeout: 5 * time.Second})
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
// uninterrupted run would have produced, because the full observation
// history was replayed.
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
		t.Fatalf("new home has %d observations, want the full replayed history of 6", len(obs))
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

// TestRouterReplayWindowBound: with a window smaller than the history, a
// migration replays only the last W observations.
func TestRouterReplayWindowBound(t *testing.T) {
	c := newStubCluster(t, Config{ReplayWindow: 4}, 1, 1, 1)
	const id = "window-1"
	c.mustStart(id)
	for k := 1; k <= 6; k++ {
		if _, err := c.rt.ObserveAndPredict(id, float64(k), 1); err != nil {
			t.Fatal(err)
		}
	}
	c.kill(c.home(id))
	pred, err := c.rt.ObserveAndPredict(id, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Window holds [4 5 6 7]: sum 22 + horizon 1.
	if want := 23.0; pred != want {
		t.Fatalf("windowed replay prediction %g, want %g", pred, want)
	}
	obs, _ := c.stubs[c.home(id)].observations(id)
	if len(obs) != 4 {
		t.Fatalf("new home has %d observations, want the 4-wide window", len(obs))
	}
}

// TestRouterPredictFailover: a stateless horizon query also survives a dead
// home, answered from the replayed stream.
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
		t.Fatalf("predict failover replayed %d observations, want 4", len(obs))
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

// TestRouterVersionSkewRefusal: failover must not move a session onto a
// replica serving a different model version — predictions would jump for
// reasons no player could explain. With no same-version replica left, the
// call fails instead.
func TestRouterVersionSkewRefusal(t *testing.T) {
	reg := obs.NewRegistry()
	c := newStubCluster(t, Config{Metrics: reg}, 1, 1, 2)
	c.rt.ProbeAll(context.Background()) // record versions

	// Find a session homed on a v1 replica.
	var id string
	for i := 0; i < 32; i++ {
		cand := fmt.Sprintf("skew-%d", i)
		c.mustStart(cand)
		if _, err := c.rt.ObserveAndPredict(cand, 1, 1); err != nil {
			t.Fatal(err)
		}
		if c.stubs[c.home(cand)].version == 1 {
			id = cand
			break
		}
	}
	if id == "" {
		t.Fatal("no session landed on a v1 replica")
	}

	// Kill its home: migration must pick the OTHER v1 replica, never v2.
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

	// Kill the second v1 replica too: only v2 remains, and strict mode
	// refuses it.
	c.kill(c.home(id))
	if _, err := c.rt.ObserveAndPredict(id, 3, 1); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("failover across versions: err = %v, want ErrNoReplica", err)
	}
	if n := reg.Counter("cs2p_router_version_skew_refusals_total", "", nil).Value(); n == 0 {
		t.Error("skew refusals happened but the counter is zero")
	}
}

// TestRouterVersionSkewAllowed: the escape hatch works.
func TestRouterVersionSkewAllowed(t *testing.T) {
	c := newStubCluster(t, Config{AllowVersionSkew: true}, 1, 1, 2)
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
		t.Fatalf("failover with AllowVersionSkew: %v", err)
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
// re-register and replay in place rather than fail the call.
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
	if got := c.stubs[c.home(id)].startCount(id); got < 2 {
		t.Fatalf("session was not re-registered (start count %d)", got)
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
	// One replica returns; the pending observation was kept in the window,
	// so the recovered prediction includes it AND the new one.
	c.revive(c.names[0])
	pred, err := c.rt.ObserveAndPredict(id, 5, 1)
	if err != nil {
		t.Fatalf("observe after partial recovery: %v", err)
	}
	if want := 16.0; pred != want { // sum(1..5) + 1
		t.Fatalf("recovered prediction %g, want %g (lost observations?)", pred, want)
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
