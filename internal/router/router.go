package router

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"cs2p/internal/engine"
	"cs2p/internal/health"
	"cs2p/internal/httpapi"
	"cs2p/internal/obs"
	"cs2p/internal/trace"
	"cs2p/internal/wire"
)

// ErrNoReplica means every eligible replica was tried and none could serve
// the call.
var ErrNoReplica = errors.New("router: no usable replica")

// State is a replica's position in the health machine (package health),
// under the names the router has always given its five states.
type State = health.State

// Health states, in gauge-value order.
const (
	StateHealthy    = health.Healthy
	StateSuspect    = health.Suspect
	StateDown       = health.Down
	StateRecovering = health.Recovering
	StateDraining   = health.Draining
)

// Config shapes a Router.
type Config struct {
	// Replicas are the initial cs2p-server base URLs
	// ("http://10.0.0.1:8642"). At least one is required; the set can then
	// change at runtime through AddReplica/RemoveReplica/DrainReplica (the
	// POST /v1/admin/replicas surface).
	Replicas []string
	// VNodes is the virtual-node count per replica (0 = DefaultVNodes).
	VNodes int
	// Thresholds tunes the health state machine (zero fields default).
	Thresholds health.Thresholds
	// ProbeInterval paces RunHealthChecker (0 = 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (0 = 1s).
	ProbeTimeout time.Duration
	// Metrics, when set, receives the router instruments and is served at
	// GET /metrics.
	Metrics *obs.Registry
	// Logf is the router's logger (nil = log nothing).
	Logf func(format string, args ...any)
	// Now is the clock feeding health-state timestamps (nil = time.Now).
	// Tests inject a fake to make state-machine timing exact.
	Now func() time.Time
	// NewClient builds the per-replica data-path client (nil = a client over
	// httpapi.NewStreamTransport, the stream carrier). The chaos harness
	// injects fault transports here. Per-chunk ops always travel as binary
	// /v2/batch frames, whether or not the client was switched to
	// SetWireBinary.
	NewClient func(base string) *httpapi.Client
	// NewProbeClient builds the health-probe client (nil = the NewClient
	// hook if set, else httpapi.NewClient). Separate so tests can partition
	// the probe path from the data path — the classic failure where
	// monitoring disagrees with reality.
	NewProbeClient func(base string) *httpapi.Client
}

// replica is one backend with its clients and health record. name doubles
// as the metrics label. Health fields are guarded by Router.mu.
type replica struct {
	name      string
	client    *httpapi.Client
	probe     *httpapi.Client
	streams   *http.Client // client's, over the stream carrier, for removal to close (nil under Config.NewClient)
	health    health.Machine
	version   uint64 // last probed model version (0 = unknown)
	trainedAt int64  // last probed model training time (unix, 0 = unknown)
}

// routedSession is the router's per-session record: where the session
// lives, the last state a replica acknowledged for it, and whether its home
// replica's copy is still trusted. Its mutex serializes the session's
// operations, as the engine's does, so a migration never interleaves with a
// concurrent observation for the same id.
type routedSession struct {
	mu   sync.Mutex
	home string
	// st is everything it takes to recreate the session anywhere: identity
	// from its start, and the filter state that came back with its last
	// acknowledged observation. An empty Posterior means none yet: the
	// session stands at Algorithm 1's prior, which a fresh StartSession
	// reproduces. lastOneStep backs st.LastOneStep without allocating.
	st          engine.SessionState
	lastOneStep float64
	// desync marks the home replica's copy untrusted (a failed observe may
	// or may not have been applied); the next operation must migrate
	// rather than forward.
	desync bool
}

// ack records the state returned with an acknowledged observation, reusing
// the posterior buffer (none returned leaves the record empty).
func (s *routedSession) ack(ws *wire.State) {
	s.st.Posterior = append(s.st.Posterior[:0], ws.Posterior...)
	s.st.Started, s.st.Epoch = ws.Started, int(ws.Epoch)
	s.st.ModelVersion, s.st.ModelGeneration = ws.ModelVersion, ws.ModelGeneration
	s.lastOneStep, s.st.LastOneStep = ws.LastOneStep, nil
	if !math.IsNaN(ws.LastOneStep) {
		s.st.LastOneStep = &s.lastOneStep
	}
}

// homeName reads the session's home replica under its lock.
func (s *routedSession) homeName() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.home
}

// Router consistent-hash-routes sessions across replicas and, when one dies
// or drains, recreates its sessions elsewhere from their last acknowledged
// state. It implements httpapi.SessionService: the cluster presents the
// exact same surface as one process.
type Router struct {
	cfg Config
	th  health.Thresholds
	// mem owns the member set and the ring. mu guards mem's map/order,
	// sessions, and every replica's health/version fields; the ring inside
	// mem is read lock-free.
	mu       sync.Mutex
	mem      *Membership
	sessions map[string]*routedSession
	now      func() time.Time
	logf     func(format string, args ...any)
	m        *routerMetrics
	// newProbe is the resolved probe-client factory, kept with cfg.NewClient
	// so AddReplica builds late joiners exactly like the initial set.
	newProbe func(base string) *httpapi.Client
	// Handoff outcome counters (also mirrored to metrics): kept as plain
	// atomics so harnesses without a registry can still assert them.
	warmN, failedN atomic.Uint64
	// srv is the embedded httpapi server presenting the router over HTTP,
	// built once on first Handler/Run call.
	srvInit sync.Once
	srv     *httpapi.Server
}

// New builds a Router over an initial replica set.
func New(cfg Config) (*Router, error) {
	seed := NewRing(cfg.VNodes)
	seed.SetReplicas(cfg.Replicas)
	names := seed.Replicas()
	if len(names) == 0 {
		return nil, errors.New("router: at least one replica required")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	newProbe := cfg.NewProbeClient
	if newProbe == nil {
		newProbe = cfg.NewClient
	}
	if newProbe == nil {
		newProbe = httpapi.NewClient
	}
	rt := &Router{
		cfg:      cfg,
		th:       cfg.Thresholds.WithDefaults(),
		mem:      newMembership(cfg.VNodes),
		sessions: make(map[string]*routedSession),
		now:      cfg.Now,
		logf:     cfg.Logf,
		m:        newRouterMetrics(cfg.Metrics, names),
		newProbe: newProbe,
	}
	if rt.now == nil {
		rt.now = time.Now
	}
	if rt.logf == nil {
		rt.logf = func(string, ...any) {}
	}
	for _, n := range names {
		_ = rt.mem.addLocked(rt.newReplica(n))
		rt.m.setState(n, StateHealthy)
	}
	rt.refreshReplicaCounts()
	if cfg.Metrics != nil {
		// Model age is computed at scrape time from the probed replica
		// training timestamps (a pushed gauge would freeze between probes).
		cfg.Metrics.GaugeFunc("cs2p_model_age_seconds",
			"Seconds since the newest model among live replicas was trained (0 when unknown).", nil,
			rt.modelAgeSeconds)
	}
	return rt, nil
}

// newReplica builds a member's record and clients. Without Config.NewClient
// the data path rides the stream carrier under an http.Client with no
// Timeout: over any RoundTripper but *http.Transport, net/http enforces one
// with a goroutine, a timer and two channels per request (client.go,
// setRequestCancel). The transport bounds every call at 5 s itself.
func (rt *Router) newReplica(name string) *replica {
	rep := &replica{name: name, probe: rt.newProbe(name)}
	if rt.cfg.NewClient != nil {
		rep.client = rt.cfg.NewClient(name)
	} else {
		rep.streams = &http.Client{Transport: httpapi.NewStreamTransport()}
		rep.client = httpapi.NewClientWith(name, rep.streams)
	}
	return rep
}

// modelAgeSeconds reports the staleness of the freshest model any non-Down
// replica serves, per the last probe round. 0 means unknown: nothing probed
// yet, or the replicas predate training timestamps.
func (rt *Router) modelAgeSeconds() float64 {
	rt.mu.Lock()
	var newest int64
	for _, rep := range rt.mem.replicas {
		if rep.health.State() != StateDown && rep.trainedAt > newest {
			newest = rep.trainedAt
		}
	}
	rt.mu.Unlock()
	if newest == 0 {
		return 0
	}
	if age := rt.now().Sub(time.Unix(newest, 0)).Seconds(); age > 0 {
		return age
	}
	return 0
}

// Replicas returns the current member names, sorted.
func (rt *Router) Replicas() []string { return rt.mem.Ring().Replicas() }

// orderSnapshot copies the sorted member order for iteration outside the
// lock — membership changes mutate the underlying slice.
func (rt *Router) orderSnapshot() []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]string(nil), rt.mem.order...)
}

// refreshReplicaCounts republishes the per-state member-count gauges.
func (rt *Router) refreshReplicaCounts() {
	rt.mu.Lock()
	counts := make(map[State]int, len(allStates))
	for _, rep := range rt.mem.replicas {
		counts[rep.health.State()]++
	}
	rt.mu.Unlock()
	rt.m.setReplicaCounts(counts)
}

// SessionHome reports which replica currently serves a session.
func (rt *Router) SessionHome(id string) (string, bool) {
	rt.mu.Lock()
	sess := rt.sessions[id]
	rt.mu.Unlock()
	if sess == nil {
		return "", false
	}
	return sess.homeName(), true
}

// ReplicaStates snapshots every replica's health state.
func (rt *Router) ReplicaStates() map[string]State {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[string]State, len(rt.mem.replicas))
	for n, rep := range rt.mem.replicas {
		out[n] = rep.health.State()
	}
	return out
}

// usable returns the replica unless it is Down or no longer a member — the
// only conditions the data path refuses to talk to. Suspect, Recovering,
// and Draining replicas keep serving the sessions they already hold, they
// just stop getting new ones.
func (rt *Router) usable(name string) *replica {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rep := rt.mem.replicas[name]
	if rep == nil || rep.health.State() == StateDown {
		return nil
	}
	return rep
}

// reportOutcome feeds a data-path result into the replica's health state:
// a failed forward is evidence of trouble exactly like a failed probe, and
// folding it in makes failover reactive — the router notices a dead
// replica on the first request, not at the next probe tick. This is also
// what keeps the chaos runs deterministic: state transitions follow
// request order, not probe-timer phase.
func (rt *Router) reportOutcome(rep *replica, ok bool) {
	rt.mu.Lock()
	from, to := rep.health.Observe(ok, rt.now(), rt.th)
	rt.mu.Unlock()
	rt.moved(rep.name, from, to, "")
}

// moved publishes a replica's state transition, if it is one.
func (rt *Router) moved(name string, from, to State, why string) {
	if from != to {
		rt.m.setState(name, to)
		rt.refreshReplicaCounts()
		rt.logf("router: replica %s %s -> %s%s", name, from, to, why)
	}
}

// candidates orders the replicas a session may be put on: ring sequence from
// its hash point within tiers of up first, then Draining (the replica is
// leaving, and a drain's own migrations must not land right back on it),
// then Down as a last resort (a probe-path partition must not make the
// cluster unroutable; better a slow recovery than a lost session). Placing a
// NEW session also holds Suspect replicas back, below the rest of up. Model
// versions play no part: taking a session's state is the import guard's call.
func (rt *Router) candidates(id string, newSession bool) []*replica {
	seq := rt.mem.Ring().Sequence(id)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var tiers [4][]*replica // up, suspect, draining, down
	for _, name := range seq {
		rep := rt.mem.replicas[name]
		t := 0
		switch {
		case rep.health.State() == StateSuspect && newSession:
			t = 1
		case rep.health.State() == StateDraining:
			t = 2
		case rep.health.State() == StateDown:
			t = 3
		}
		tiers[t] = append(tiers[t], rep)
	}
	return append(append(append(tiers[0], tiers[1]...), tiers[2]...), tiers[3]...)
}

// StartSession implements httpapi.SessionService: place the session on the
// first usable replica in ring order and remember how to recreate it.
func (rt *Router) StartSession(id string, f trace.Features, startUnix int64) engine.StartResponse {
	resp, _ := rt.Start(id, f, startUnix)
	return resp
}

// Start is StartSession with the error: the HTTP handler uses it to
// propagate total-cluster-outage as 502 instead of a zero response.
func (rt *Router) Start(id string, f trace.Features, startUnix int64) (engine.StartResponse, error) {
	var resp engine.StartResponse
	st := engine.SessionState{Schema: engine.SessionStateSchema, SessionID: id, Features: f, StartUnix: startUnix}
	err := rt.place(&st, func(c *httpapi.Client) (err error) {
		resp, err = c.StartSession(id, f, startUnix)
		st.ClusterID = resp.ClusterID
		return err
	})
	return resp, err
}

// ImportSession implements httpapi.SessionImporter: a client that lost step
// with its session (or whose router forgot it) pushes the state, and the
// router places it like a new session, state and all.
func (rt *Router) ImportSession(st engine.SessionState) error {
	return rt.place(&st, func(c *httpapi.Client) error { return c.ImportSession(context.TODO(), st) })
}

// place runs install against the start candidates until one answers, then
// routes the session there with *st as its record. A refusal (validation,
// the model guard) ends the walk: every replica would say the same.
func (rt *Router) place(st *engine.SessionState, install func(c *httpapi.Client) error) error {
	var lastErr error
	for _, rep := range rt.candidates(st.SessionID, true) {
		oc, err := rt.call(context.TODO(), rep, install)
		switch oc {
		case callOK:
			rt.mu.Lock()
			rt.sessions[st.SessionID] = &routedSession{home: rep.name, st: *st}
			n := len(rt.sessions)
			rt.mu.Unlock()
			rt.m.sessions.Set(float64(n))
			return nil
		case callRejected:
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("router: placing %s: %w", st.SessionID, errors.Join(ErrNoReplica, lastErr))
}

// EndSession implements httpapi.SessionService: forget the session and
// deliver the QoE log to any live replica (the log plane is per-cluster,
// not per-session — any replica can record it).
func (rt *Router) EndSession(lg engine.SessionLog) {
	rt.mu.Lock()
	sess := rt.sessions[lg.SessionID]
	delete(rt.sessions, lg.SessionID)
	n := len(rt.sessions)
	rt.mu.Unlock()
	rt.m.sessions.Set(float64(n))
	home := "" // tried first: it holds the session's intake capture
	if sess != nil {
		home = sess.homeName()
	}
	for i, name := range append([]string{home}, rt.orderSnapshot()...) {
		if rep := rt.usable(name); rep != nil && (i == 0 || name != home) {
			if oc, _ := rt.call(context.TODO(), rep, func(c *httpapi.Client) error { return c.Log(lg) }); oc == callOK {
				return
			}
		}
	}
	rt.logf("router: session %s QoE log dropped (no live replica)", lg.SessionID)
}

// ProbeAll runs one synchronous health-probe round in deterministic
// (sorted) replica order, recording each replica's readiness, model
// version, and generation, then refreshes the model-skew gauge.
func (rt *Router) ProbeAll(ctx context.Context) {
	for _, name := range rt.orderSnapshot() {
		rt.mu.Lock()
		rep := rt.mem.replicas[name]
		rt.mu.Unlock()
		if rep == nil {
			continue // removed since the snapshot
		}
		rt.probeOne(ctx, rep)
	}
	rt.m.modelSkew.Set(float64(rt.modelSkew()))
}

// probeOne probes a single replica and folds the result into its health
// state. A replica whose own healthz reports "draining" is adopted into
// StateDraining (someone drained it out-of-band — e.g. its process caught
// SIGTERM with -drain-on-shutdown); a drain this router did NOT order
// clears when the replica's healthz does.
func (rt *Router) probeOne(ctx context.Context, rep *replica) {
	pctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	hr, err := rep.probe.Readiness(pctx)
	cancel()
	ok := err == nil
	rt.mu.Lock()
	from := rep.health.State()
	to := from
	if ok {
		rep.version = hr.ModelVersion
		rep.trainedAt = hr.TrainedAtUnix
		_, to = rep.health.Report(hr.Status == httpapi.HealthzDraining, rt.now())
	}
	if to == from {
		_, to = rep.health.Observe(ok, rt.now(), rt.th)
	}
	rt.mu.Unlock()
	rt.m.probe(rep.name, ok)
	rt.moved(rep.name, from, to, " (probe)")
}

// modelSkew counts distinct known model versions among non-Down replicas,
// minus one (floor 0). A converged cluster scores 0.
func (rt *Router) modelSkew() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	versions := make(map[uint64]bool)
	for _, rep := range rt.mem.replicas {
		if rep.health.State() != StateDown && rep.version != 0 {
			versions[rep.version] = true
		}
	}
	if len(versions) <= 1 {
		return 0
	}
	return len(versions) - 1
}

// RunHealthChecker probes all replicas on the configured interval until
// ctx is cancelled.
func (rt *Router) RunHealthChecker(ctx context.Context) {
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.ProbeAll(ctx)
		}
	}
}
