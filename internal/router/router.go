package router

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cs2p/internal/engine"
	"cs2p/internal/httpapi"
	"cs2p/internal/obs"
	"cs2p/internal/trace"
)

// ErrNoReplica means every eligible replica was tried (or refused for
// model-version skew) and none could serve the call.
var ErrNoReplica = errors.New("router: no usable replica")

// DefaultReplayWindow bounds the per-session observation window. The HMM
// posterior forgets its starting point within a handful of epochs, so 16
// replayed observations reconstruct a session's filter state to within
// floating-point noise of fault-free — and for sessions shorter than the
// window, exactly.
const DefaultReplayWindow = 16

// Config shapes a Router.
type Config struct {
	// Replicas are the initial cs2p-server base URLs
	// ("http://10.0.0.1:8642"). At least one is required; the set can then
	// change at runtime through AddReplica/RemoveReplica/DrainReplica (the
	// POST /v1/admin/replicas surface).
	Replicas []string
	// VNodes is the virtual-node count per replica (0 = DefaultVNodes).
	VNodes int
	// ReplayWindow bounds the per-session observation window kept for
	// failover replay (0 = DefaultReplayWindow). A migration replays the
	// window as one upstream batch, so it must fit the replicas'
	// -max-batch-ops.
	ReplayWindow int
	// Thresholds tunes the health state machine (zero fields default).
	Thresholds Thresholds
	// ProbeInterval paces RunHealthChecker (0 = 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (0 = 1s).
	ProbeTimeout time.Duration
	// AllowVersionSkew lets a session fail over onto a replica whose
	// probed model version differs from the one the session started on.
	// Off by default: divergent models give divergent predictions, and a
	// mid-session model change is exactly the inconsistency the version
	// probe exists to prevent. Replicas with unknown version (never
	// probed) are always eligible.
	AllowVersionSkew bool
	// Metrics, when set, receives the router instruments and is served at
	// GET /metrics.
	Metrics *obs.Registry
	// Logf is the router's logger (nil = log nothing).
	Logf func(format string, args ...any)
	// Now is the clock feeding health-state timestamps (nil = time.Now).
	// Tests inject a fake to make state-machine timing exact.
	Now func() time.Time
	// NewClient builds the per-replica data-path client (nil = NewClient
	// with default timeouts). The chaos harness injects fault transports
	// here. Per-chunk ops always travel as binary /v2/batch frames, whether
	// or not the client was switched to SetWireBinary.
	NewClient func(base string) *httpapi.Client
	// NewProbeClient builds the health-probe client (nil = NewClient
	// hook). Separate so tests can partition the probe path from the data
	// path — the classic failure where monitoring disagrees with reality.
	NewProbeClient func(base string) *httpapi.Client
}

// replica is one backend with its clients and health record. name doubles
// as the metrics label. Health fields are guarded by Router.mu.
type replica struct {
	name      string
	client    *httpapi.Client
	probe     *httpapi.Client
	health    healthState
	version   uint64 // last probed model version (0 = unknown)
	gen       uint64 // last probed model generation
	trainedAt int64  // last probed model training time (unix, 0 = unknown)
	// adminDrained records that THIS router ordered the drain; a probe
	// seeing a healthy (non-draining) healthz must not undo it. Drains
	// adopted from the replica's own healthz clear when the healthz does.
	adminDrained bool
}

// routedSession is the router's per-session record: where the session
// lives, what it takes to recreate it (features + replay window), and
// whether its home replica's filter state is still trusted. Its mutex
// serializes the session's operations — the same per-session discipline the
// engine applies — so a migration never interleaves with a concurrent
// observation for the same id.
type routedSession struct {
	mu        sync.Mutex
	home      string
	features  trace.Features
	startUnix int64
	// version pins the model version the session's predictions come from;
	// failover refuses candidates serving a different one.
	version uint64
	// recent is the bounded replay window of observations, oldest first.
	recent []float64
	// desync marks the home replica's filter state untrusted (a failed
	// observe may or may not have been applied); the next operation must
	// re-register and replay rather than forward.
	desync bool
}

// push appends an observation, sliding the window when full.
func (s *routedSession) push(w float64, window int) {
	if len(s.recent) >= window {
		copy(s.recent, s.recent[1:])
		s.recent[len(s.recent)-1] = w
		return
	}
	s.recent = append(s.recent, w)
}

// homeName reads the session's home replica under its lock.
func (s *routedSession) homeName() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.home
}

// Router consistent-hash-routes sessions across replicas and recovers them
// by replay when a replica dies. It implements httpapi.SessionService: the
// cluster presents the exact same surface as one process.
type Router struct {
	cfg Config
	th  Thresholds
	// mem owns the member set and the ring. mu guards mem's map/order,
	// sessions, and every replica's health/version fields; the ring inside
	// mem is read lock-free.
	mu       sync.Mutex
	mem      *Membership
	sessions map[string]*routedSession
	window   int
	now      func() time.Time
	logf     func(format string, args ...any)
	m        *routerMetrics
	start    time.Time
	// newClient/newProbe are the resolved client factories, kept so
	// AddReplica builds late joiners exactly like the initial set.
	newClient func(base string) *httpapi.Client
	newProbe  func(base string) *httpapi.Client
	// Handoff outcome counters (also mirrored to metrics): kept as plain
	// atomics so harnesses without a registry can still assert warm vs
	// replay.
	warmN, replayN, failedN atomic.Uint64
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
	if cfg.ReplayWindow <= 0 {
		cfg.ReplayWindow = DefaultReplayWindow
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	newClient := cfg.NewClient
	if newClient == nil {
		newClient = httpapi.NewClient
	}
	newProbe := cfg.NewProbeClient
	if newProbe == nil {
		newProbe = newClient
	}
	rt := &Router{
		cfg:       cfg,
		th:        cfg.Thresholds.withDefaults(),
		mem:       newMembership(cfg.VNodes),
		sessions:  make(map[string]*routedSession),
		window:    cfg.ReplayWindow,
		now:       cfg.Now,
		logf:      cfg.Logf,
		m:         newRouterMetrics(cfg.Metrics, names),
		start:     time.Now(),
		newClient: newClient,
		newProbe:  newProbe,
	}
	if rt.now == nil {
		rt.now = time.Now
	}
	if rt.logf == nil {
		rt.logf = func(string, ...any) {}
	}
	for _, n := range names {
		_ = rt.mem.addLocked(&replica{name: n, client: newClient(n), probe: newProbe(n)})
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

// modelAgeSeconds reports the staleness of the freshest model any non-Down
// replica serves, per the last probe round. 0 means unknown: nothing probed
// yet, or the replicas predate training timestamps.
func (rt *Router) modelAgeSeconds() float64 {
	rt.mu.Lock()
	var newest int64
	for _, rep := range rt.mem.replicas {
		if rep.health.state != StateDown && rep.trainedAt > newest {
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
		counts[rep.health.state]++
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
		out[n] = rep.health.state
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
	if rep == nil || rep.health.state == StateDown {
		return nil
	}
	return rep
}

// stateOf reads a replica's current health state.
func (rt *Router) stateOf(rep *replica) State {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rep.health.state
}

// versionOf reads a replica's last probed model version.
func (rt *Router) versionOf(rep *replica) uint64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rep.version
}

// reportOutcome feeds a data-path result into the replica's health state:
// a failed forward is evidence of trouble exactly like a failed probe, and
// folding it in makes failover reactive — the router notices a dead
// replica on the first request, not at the next probe tick. This is also
// what keeps the chaos runs deterministic: state transitions follow
// request order, not probe-timer phase.
func (rt *Router) reportOutcome(rep *replica, ok bool) {
	rt.mu.Lock()
	from, to := rep.health.observe(ok, rt.now(), rt.th)
	rt.mu.Unlock()
	if from != to {
		rt.m.setState(rep.name, to)
		rt.refreshReplicaCounts()
		rt.logf("router: replica %s %s -> %s", rep.name, from, to)
	}
}

// startCandidates orders the replicas for placing a NEW session: ring
// sequence within tiers of Healthy/Recovering first, then Suspect, then
// Draining, then Down as a last resort (a probe-path partition must not
// make the whole cluster unroutable when the replicas themselves are
// fine). Draining below Suspect: a drain is a promise the replica is
// leaving, so new sessions land there only when nothing else answers.
func (rt *Router) startCandidates(id string) []*replica {
	seq := rt.mem.Ring().Sequence(id)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var healthy, suspect, draining, down []*replica
	for _, name := range seq {
		rep := rt.mem.replicas[name]
		switch rep.health.state {
		case StateSuspect:
			suspect = append(suspect, rep)
		case StateDraining:
			draining = append(draining, rep)
		case StateDown:
			down = append(down, rep)
		default:
			healthy = append(healthy, rep)
		}
	}
	return append(append(append(healthy, suspect...), draining...), down...)
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
	var lastErr error
	for _, rep := range rt.startCandidates(id) {
		var resp engine.StartResponse
		oc, err := rt.call(rep, func(c *httpapi.Client) error {
			var err error
			resp, err = c.StartSession(id, f, startUnix)
			return err
		})
		switch oc {
		case callOK:
			sess := &routedSession{home: rep.name, features: f, startUnix: startUnix, version: rt.versionOf(rep)}
			rt.mu.Lock()
			rt.sessions[id] = sess
			n := len(rt.sessions)
			rt.mu.Unlock()
			rt.m.sessions.Set(float64(n))
			return resp, nil
		case callRejected:
			// Validation: every replica would say the same.
			return engine.StartResponse{}, err
		}
		lastErr = err
	}
	return engine.StartResponse{}, fmt.Errorf("router: start %s: %w", id, errors.Join(ErrNoReplica, lastErr))
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
	order := rt.orderSnapshot()
	tried := make(map[string]bool, len(order))
	candidates := make([]*replica, 0, len(order))
	if sess != nil {
		if rep := rt.usable(sess.homeName()); rep != nil {
			candidates = append(candidates, rep)
			tried[rep.name] = true
		}
	}
	for _, name := range order {
		if !tried[name] {
			if rep := rt.usable(name); rep != nil {
				candidates = append(candidates, rep)
			}
		}
	}
	for _, rep := range candidates {
		if oc, _ := rt.call(rep, func(c *httpapi.Client) error { return c.Log(lg) }); oc == callOK {
			return
		}
	}
	rt.logf("router: session %s QoE log dropped (no live replica)", lg.SessionID)
}

// failoverCandidates orders replicas for migrating an EXISTING session:
// ring sequence from the session's hash point in tiers of up, then
// Draining, then Down (both are still tried last — better a slow recovery
// than a lost session), with version-skewed replicas refused outright
// unless AllowVersionSkew. A session's version pin only binds when both
// sides are known (non-zero): an unprobed cluster must not refuse
// everything. Draining below up keeps a drain's own migrations from
// landing right back on the replica being emptied.
func (rt *Router) failoverCandidates(id string, sessVersion uint64) []*replica {
	seq := rt.mem.Ring().Sequence(id)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var up, draining, down []*replica
	for _, name := range seq {
		rep := rt.mem.replicas[name]
		if sessVersion != 0 && rep.version != 0 && rep.version != sessVersion && !rt.cfg.AllowVersionSkew {
			rt.m.skewRefusals.Inc()
			rt.logf("router: refusing %s for session migration: model v%d != session v%d", name, rep.version, sessVersion)
			continue
		}
		switch rep.health.state {
		case StateDown:
			down = append(down, rep)
		case StateDraining:
			draining = append(draining, rep)
		default:
			up = append(up, rep)
		}
	}
	return append(append(up, draining...), down...)
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
	remoteDraining := ok && hr.Status == httpapi.HealthzDraining
	rt.mu.Lock()
	if ok {
		rep.version = hr.ModelVersion
		rep.gen = hr.Generation
		rep.trainedAt = hr.TrainedAtUnix
	}
	from := rep.health.state
	var to State
	switch {
	case remoteDraining && from != StateDraining && from != StateDown:
		rep.health.state = StateDraining
		rep.health.fails, rep.health.successes = 0, 0
		rep.health.since = rt.now()
		to = StateDraining
	case ok && from == StateDraining && !rep.adminDrained && !remoteDraining:
		rep.health.state = StateHealthy
		rep.health.fails, rep.health.successes = 0, 0
		rep.health.since = rt.now()
		to = StateHealthy
	default:
		_, to = rep.health.observe(ok, rt.now(), rt.th)
	}
	rt.mu.Unlock()
	rt.m.probe(rep.name, ok)
	if from != to {
		rt.m.setState(rep.name, to)
		rt.refreshReplicaCounts()
		rt.logf("router: replica %s %s -> %s (probe)", rep.name, from, to)
	}
}

// modelSkew counts distinct known model versions among non-Down replicas,
// minus one (floor 0). A converged cluster scores 0.
func (rt *Router) modelSkew() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	versions := make(map[uint64]bool)
	for _, rep := range rt.mem.replicas {
		if rep.health.state != StateDown && rep.version != 0 {
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
