package router

import (
	"sync"

	"cs2p/internal/obs"
)

// allStates enumerates the health states for the per-state replica-count
// gauges, in gauge-value order.
var allStates = []State{StateHealthy, StateSuspect, StateDown, StateRecovering, StateDraining}

// routerMetrics caches the router's instruments. Per-replica handles are
// built eagerly for the initial set and on demand as membership changes;
// mu guards the maps (the handles themselves are concurrency-safe). The
// zero value (no registry) is inert: obs instruments no-op on nil receivers
// and lookups on nil maps return nil.
type routerMetrics struct {
	reg *obs.Registry
	// failovers counts data-path session recoveries: migrations to another
	// replica and re-installs on a restarted home alike.
	failovers *obs.Counter
	// skewRefusals counts failover candidates whose model guard refused a
	// session's state (they serve a different model than the one the
	// posterior indexes).
	skewRefusals *obs.Counter
	// modelSkew gauges how many distinct model versions the live replicas
	// currently serve, minus one — 0 is a converged cluster.
	modelSkew *obs.Gauge
	// sessions gauges the router's live routed-session count.
	sessions *obs.Gauge
	// panics counts handler panics absorbed by the recovery middleware.
	panics *obs.Counter
	// handoffWarm/handoffFailed count drain-driven session handoffs
	// (cs2p_router_handoffs_total{outcome}): moved with exact filter state,
	// or taken by no other member — the session stays put until its next
	// operation retries.
	handoffWarm, handoffFailed *obs.Counter
	// replicaCount gauges the member count per health state
	// (cs2p_router_replicas{state=...}).
	replicaCount map[State]*obs.Gauge
	// mu guards the per-replica maps below: membership changes add entries
	// while the data path reads them.
	mu sync.RWMutex
	// state is the per-replica health gauge (values are State:
	// 0 healthy, 1 suspect, 2 down, 3 recovering, 4 draining).
	state map[string]*obs.Gauge
	// requests counts forwarded data-path calls by replica and outcome
	// ("ok" / "error").
	requests map[string]map[string]*obs.Counter
	// probes counts health probes by replica and result ("ok" / "fail").
	probes map[string]map[string]*obs.Counter
}

// newRouterMetrics binds the router instruments for the given replica set.
func newRouterMetrics(reg *obs.Registry, replicas []string) *routerMetrics {
	if reg == nil {
		return &routerMetrics{}
	}
	m := &routerMetrics{
		reg: reg,
		failovers: reg.Counter("cs2p_router_failovers_total",
			"Sessions recreated from their last acknowledged state (migration or re-install on a restarted home).", nil),
		skewRefusals: reg.Counter("cs2p_router_version_skew_refusals_total",
			"Failover candidates that refused a session's state for serving a divergent model.", nil),
		modelSkew: reg.Gauge("cs2p_router_model_skew",
			"Distinct model versions across live replicas minus one (0 = converged).", nil),
		sessions: reg.Gauge("cs2p_router_sessions",
			"Sessions currently routed.", nil),
		panics: reg.Counter("cs2p_router_panics_total",
			"Router handler panics absorbed by the recovery middleware.", nil),
		replicaCount: make(map[State]*obs.Gauge, len(allStates)),
		state:        make(map[string]*obs.Gauge, len(replicas)),
		requests:     make(map[string]map[string]*obs.Counter, len(replicas)),
		probes:       make(map[string]map[string]*obs.Counter, len(replicas)),
	}
	const handoffHelp = "Drain-driven session handoffs by outcome (warm = exact state transfer, failed = no member took it)."
	m.handoffWarm = reg.Counter("cs2p_router_handoffs_total", handoffHelp, obs.Labels{"outcome": "warm"})
	m.handoffFailed = reg.Counter("cs2p_router_handoffs_total", handoffHelp, obs.Labels{"outcome": "failed"})
	for _, s := range allStates {
		m.replicaCount[s] = reg.Gauge("cs2p_router_replicas",
			"Cluster members per health state.",
			obs.Labels{"state": s.String()})
	}
	for _, r := range replicas {
		m.ensureReplica(r)
	}
	return m
}

// ensureReplica builds the per-replica handles if they do not exist yet —
// the dynamic-membership hook. Registering the same (name, help, labels)
// twice in obs returns the existing instrument, so this is idempotent.
func (m *routerMetrics) ensureReplica(r string) {
	if m.reg == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.state[r]; ok {
		return
	}
	m.state[r] = m.reg.Gauge("cs2p_router_replica_state",
		"Replica health state (0 healthy, 1 suspect, 2 down, 3 recovering, 4 draining).",
		obs.Labels{"replica": r})
	m.requests[r] = map[string]*obs.Counter{
		"ok": m.reg.Counter("cs2p_router_requests_total",
			"Data-path calls forwarded to replicas by outcome.",
			obs.Labels{"replica": r, "outcome": "ok"}),
		"error": m.reg.Counter("cs2p_router_requests_total",
			"Data-path calls forwarded to replicas by outcome.",
			obs.Labels{"replica": r, "outcome": "error"}),
	}
	m.probes[r] = map[string]*obs.Counter{
		"ok": m.reg.Counter("cs2p_router_probes_total",
			"Health probes by replica and result.",
			obs.Labels{"replica": r, "result": "ok"}),
		"fail": m.reg.Counter("cs2p_router_probes_total",
			"Health probes by replica and result.",
			obs.Labels{"replica": r, "result": "fail"}),
	}
}

// request records one forwarded call's outcome.
func (m *routerMetrics) request(replica string, ok bool) {
	outcome := "error"
	if ok {
		outcome = "ok"
	}
	m.mu.RLock()
	c := m.requests[replica]
	m.mu.RUnlock()
	c[outcome].Inc()
}

// probe records one health probe's result.
func (m *routerMetrics) probe(replica string, ok bool) {
	result := "fail"
	if ok {
		result = "ok"
	}
	m.mu.RLock()
	c := m.probes[replica]
	m.mu.RUnlock()
	c[result].Inc()
}

// setState mirrors a replica's health state onto its gauge.
func (m *routerMetrics) setState(replica string, s State) {
	m.mu.RLock()
	g := m.state[replica]
	m.mu.RUnlock()
	g.Set(float64(s))
}

// setReplicaCounts publishes the per-state member counts. States absent
// from counts read as zero, so a state's gauge falls when its last member
// leaves it.
func (m *routerMetrics) setReplicaCounts(counts map[State]int) {
	for _, s := range allStates {
		m.replicaCount[s].Set(float64(counts[s]))
	}
}
