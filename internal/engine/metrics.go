package engine

import (
	"strconv"

	"cs2p/internal/obs"
)

// serviceMetrics caches every instrument the service touches so the hot
// path never takes the registry lock. A zero serviceMetrics (nil handles)
// is fully inert — obs instruments are nil-safe — so services without a
// registry pay one nil check per event.
type serviceMetrics struct {
	reg *obs.Registry

	sessionsActive  *obs.Gauge
	sessionsStarted *obs.Counter
	sessionsEnded   *obs.Counter
	gcEvictions     *obs.Counter
	logEvictions    *obs.Counter

	// Sharded-store balance: per-shard occupancy (index-aligned with the
	// store's shard ids) and the max/mean skew summary.
	shardSessions []*obs.Gauge
	shardSkew     *obs.Gauge

	modelGeneration *obs.Gauge

	// Model-lifecycle plane: artifact version being served, gate outcomes,
	// and operator rollbacks (cs2p_model_age_seconds is a scrape-time
	// GaugeFunc registered by SetMetrics, since age drifts with the clock).
	modelVersion       *obs.Gauge
	promotionsAccepted *obs.Counter
	promotionsRejected *obs.Counter
	rollbacks          *obs.Counter

	lockWait *obs.Histogram

	// Start path: rebuffer-forecast memo hits and cold fills (one per
	// cluster model per generation), and what each fill cost.
	forecastHit     *obs.Counter
	forecastMiss    *obs.Counter
	forecastSeconds *obs.Histogram

	// Prediction-quality pipeline (the live analogue of Figures 9-11):
	// per-epoch absolute percentage error split initial/midstream, the
	// cluster-hit vs global-fallback rate, and the HMM posterior entropy.
	epochs          *obs.Counter
	apeInitial      *obs.Histogram
	apeMidstream    *obs.Histogram
	clusterHit      *obs.Counter
	clusterFallback *obs.Counter
	entropy         *obs.Histogram

	// Online-learning plane: streaming intake accounting, drift checks on
	// the live midstream-APE window, and drift-triggered retrain outcomes.
	ingestAccepted        *obs.Counter
	ingestEvicted         *obs.Counter
	ingestRejected        *obs.Counter
	intakeBuffered        *obs.Gauge
	driftChecks           *obs.Counter
	driftFired            *obs.Counter
	onlineRetrainAccepted *obs.Counter
	onlineRetrainRejected *obs.Counter
	onlineRetrainFailed   *obs.Counter
}

// newServiceMetrics registers (or re-binds) the engine's instruments on reg
// for a service with the given session-store shard count. A nil reg yields
// the inert zero value.
func newServiceMetrics(reg *obs.Registry, shards int) serviceMetrics {
	if reg == nil {
		return serviceMetrics{}
	}
	shardSessions := make([]*obs.Gauge, shards)
	for i := range shardSessions {
		shardSessions[i] = reg.Gauge("cs2p_engine_shard_sessions",
			"Playback sessions registered per session-store shard.",
			obs.Labels{"shard": strconv.Itoa(i)})
	}
	return serviceMetrics{
		reg: reg,

		shardSessions: shardSessions,
		shardSkew: reg.Gauge("cs2p_engine_shard_skew_ratio",
			"Session-store balance: max shard occupancy over mean (1.0 = perfectly balanced, 0 = empty).", nil),

		sessionsActive: reg.Gauge("cs2p_engine_sessions_active",
			"Playback sessions currently registered.", nil),
		sessionsStarted: reg.Counter("cs2p_engine_sessions_started_total",
			"Sessions opened via StartSession (duplicates reset and recount).", nil),
		sessionsEnded: reg.Counter("cs2p_engine_sessions_ended_total",
			"Sessions closed by an end-of-playback QoE log.", nil),
		gcEvictions: reg.Counter("cs2p_engine_session_evictions_total",
			"Sessions evicted, by reason.", obs.Labels{"reason": "idle"}),
		logEvictions: reg.Counter("cs2p_engine_log_evictions_total",
			"QoE log entries evicted from the bounded session-log ring.", nil),

		modelGeneration: reg.Gauge("cs2p_engine_model_generation",
			"Current model generation (bumped per snapshot install).", nil),

		modelVersion: reg.Gauge("cs2p_model_version",
			"Registry artifact version being served (0 = trained in-process).", nil),
		promotionsAccepted: reg.Counter("cs2p_engine_promotions_total",
			"Model promotion-gate decisions, by result.", obs.Labels{"result": "accepted"}),
		promotionsRejected: reg.Counter("cs2p_engine_promotions_total",
			"Model promotion-gate decisions, by result.", obs.Labels{"result": "rejected"}),
		rollbacks: reg.Counter("cs2p_engine_rollbacks_total",
			"Rollbacks to the previously served model snapshot.", nil),

		lockWait: reg.Histogram("cs2p_engine_session_lock_wait_seconds",
			"Time spent waiting on a per-session filter lock (contention signal).",
			obs.LatencyBuckets, nil),

		forecastHit: reg.Counter("cs2p_engine_rebuffer_forecast_total",
			"Session starts by how the rebuffer forecast was served: a memo hit or a cold fill (miss).",
			obs.Labels{"result": "hit"}),
		forecastMiss: reg.Counter("cs2p_engine_rebuffer_forecast_total",
			"Session starts by how the rebuffer forecast was served: a memo hit or a cold fill (miss).",
			obs.Labels{"result": "miss"}),
		forecastSeconds: reg.Histogram("cs2p_engine_rebuffer_forecast_seconds",
			"Duration of a cold rebuffer-forecast fill: the first start per cluster model after a boot or promotion.",
			obs.LatencyBuckets, nil),

		epochs: reg.Counter("cs2p_prediction_epochs_total",
			"Observation epochs absorbed across all sessions.", nil),
		apeInitial: reg.Histogram("cs2p_prediction_ape",
			"Per-epoch absolute percentage error |pred-actual|/actual (Figure 9).",
			obs.ErrorBuckets, obs.Labels{"phase": "initial"}),
		apeMidstream: reg.Histogram("cs2p_prediction_ape",
			"Per-epoch absolute percentage error |pred-actual|/actual (Figure 9).",
			obs.ErrorBuckets, obs.Labels{"phase": "midstream"}),
		clusterHit: reg.Counter("cs2p_prediction_cluster_total",
			"Sessions served by a dedicated cluster HMM vs the global fallback.",
			obs.Labels{"source": "cluster"}),
		clusterFallback: reg.Counter("cs2p_prediction_cluster_total",
			"Sessions served by a dedicated cluster HMM vs the global fallback.",
			obs.Labels{"source": "global"}),
		entropy: reg.Histogram("cs2p_prediction_posterior_entropy_bits",
			"HMM posterior entropy after each observation (0 = certain state).",
			obs.EntropyBuckets, nil),

		ingestAccepted: reg.Counter("cs2p_engine_ingest_sessions_total",
			"Trace-intake sessions, by outcome.", obs.Labels{"result": "accepted"}),
		ingestEvicted: reg.Counter("cs2p_engine_ingest_sessions_total",
			"Trace-intake sessions, by outcome.", obs.Labels{"result": "evicted"}),
		ingestRejected: reg.Counter("cs2p_engine_ingest_sessions_total",
			"Trace-intake sessions, by outcome.", obs.Labels{"result": "rejected"}),
		intakeBuffered: reg.Gauge("cs2p_engine_intake_buffered_sessions",
			"Completed sessions buffered in the trace-intake ring.", nil),
		driftChecks: reg.Counter("cs2p_engine_drift_checks_total",
			"Drift-detector inspections of the midstream-APE window.", nil),
		driftFired: reg.Counter("cs2p_engine_drift_fired_total",
			"Drift-detector firings (window median APE breached the band).", nil),
		onlineRetrainAccepted: reg.Counter("cs2p_engine_online_retrains_total",
			"Drift-triggered incremental retrains, by outcome.", obs.Labels{"result": "accepted"}),
		onlineRetrainRejected: reg.Counter("cs2p_engine_online_retrains_total",
			"Drift-triggered incremental retrains, by outcome.", obs.Labels{"result": "rejected"}),
		onlineRetrainFailed: reg.Counter("cs2p_engine_online_retrains_total",
			"Drift-triggered incremental retrains, by outcome.", obs.Labels{"result": "failed"}),
	}
}

// enabled reports whether a registry is attached; callers use it to skip
// telemetry-only computation (an extra 1-step prediction, entropy).
func (m *serviceMetrics) enabled() bool { return m.reg != nil }
