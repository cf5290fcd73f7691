// Package engine is the Prediction Engine service layer of §6: it owns a
// trained CS2P core engine behind an atomically swapped immutable snapshot
// (training is refreshed per day in the paper's deployment), tracks active
// playback sessions in a sharded store, serves throughput predictions,
// estimates session outcomes (the §7.5 rebuffer-time forecast), and records
// completed-session QoE logs.
//
// Concurrency model: the model plane is lock-free for readers — every
// request pins the ModelSnapshot it starts with, and promote installs a new
// snapshot without ever blocking an in-flight prediction. The session plane
// is sharded (sessionstore.Sharded): requests for different sessions contend
// only when they hash to the same shard, and GC sweeps one shard at a time.
package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cs2p/internal/abr"
	"cs2p/internal/core"
	"cs2p/internal/hmm"
	"cs2p/internal/mathx"
	"cs2p/internal/obs"
	"cs2p/internal/qoe"
	"cs2p/internal/sessionstore"
	"cs2p/internal/sim"
	"cs2p/internal/trace"
	"cs2p/internal/video"
)

// SessionLog is a completed session's report, mirroring the log message the
// §6 player sends when the video finishes.
type SessionLog struct {
	SessionID       string  `json:"session_id"`
	QoE             float64 `json:"qoe"`
	AvgBitrateKbps  float64 `json:"avg_bitrate_kbps"`
	RebufferSeconds float64 `json:"rebuffer_seconds"`
	StartupSeconds  float64 `json:"startup_seconds"`
	Strategy        string  `json:"strategy"`
}

// DefaultMaxLogs bounds the session-log ring: a long-lived server under
// heavy traffic must not grow its log storage without bound.
const DefaultMaxLogs = 4096

// ModelSnapshot is an immutable view of one trained model generation: the
// core engine plus the generation counter that keys derived-artifact caches
// (the HTTP layer's /v1/model export). Snapshots are never mutated after
// install — a request that loads one can use it for its whole lifetime, no
// matter how many retrains land meanwhile.
type ModelSnapshot struct {
	engine *core.Engine
	gen    uint64
	// version is the registry artifact version the snapshot came from
	// (0 = trained in-process, no artifact identity).
	version       uint64
	trainedAtUnix int64
	holdout       core.HoldoutMetrics
	hasHoldout    bool
	// forecasts memoizes the §7.5 rebuffer forecast per cluster model
	// (*hmm.Model → *forecastCell, global fallback included). It is the one
	// part of a snapshot that fills in after install, and it sits behind a
	// pointer so Rollback's copy of the struct shares the displaced
	// generation's cells instead of copying their locks.
	forecasts *sync.Map
}

// forecastCell is one cluster model's forecast: computed by the first start
// that needs it, awaited by any start racing that one, a load ever after.
type forecastCell struct {
	once sync.Once
	sec  float64
}

// Engine returns the snapshot's trained core engine.
func (s *ModelSnapshot) Engine() *core.Engine { return s.engine }

// Generation counts completed snapshot installs (retrains, artifact loads,
// rollbacks). Caches compare generations to know when their copy went stale.
func (s *ModelSnapshot) Generation() uint64 { return s.gen }

// Version is the registry artifact version this snapshot serves, or 0 when
// the model was trained in-process (no artifact identity).
func (s *ModelSnapshot) Version() uint64 { return s.version }

// TrainedAtUnix is when the snapshot's model was trained (0 when unknown).
func (s *ModelSnapshot) TrainedAtUnix() int64 { return s.trainedAtUnix }

// Holdout returns the snapshot's recorded holdout metrics, and whether any
// were recorded (live-evaluated at install or carried by the artifact
// manifest).
func (s *ModelSnapshot) Holdout() (core.HoldoutMetrics, bool) { return s.holdout, s.hasHoldout }

// ServiceOptions tunes the serving core's concurrency shape.
type ServiceOptions struct {
	// Shards is the session-store shard count. 0 scales to GOMAXPROCS;
	// other values round up to the next power of two.
	Shards int
	// MaxLogs bounds the completed-session log ring.
	// 0 means DefaultMaxLogs.
	MaxLogs int
}

// Service is the concurrent-safe Prediction Engine front end.
type Service struct {
	// snap is the model plane: readers Load it (no lock), promote swaps it.
	snap atomic.Pointer[ModelSnapshot]
	// retrainMu serializes snapshot installs (generation arithmetic) and
	// guards prev and policy; request paths never take it.
	retrainMu sync.Mutex
	// prev is the snapshot displaced by the last install — what Rollback
	// restores. One level deep: rolling back twice alternates.
	prev *ModelSnapshot
	// policy, when non-nil, gates every gated promotion (see promote).
	policy *PromotionPolicy
	cfg    core.Config
	spec   video.Spec
	store  *sessionstore.Sharded[sessionState, SessionLog]
	logf   atomic.Pointer[func(format string, args ...any)]
	m      serviceMetrics
	// online, when set by EnableOnline, carries the serving→training loop:
	// trace intake, drift detection, and incremental retraining.
	online atomic.Pointer[onlineState]
	// draining marks the replica as administratively leaving the cluster:
	// /v1/healthz reports "draining" (with the remaining session count) so
	// load balancers and the router agree on lifecycle. The service itself
	// keeps serving — refusing traffic is the caller's policy, not ours.
	draining atomic.Bool
}

// sessionState carries one session's predictor. Its own mutex serializes
// filter access: the protocol says one player drives one session
// sequentially, but a misbehaving or retrying client can issue concurrent
// /v1/predict calls for the same ID, and the HMM filter must not race.
type sessionState struct {
	mu   sync.Mutex
	pred *core.SessionPredictor
	// Telemetry state for the prediction-quality pipeline: the last
	// 1-step-ahead prediction (scored against the next observation) and
	// the number of observations absorbed so far. Guarded by mu.
	lastOneStep float64
	epoch       int
	// modelGen/modelVersion pin the snapshot the session's predictor was
	// built from. The exported session state carries them so an importing
	// replica can refuse a posterior that indexes a different model's
	// states (the import generation guard). Immutable after creation.
	modelGen     uint64
	modelVersion uint64
	// Routing identity (always recorded — session-state export needs it to
	// rebuild the predictor on the importing replica) plus the observed
	// throughput series captured for the online-learning intake (populated
	// only when online learning is enabled). Guarded by mu.
	features  trace.Features
	startUnix int64
	captured  []float64
}

// NewService wraps a trained engine with default options (GOMAXPROCS-scaled
// shards, DefaultMaxLogs).
func NewService(e *core.Engine, cfg core.Config, spec video.Spec) *Service {
	return NewServiceWithOptions(e, cfg, spec, ServiceOptions{})
}

// NewServiceWithOptions wraps a trained engine with an explicit concurrency
// shape (the -shards flag on cs2p-server; tests pin Shards to make global
// log-eviction order exact).
func NewServiceWithOptions(e *core.Engine, cfg core.Config, spec video.Spec, opts ServiceOptions) *Service {
	maxLogs := opts.MaxLogs
	if maxLogs <= 0 {
		maxLogs = DefaultMaxLogs
	}
	s := &Service{
		cfg:   cfg,
		spec:  spec,
		store: sessionstore.New[sessionState, SessionLog](opts.Shards, maxLogs),
	}
	s.snap.Store(&ModelSnapshot{engine: e, forecasts: new(sync.Map)})
	return s
}

// Shards returns the session-store shard count.
func (s *Service) Shards() int { return s.store.Shards() }

// HealthStatus is the readiness summary behind GET /v1/healthz: whether a
// model is installed (the liveness/readiness split — a process can be up but
// unable to predict), which artifact version and generation it serves, and
// the live session count. The router's health checker drives its per-replica
// state machine and model-skew detection off this payload.
type HealthStatus struct {
	Ready        bool
	ModelVersion uint64
	Generation   uint64
	Sessions     int
	// TrainedAtUnix is when the serving model was trained (0 when
	// unknown); the router aggregates it across replicas into the
	// cluster-level model-age gauge.
	TrainedAtUnix int64
	// Draining reports the administrative drain flag: the replica is
	// healthy but leaving, existing sessions are being handed off, and no
	// new ones should be placed here.
	Draining bool
}

// Health reports the service's readiness. Ready is false until an engine is
// installed — a service constructed before its first model (or booted against
// an empty registry) must not receive traffic, and the HTTP layer turns that
// into a 503.
func (s *Service) Health() HealthStatus {
	snap := s.snap.Load()
	return HealthStatus{
		Ready:         snap.engine != nil,
		ModelVersion:  snap.version,
		Generation:    snap.gen,
		Sessions:      s.store.Len(),
		TrainedAtUnix: snap.trainedAtUnix,
		Draining:      s.draining.Load(),
	}
}

// SetDraining flips the administrative drain flag (surfaced through Health
// and /v1/healthz). Idempotent; transitions are logged.
func (s *Service) SetDraining(on bool) {
	if s.draining.Swap(on) != on {
		if on {
			s.logfSafe("engine: draining (%d sessions remaining)", s.store.Len())
		} else {
			s.logfSafe("engine: drain cleared")
		}
	}
}

// Draining reports the administrative drain flag.
func (s *Service) Draining() bool { return s.draining.Load() }

// SetMetrics attaches a metrics registry; every event after the call is
// counted. nil detaches (instruments become inert). Call before serving
// traffic — the handles swap is not synchronized against in-flight requests.
func (s *Service) SetMetrics(reg *obs.Registry) {
	s.m = newServiceMetrics(reg, s.store.Shards())
	// Model age is computed at scrape time (a pushed gauge would freeze
	// between installs); the callback only loads the atomic snapshot.
	reg.GaugeFunc("cs2p_model_age_seconds",
		"Seconds since the serving model was trained (0 when unknown).", nil,
		func() float64 {
			t := s.snap.Load().trainedAtUnix
			if t == 0 {
				return 0
			}
			return time.Since(time.Unix(t, 0)).Seconds()
		})
	snap := s.Snapshot()
	s.m.modelGeneration.Set(float64(snap.Generation()))
	s.m.modelVersion.Set(float64(snap.Version()))
	s.m.sessionsActive.Set(float64(s.store.Len()))
	s.refreshShardGauges()
}

// SetLogf installs the service's event logger (retrain, GC). nil silences it.
func (s *Service) SetLogf(f func(string, ...any)) {
	if f == nil {
		s.logf.Store(nil)
		return
	}
	s.logf.Store(&f)
}

func (s *Service) logfSafe(format string, args ...any) {
	if f := s.logf.Load(); f != nil {
		(*f)(format, args...)
	}
}

// InstallEngine atomically publishes a new trained engine as the next model
// generation, bypassing the promotion gate (tests and callers that already
// vetted the engine), and returns that generation.
func (s *Service) InstallEngine(e *core.Engine) uint64 {
	gen, _ := s.promote(&ModelSnapshot{engine: e}, false) // ungated promotion cannot fail
	return gen
}

// installLocked publishes cand as the next generation and remembers the
// displaced snapshot for Rollback. Caller holds retrainMu.
func (s *Service) installLocked(cand *ModelSnapshot) uint64 {
	old := s.snap.Load()
	cand.gen = old.gen + 1
	if cand.forecasts == nil { // a new model; Rollback's candidate brings its own
		cand.forecasts = new(sync.Map)
	}
	s.snap.Store(cand)
	s.prev = old
	s.m.modelGeneration.Set(float64(cand.gen))
	s.m.modelVersion.Set(float64(cand.version))
	return cand.gen
}

// Snapshot returns the current model snapshot — engine and generation read
// together, so a caller caching artifacts derived from the engine can key
// them by a generation that actually matches it.
func (s *Service) Snapshot() *ModelSnapshot { return s.snap.Load() }

// Engine returns the current core engine.
func (s *Service) Engine() *core.Engine { return s.snap.Load().engine }

// ModelGeneration counts completed retrains. Anything caching artifacts
// derived from the engine compares generations to know when its copy went
// stale; use Snapshot when the engine itself is needed too.
func (s *Service) ModelGeneration() uint64 { return s.snap.Load().gen }

// StartResponse is what a player receives when opening a session.
type StartResponse struct {
	InitialPredictionMbps float64 `json:"initial_prediction_mbps"`
	ClusterID             string  `json:"cluster_id"`
	RebufferEstimateSec   float64 `json:"rebuffer_estimate_sec"`
	SuggestedInitialLevel int     `json:"suggested_initial_level"`
	SuggestedInitialKbps  float64 `json:"suggested_initial_kbps"`
}

// StartSession registers a playback session and returns the initial
// prediction, the paper's initial-bitrate suggestion, and the §7.5
// start-of-session rebuffer estimate. A duplicate ID resets the session.
// The whole request is served from one pinned snapshot: a retrain landing
// mid-call cannot hand it a filter from one generation and a rebuffer
// forecast from another. Nothing is simulated per session: the start routes
// the session, builds its filter, and loads its cluster's forecast.
func (s *Service) StartSession(id string, f trace.Features, startUnix int64) StartResponse {
	sess := &trace.Session{ID: id, StartUnix: startUnix, Features: f, Throughput: []float64{1}}
	snap := s.snap.Load()
	p := snap.engine.NewSessionPredictor(sess)
	st := &sessionState{
		pred:         p,
		lastOneStep:  p.InitialPrediction(),
		modelGen:     snap.gen,
		modelVersion: snap.version,
		features:     f,
		startUnix:    startUnix,
	}
	s.store.Put(id, st, time.Now())
	s.m.sessionsStarted.Inc()
	s.m.sessionsActive.Set(float64(s.store.Len()))
	s.refreshShardGauges()
	if p.ClusterID() == core.GlobalClusterID {
		s.m.clusterFallback.Inc()
	} else {
		s.m.clusterHit.Inc()
	}
	lvl := abr.InitialLevel(s.spec, p.InitialPrediction())
	return StartResponse{
		InitialPredictionMbps: p.InitialPrediction(),
		ClusterID:             p.ClusterID(),
		RebufferEstimateSec:   s.rebufferForecast(snap, p.Filter().Model()),
		SuggestedInitialLevel: lvl,
		SuggestedInitialKbps:  s.spec.BitratesKbps[lvl],
	}
}

// estimateRebuffer is EstimateRebuffer behind a seam: the memo tests count
// rollouts through it. Nothing outside tests assigns it.
var estimateRebuffer = EstimateRebuffer

// rebufferForecast returns the §7.5 forecast of one of snap's cluster
// models. The forecast is a function of (video spec, model) alone, so it is
// computed once per (generation, cluster) — one EstimateRebuffer rollout, on
// the first start that asks, however many starts race for it — and a
// promotion invalidates it by publishing a snapshot with empty cells.
func (s *Service) rebufferForecast(snap *ModelSnapshot, model *hmm.Model) float64 {
	c, ok := snap.forecasts.Load(model)
	if !ok {
		c, _ = snap.forecasts.LoadOrStore(model, new(forecastCell))
	}
	cell, hit := c.(*forecastCell), true
	cell.once.Do(func() {
		hit = false
		start := time.Now()
		cell.sec = estimateRebuffer(s.spec, model, 0, 30, 1)
		s.m.forecastSeconds.Observe(time.Since(start).Seconds())
	})
	if s.m.enabled() {
		if hit {
			s.m.forecastHit.Inc()
		} else {
			s.m.forecastMiss.Inc()
		}
	}
	return cell.sec
}

// ErrUnknownSession is returned for predictions on unregistered sessions.
var ErrUnknownSession = fmt.Errorf("engine: unknown session")

// session fetches a registered session's state, refreshing its idle clock.
func (s *Service) session(id string) (*sessionState, error) {
	st, ok := s.store.Get(id, time.Now())
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSession, id)
	}
	return st, nil
}

// ObserveAndPredict feeds the last epoch's measured throughput and returns
// the prediction for `horizon` epochs ahead (1 = next epoch). This is the
// POST /predict round trip the Dash.js player makes before each chunk
// request (§6).
func (s *Service) ObserveAndPredict(id string, observedMbps float64, horizon int) (float64, error) {
	st, err := s.session(id)
	if err != nil {
		return 0, err
	}
	s.lockSession(st)
	defer st.mu.Unlock()
	return s.observeLocked(st, observedMbps, horizon), nil
}

// observeLocked runs one observe+predict epoch on a session whose lock the
// caller holds — the shared core of the JSON, binary, and batched paths. It
// refreshes the session's pending 1-step prediction whether or not metrics
// are attached: session export and WantState replies carry it.
func (s *Service) observeLocked(st *sessionState, observedMbps float64, horizon int) float64 {
	st.pred.Observe(observedMbps)
	pred := st.pred.PredictAhead(horizon)
	if s.m.enabled() {
		s.recordEpoch(st, observedMbps)
	}
	if horizon == 1 {
		st.lastOneStep = pred
	} else {
		st.lastOneStep = st.pred.PredictAhead(1)
	}
	s.captureEpoch(st, observedMbps)
	st.epoch++
	return pred
}

// recordEpoch feeds the prediction-quality pipeline after one observation:
// it scores the previous epoch's 1-step prediction against the measured
// throughput (the per-epoch APE of Figure 9, split initial/midstream) and
// samples the filter's posterior entropy. Caller holds st.mu.
func (s *Service) recordEpoch(st *sessionState, observedMbps float64) {
	s.m.epochs.Inc()
	if observedMbps > 0 && !math.IsNaN(st.lastOneStep) {
		ape := math.Abs(st.lastOneStep-observedMbps) / observedMbps
		if st.epoch == 0 {
			s.m.apeInitial.Observe(ape)
		} else {
			s.m.apeMidstream.Observe(ape)
		}
	}
	s.m.entropy.Observe(st.pred.Filter().PosteriorEntropyBits())
}

// lockSession acquires the per-session filter lock, timing the wait when
// metrics are attached (lock-wait time is the earliest signal of a client
// hammering one session concurrently). An uncontended acquisition records a
// zero wait without reading the clock.
func (s *Service) lockSession(st *sessionState) {
	if st.mu.TryLock() {
		s.m.lockWait.Observe(0)
		return
	}
	if !s.m.enabled() {
		st.mu.Lock()
		return
	}
	start := time.Now()
	st.mu.Lock()
	s.m.lockWait.Observe(time.Since(start).Seconds())
}

// Predict returns the current prediction without a new observation (used
// for the initial chunk, whose estimate came with StartSession).
func (s *Service) Predict(id string, horizon int) (float64, error) {
	st, err := s.session(id)
	if err != nil {
		return 0, err
	}
	s.lockSession(st)
	defer st.mu.Unlock()
	return st.pred.PredictAhead(horizon), nil
}

// EndSession records the player's final QoE log and forgets the session.
// With online learning enabled, the completed session's captured observation
// series flows into the trace intake — the serving→training feedback loop.
func (s *Service) EndSession(log SessionLog) {
	if o := s.online.Load(); o != nil {
		if st, ok := s.store.Get(log.SessionID, time.Now()); ok {
			st.mu.Lock()
			sess := &trace.Session{ID: log.SessionID, StartUnix: st.startUnix, Features: st.features,
				Throughput: slices.Clone(st.captured)}
			st.mu.Unlock()
			if len(sess.Throughput) > 0 {
				// A refused push (backpressure) is counted, not an error:
				// the playback ended either way.
				_, _ = s.pushIntake(o, sess)
			}
		}
	}
	existed := s.store.Delete(log.SessionID)
	evicted := s.store.PushLog(log)
	if existed {
		s.m.sessionsEnded.Inc()
	}
	s.m.sessionsActive.Set(float64(s.store.Len()))
	s.refreshShardGauges()
	if evicted {
		s.m.logEvictions.Inc()
	}
}

// ForgetSession drops a session without recording a QoE log — the cleanup
// half of a handoff: after the target replica imports the session's state,
// the source must stop holding it, but the playback has not ended, so
// EndSession's log (and its sessions-ended count, like the import's
// sessions-started count) would be a lie. Reports whether the session
// existed.
func (s *Service) ForgetSession(id string) bool {
	existed := s.store.Delete(id)
	if existed {
		s.m.sessionsActive.Set(float64(s.store.Len()))
		s.refreshShardGauges()
	}
	return existed
}

// Logs returns a copy of the retained session logs, oldest first. Only the
// most recent ServiceOptions.MaxLogs entries are kept.
func (s *Service) Logs() []SessionLog { return s.store.Logs() }

// ActiveSessions returns the number of registered sessions.
func (s *Service) ActiveSessions() int { return s.store.Len() }

// ShardSizes returns the per-shard session counts (exported on the
// cs2p_engine_shard_sessions gauge vector).
func (s *Service) ShardSizes() []int { return s.store.ShardSizes() }

// GC drops sessions idle longer than maxIdle and returns how many were
// removed. The sweep locks one shard at a time, so requests to the other
// shards never wait on it.
func (s *Service) GC(maxIdle time.Duration) int {
	n := s.store.GC(time.Now().Add(-maxIdle))
	if n > 0 {
		s.m.gcEvictions.Add(n)
		s.m.sessionsActive.Set(float64(s.store.Len()))
		s.refreshShardGauges()
		s.logfSafe("engine: gc dropped %d idle sessions", n)
	}
	return n
}

// refreshShardGauges re-exports the per-shard session counts and the skew
// summary (max/mean occupancy; 1.0 = perfectly balanced, 0 = empty store).
// Runs on session churn, not per chunk, so the O(shards) walk stays off the
// predict hot path.
func (s *Service) refreshShardGauges() {
	if !s.m.enabled() {
		return
	}
	sizes := s.store.ShardSizes()
	total, max := 0, 0
	for i, n := range sizes {
		s.m.shardSessions[i].Set(float64(n))
		total += n
		if n > max {
			max = n
		}
	}
	skew := 0.0
	if total > 0 {
		skew = float64(max) * float64(len(sizes)) / float64(total)
	}
	s.m.shardSkew.Set(skew)
}

// EstimateRebuffer forecasts the total rebuffering a session will see
// (§7.5): it rolls out `rollouts` Monte-Carlo throughput futures from the
// session's cluster HMM, plays each through the MPC controller with a
// perfect per-rollout oracle, and returns the median total stall time.
// A nil model yields 0 (no forecast available).
//
// initialMbps is ignored (it stays in the signature for existing callers):
// the oracle answers chunk 0 from the sampled future, as it does every later
// chunk, so a session's own initial prediction never enters the rollout.
// With the seed fixed the result is therefore a function of (spec, model)
// alone — a per-cluster constant of a model generation, which is what lets
// StartSession serve it from a per-cluster memo.
func EstimateRebuffer(spec video.Spec, model interface {
	Sample(r *rand.Rand, t int) ([]int, []float64)
}, initialMbps float64, rollouts int, seed int64) float64 {
	if model == nil {
		return 0
	}
	if rollouts <= 0 {
		rollouts = 20
	}
	r := rand.New(rand.NewSource(seed))
	n := spec.NumChunks()
	stalls := make([]float64, 0, rollouts)
	for i := 0; i < rollouts; i++ {
		_, tput := model.Sample(r, n)
		for j := range tput {
			if tput[j] < 0.05 {
				tput[j] = 0.05
			}
		}
		res := sim.Play(spec, abr.MPC{}, sim.NewNoisyOracle(tput, 0, seed+int64(i)), tput, qoe.DefaultWeights())
		stalls = append(stalls, res.Metrics.TotalRebufferSeconds())
	}
	sort.Float64s(stalls)
	return mathx.QuantileSorted(stalls, 0.5)
}
