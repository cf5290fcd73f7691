// Package core implements the CS2P system of the paper (§4-§5): the
// Prediction Engine that trains per-cluster throughput models offline
// (session clustering + a Gaussian HMM and an initial-throughput median per
// cluster) and the per-session online predictor that runs the paper's
// Algorithm 1.
//
// Workflow (paper Figure 1):
//
//	train := ... // past sessions with features and per-epoch throughput
//	engine, err := core.Train(train, core.DefaultConfig())
//	p := engine.NewSession(newSession)   // stage 2: predicting
//	w0 := p.Predict()                    // initial epoch: cluster median
//	p.Observe(measured0)                 // update HMM posterior
//	w1 := p.Predict()                    // midstream: HMM MLE state mean
//
// The engine implements predict.Factory and predict.Initial so it slots into
// the same evaluation harness as every baseline.
package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"cs2p/internal/cluster"
	"cs2p/internal/hmm"
	"cs2p/internal/obs"
	"cs2p/internal/parallel"
	"cs2p/internal/predict"
	"cs2p/internal/trace"
)

// Config controls engine training.
type Config struct {
	// Cluster configures the §5.1 session-clustering search.
	Cluster cluster.Config
	// HMM configures per-cluster Baum-Welch training; HMM.NStates is used
	// when SelectStates is false.
	HMM hmm.TrainConfig
	// SelectStates enables per-cluster cross-validated state-count
	// selection over StateCandidates (§7.1). Expensive; the default uses
	// the fixed cross-validated global choice in HMM.NStates.
	SelectStates    bool
	StateCandidates []int
	CVFolds         int
	// MinClusterSessions is the minimum number of member sessions needed
	// to train a dedicated cluster HMM; smaller clusters use the global
	// model (the paper's fallback, §5.1).
	MinClusterSessions int
	// MaxClusterSessions caps the sequences per cluster HMM (stride
	// subsample) to bound EM cost. 0 means no cap.
	MaxClusterSessions int
	// GlobalSessions caps the global fallback HMM's training set.
	GlobalSessions int
	// Parallelism bounds the offline-training worker fan-out: per-cluster
	// HMM training, cross-validated state selection, and the clustering
	// rule search all share the knob. 0 means one worker per CPU, 1
	// reproduces the historical sequential behavior. Every cluster trains
	// from its own seeded RNG, so the trained engine is identical at every
	// setting.
	Parallelism int
	// Logf, when non-nil, receives training diagnostics (clusters that
	// fell back to the global model, failed state selections). nil
	// discards them; the same messages are always collected on the
	// engine's Warnings.
	Logf func(format string, args ...any)
	// Metrics, when non-nil, receives offline-training telemetry
	// (per-cluster fit time, EM iteration counts, CV candidate scores,
	// cluster-rule-search timings) and is forwarded to the HMM and
	// clustering stages. Trained models are identical with or without it.
	Metrics *obs.Registry
}

func (cfg Config) logf(format string, args ...any) {
	if cfg.Logf != nil {
		cfg.Logf(format, args...)
	}
}

// DefaultConfig returns the settings used across the reproduction: the
// paper's 6-state HMM, the default clustering lattice, and laptop-scale
// training caps.
func DefaultConfig() Config {
	return Config{
		Cluster:            cluster.DefaultConfig(),
		HMM:                hmm.DefaultTrainConfig(),
		SelectStates:       false,
		StateCandidates:    []int{2, 4, 6, 8},
		CVFolds:            4,
		MinClusterSessions: 10,
		MaxClusterSessions: 80,
		GlobalSessions:     300,
	}
}

// Engine is a trained CS2P Prediction Engine. The model store is all of it:
// an engine Train returns and one NewEngineFromStore boots from a shipped
// file run the same code over the same data. Read-only after construction,
// so safe for concurrent use.
type Engine struct {
	store    *ModelStore
	warnings []string
}

// NewEngineFromStore builds a serving engine from a deployed artifact — the
// §5.3 path where a video server boots from shipped models with no training
// data. The store must pass Validate (LoadModelStore already guarantees it).
func NewEngineFromStore(ms *ModelStore) (*Engine, error) {
	if ms == nil {
		return nil, fmt.Errorf("core: nil model store")
	}
	if err := ms.Validate(); err != nil {
		return nil, err
	}
	return &Engine{store: ms}, nil
}

// Train builds the engine: runs the clustering search, trains one HMM per
// realized cluster, fits the global fallback model, and indexes the training
// set's initial throughputs under the chosen rules. The clusterer — and with
// it every reference to train — is garbage once Train returns.
func Train(train *trace.Dataset, cfg Config) (*Engine, error) {
	return TrainContext(context.Background(), train, cfg)
}

// clusterModel is the output of one cluster's training worker. A nil Model
// means the cluster degenerated and will be served by the global fallback.
type clusterModel struct {
	model  *hmm.Model
	median float64
	warns  []string
}

// TrainContext is Train with cancellation. Per-cluster training fans out
// across cfg.Parallelism workers (see Config.Parallelism); cancelling ctx
// aborts training and returns ctx's error.
func TrainContext(ctx context.Context, train *trace.Dataset, cfg Config) (*Engine, error) {
	if train == nil || train.Len() == 0 {
		return nil, fmt.Errorf("core: empty training dataset")
	}
	if cfg.MinClusterSessions <= 0 {
		cfg.MinClusterSessions = 10
	}
	trainStart := time.Now()
	ccfg := cfg.Cluster
	if ccfg.Parallelism == 0 {
		ccfg.Parallelism = cfg.Parallelism
	}
	if ccfg.Metrics == nil {
		ccfg.Metrics = cfg.Metrics
	}
	clusterer := cluster.New(ccfg, train)
	if err := clusterer.SelectCtx(ctx); err != nil {
		return nil, fmt.Errorf("core: clustering rule search: %w", err)
	}

	// Group training sessions by their assigned cluster ID. Sessions whose
	// cell fell back to the global rule are served by the global model.
	byCluster := map[string][]*trace.Session{}
	for _, s := range train.Sessions {
		rule, id := clusterer.ClusterFor(s)
		if rule.IsGlobal() {
			continue
		}
		byCluster[id] = append(byCluster[id], s)
	}
	// Deterministic iteration order; clusters too small for a dedicated
	// model fall back to the global model at prediction time.
	ids := make([]string, 0, len(byCluster))
	for id := range byCluster {
		if len(byCluster[id]) >= cfg.MinClusterSessions {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)

	// Fan the per-cluster work across the pool. Each cluster trains from
	// its own seeded RNG and appends its results/warnings into its own
	// slot, so the assembled engine is independent of worker interleaving.
	hcfgBase := cfg.HMM
	if hcfgBase.Parallelism == 0 {
		hcfgBase.Parallelism = cfg.Parallelism
	}
	if hcfgBase.Metrics == nil {
		hcfgBase.Metrics = cfg.Metrics
	}
	fitSeconds := cfg.Metrics.Histogram("cs2p_train_cluster_fit_seconds",
		"Wall time to fit one cluster HMM (state selection included).",
		obs.LatencyBuckets, nil)
	results, err := parallel.Map(ctx, cfg.Parallelism, ids, func(ctx context.Context, _ int, id string) (clusterModel, error) {
		fitStart := time.Now()
		defer func() { fitSeconds.Observe(time.Since(fitStart).Seconds()) }()
		members := byCluster[id]
		seqs := sequences(members, cfg.MaxClusterSessions)
		hcfg := hcfgBase
		var cm clusterModel
		if cfg.SelectStates {
			n, _, serr := hmm.SelectStateCountCtx(ctx, seqs, cfg.StateCandidates, cfg.CVFolds, hcfg)
			switch {
			case serr != nil && ctx.Err() != nil:
				return cm, ctx.Err()
			case serr != nil:
				// Selection failure is survivable — fall back to the
				// configured state count — but never silent.
				cm.warns = append(cm.warns, fmt.Sprintf("cluster %s: state selection failed (%v); using %d states", id, serr, hcfg.NStates))
			default:
				hcfg.NStates = n
			}
		}
		m, terr := hmm.Train(seqs, hcfg)
		if terr != nil {
			cm.warns = append(cm.warns, fmt.Sprintf("cluster %s: training failed (%v); using global fallback", id, terr))
			return cm, nil // degenerate cluster; global fallback covers it
		}
		cm.model = m
		cm.median = staticMedian(members)
		return cm, nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: training cluster models: %w", err)
	}
	ms := &ModelStore{
		FullFeatures: NewFullFeatureList(cfg.Cluster.CandidateFeatures),
		Models:       make(map[string]StoredModel),
		Initial:      newInitialIndex(clusterer, cfg.MinClusterSessions),
	}
	var warnings []string
	for i, id := range ids {
		cm := results[i]
		for _, w := range cm.warns {
			cfg.logf("core: %s", w)
			warnings = append(warnings, w)
		}
		if cm.model == nil {
			cfg.Metrics.Counter("cs2p_train_clusters_total",
				"Clusters trained, by outcome.", obs.Labels{"result": "fallback"}).Inc()
			continue
		}
		cfg.Metrics.Counter("cs2p_train_clusters_total",
			"Clusters trained, by outcome.", obs.Labels{"result": "ok"}).Inc()
		ms.Models[id] = StoredModel{Model: cm.model, InitialMedian: cm.median}
	}

	// Global fallback model over a stride subsample of everything.
	gseqs := sequences(train.Sessions, cfg.GlobalSessions)
	g, err := hmm.Train(gseqs, hcfgBase)
	if err != nil {
		return nil, fmt.Errorf("core: training global model: %w", err)
	}
	ms.Global = StoredModel{Model: g, InitialMedian: staticMedian(train.Sessions)}
	e, err := NewEngineFromStore(ms)
	if err != nil {
		return nil, fmt.Errorf("core: trained model is not servable: %w", err)
	}
	e.warnings = warnings
	cfg.Metrics.Histogram("cs2p_train_seconds",
		"End-to-end offline training time (clustering + all HMM fits).",
		obs.LatencyBuckets, nil).Observe(time.Since(trainStart).Seconds())
	return e, nil
}

// Warnings returns the non-fatal diagnostics collected while training
// (clusters served by the global fallback, failed state selections), in
// deterministic cluster-ID order.
func (e *Engine) Warnings() []string { return e.warnings }

func sequences(sessions []*trace.Session, cap int) [][]float64 {
	seqs := make([][]float64, 0, len(sessions))
	for _, s := range sessions {
		seqs = append(seqs, s.Throughput)
	}
	if cap > 0 && len(seqs) > cap {
		stride := float64(len(seqs)) / float64(cap)
		sub := make([][]float64, 0, cap)
		for i := 0; i < cap; i++ {
			sub = append(sub, seqs[int(float64(i)*stride)])
		}
		seqs = sub
	}
	return seqs
}

// staticMedian computes a cluster's initial-throughput median through the
// same cluster.RunningMedian the online learner updates incrementally, so the
// offline and online medians share one definition (RunningMedian.Value is
// bit-identical to mathx.Median).
func staticMedian(sessions []*trace.Session) float64 {
	var rm cluster.RunningMedian
	for _, s := range sessions {
		if len(s.Throughput) > 0 {
			rm.Add(s.InitialThroughput())
		}
	}
	return rm.Value()
}

// GlobalClusterID is the cluster ID reported for sessions served by the
// global fallback model rather than a dedicated cluster HMM. The telemetry
// pipeline keys its cluster-hit-rate metric on it.
const GlobalClusterID = "global"

// Name implements predict.Factory and predict.Initial.
func (e *Engine) Name() string { return "CS2P" }

// Store returns the engine's model — the store it was booted from, or the one
// Train built. It is shared, not copied: treat it as read-only.
func (e *Engine) Store() *ModelStore { return e.store }

// Export returns Store(). Leftover: benchmark/ is frozen for this PR and
// benchmark/benchmark_test.go still calls it with the training set; the next
// benchmark PR deletes it.
func (e *Engine) Export(*trace.Dataset) *ModelStore { return e.store }

// Clusters returns the number of clusters with a dedicated HMM.
func (e *Engine) Clusters() int { return len(e.store.Models) }

// GlobalModel returns the fallback HMM.
func (e *Engine) GlobalModel() *hmm.Model { return e.store.Global.Model }

// ModelFor returns the HMM and cluster ID a session maps to (the global
// model when the session's cluster has none), for diagnostics and Figure 8.
func (e *Engine) ModelFor(s *trace.Session) (*hmm.Model, string) {
	_, sm, id := e.store.route(s)
	return sm.Model, id
}

// PredictInitial implements predict.Initial: the median initial throughput
// of Agg(M*, s) (Eq. 6), with fallbacks to the cluster's static median and
// finally the global median when the windowed aggregation is too small.
func (e *Engine) PredictInitial(s *trace.Session) float64 {
	rule, sm, _ := e.store.route(s)
	return e.store.predictInitial(rule, sm, s)
}

// SessionPredictor runs Algorithm 1 for one video session: the initial epoch
// is predicted by the cluster median, midstream epochs by the cluster HMM
// filter. Not safe for concurrent use.
type SessionPredictor struct {
	filter    *hmm.Filter
	initial   float64
	clusterID string
}

// NewSession creates the per-session predictor (stage 2 of Figure 1).
func (e *Engine) NewSession(s *trace.Session) predict.Midstream {
	return e.NewSessionPredictor(s)
}

// NewSessionPredictor is NewSession with the concrete type, exposing the
// cluster ID and posterior for diagnostics. The session's cell is resolved
// once for both the model and the initial prediction.
func (e *Engine) NewSessionPredictor(s *trace.Session) *SessionPredictor {
	rule, sm, id := e.store.route(s)
	return &SessionPredictor{
		filter:    hmm.NewFilter(sm.Model),
		initial:   e.store.predictInitial(rule, sm, s),
		clusterID: id,
	}
}

// ClusterID identifies the model this session uses.
func (p *SessionPredictor) ClusterID() string { return p.clusterID }

// InitialPrediction returns the cluster-median initial throughput estimate.
func (p *SessionPredictor) InitialPrediction() float64 { return p.initial }

// Filter exposes the underlying HMM filter.
func (p *SessionPredictor) Filter() *hmm.Filter { return p.filter }

// Predict implements Algorithm 1 lines 3-8: the cluster median before any
// observation, the HMM one-step MLE afterwards.
func (p *SessionPredictor) Predict() float64 {
	if !p.filter.Started() {
		return p.initial
	}
	return p.filter.Predict()
}

// PredictAhead estimates k epochs ahead; before any observation the cluster
// median is the best available estimate at every horizon.
func (p *SessionPredictor) PredictAhead(k int) float64 {
	if !p.filter.Started() {
		return p.initial
	}
	return p.filter.PredictAhead(k)
}

// Observe implements Algorithm 1 lines 11-12.
func (p *SessionPredictor) Observe(w float64) { p.filter.Observe(w) }

// PredictQuantileAhead returns the q-th quantile of the k-step-ahead
// predictive throughput distribution (an extension beyond the paper's point
// prediction: the HMM posterior is a full distribution, so a stall-averse
// controller can plan against a conservative quantile instead of the
// most-likely state's mean). Before any observation, the cluster median
// stands in at every quantile.
func (p *SessionPredictor) PredictQuantileAhead(k int, q float64) float64 {
	if !p.filter.Started() {
		return p.initial
	}
	return p.filter.PredictQuantile(k, q)
}

// ConservativeSession wraps a session predictor so that PredictAhead
// returns the q-th predictive quantile — plugging a risk-aware CS2P into
// controllers that consume point predictions (ablation A5).
type ConservativeSession struct {
	P *SessionPredictor
	Q float64
}

// NewConservativeSession builds the quantile view over a fresh session
// predictor.
func (e *Engine) NewConservativeSession(s *trace.Session, q float64) *ConservativeSession {
	return &ConservativeSession{P: e.NewSessionPredictor(s), Q: q}
}

// Predict implements predict.Midstream.
func (c *ConservativeSession) Predict() float64 { return c.PredictAhead(1) }

// PredictAhead implements predict.Midstream.
func (c *ConservativeSession) PredictAhead(k int) float64 {
	return c.P.PredictQuantileAhead(k, c.Q)
}

// Observe implements predict.Midstream.
func (c *ConservativeSession) Observe(w float64) { c.P.Observe(w) }
