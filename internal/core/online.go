package core

import (
	"fmt"
	"math"
	"sort"

	"cs2p/internal/cluster"
	"cs2p/internal/hmm"
	"cs2p/internal/trace"
)

// OnlineConfig controls the incremental learner that keeps a trained engine's
// models tracking fresh traffic.
type OnlineConfig struct {
	// HMM configures the per-cluster incremental EM trainers.
	HMM hmm.OnlineConfig
	// MinClusterSessions is the minimum fresh sessions a cluster must
	// contribute to one Absorb batch before its HMM trainer is updated;
	// smaller slices would burn a full decay step on negligible evidence.
	// Medians always update. Defaults to 5.
	MinClusterSessions int
	// MinMedianSamples is the minimum running-median sample count before a
	// cluster's candidate initial median switches from the incumbent's
	// static value to the online one. Defaults to 10.
	MinMedianSamples int
}

// DefaultOnlineConfig returns the settings the engine's online-learning loop
// uses.
func DefaultOnlineConfig() OnlineConfig {
	return OnlineConfig{
		HMM:                hmm.DefaultOnlineConfig(),
		MinClusterSessions: 5,
		MinMedianSamples:   10,
	}
}

func (c OnlineConfig) withDefaults() OnlineConfig {
	if c.HMM == (hmm.OnlineConfig{}) {
		c.HMM = hmm.DefaultOnlineConfig()
	}
	if c.MinClusterSessions <= 0 {
		c.MinClusterSessions = 5
	}
	if c.MinMedianSamples <= 0 {
		c.MinMedianSamples = 10
	}
	return c
}

// OnlineLearner incrementally updates a trained engine's per-cluster HMMs
// (decayed minibatch EM, warm-started from the incumbent models) and initial
// medians (exact running medians) from fresh serving traffic, and materializes
// candidate engines for the promotion gate. The base engine is never mutated:
// trainers clone their warm-start models and Candidate builds a fresh Engine,
// so a rejected candidate leaves no trace. Not safe for concurrent use; the
// serving layer serializes Absorb/Candidate behind its retrain lock.
//
// Cluster structure itself is not revised online — fresh sessions are routed
// by the incumbent's clustering and unseen cells feed only the global model.
// Discovering new clusters remains an offline (full rule-search) concern.
type OnlineLearner struct {
	cfg  OnlineConfig
	base *Engine

	trainers map[string]*hmm.OnlineTrainer // cluster ID -> incremental trainer
	medians  map[string]*cluster.RunningMedian
	global   *hmm.OnlineTrainer
	globMed  cluster.RunningMedian
	absorbed int // fresh sessions absorbed so far
}

// NewOnlineLearner builds a learner over a base engine.
func NewOnlineLearner(base *Engine, cfg OnlineConfig) (*OnlineLearner, error) {
	if base == nil || base.store == nil {
		return nil, fmt.Errorf("core: online learner needs a trained base engine")
	}
	cfg = cfg.withDefaults()
	g, err := hmm.NewOnlineTrainer(base.GlobalModel(), cfg.HMM)
	if err != nil {
		return nil, fmt.Errorf("core: warm-starting global trainer: %w", err)
	}
	return &OnlineLearner{
		cfg:      cfg,
		base:     base,
		trainers: make(map[string]*hmm.OnlineTrainer),
		medians:  make(map[string]*cluster.RunningMedian),
		global:   g,
	}, nil
}

// Absorbed reports how many fresh sessions the learner has consumed.
func (l *OnlineLearner) Absorbed() int { return l.absorbed }

// Absorb folds one batch of fresh sessions into the running state: every
// session updates the global trainer and global median; sessions routed to a
// dedicated cluster additionally update that cluster's trainer (lazily
// warm-started from the incumbent model) and running median. Sessions without
// throughput observations are skipped.
func (l *OnlineLearner) Absorb(fresh []*trace.Session) error {
	byCluster := map[string][]*trace.Session{}
	var all [][]float64
	usable := 0
	for _, s := range fresh {
		if s == nil || len(s.Throughput) == 0 {
			continue
		}
		usable++
		all = append(all, s.Throughput)
		l.globMed.Add(s.InitialThroughput())
		_, id := l.base.ModelFor(s)
		if id == GlobalClusterID {
			continue
		}
		byCluster[id] = append(byCluster[id], s)
	}
	if usable == 0 {
		return nil
	}
	// Deterministic cluster order so metric and error ordering is stable.
	ids := make([]string, 0, len(byCluster))
	for id := range byCluster {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		members := byCluster[id]
		rm, ok := l.medians[id]
		if !ok {
			rm = &cluster.RunningMedian{}
			l.medians[id] = rm
		}
		for _, s := range members {
			rm.Add(s.InitialThroughput())
		}
		if len(members) < l.cfg.MinClusterSessions {
			continue
		}
		tr, ok := l.trainers[id]
		if !ok {
			var err error
			tr, err = hmm.NewOnlineTrainer(l.base.store.Models[id].Model, l.cfg.HMM)
			if err != nil {
				return fmt.Errorf("core: warm-starting cluster %q trainer: %w", id, err)
			}
			l.trainers[id] = tr
		}
		seqs := make([][]float64, 0, len(members))
		for _, s := range members {
			seqs = append(seqs, s.Throughput)
		}
		if err := tr.Update(seqs); err != nil {
			return fmt.Errorf("core: cluster %q incremental update: %w", id, err)
		}
	}
	if err := l.global.Update(all); err != nil {
		return fmt.Errorf("core: global incremental update: %w", err)
	}
	l.absorbed += usable
	return nil
}

// Candidate materializes the learner's current state as a deployable
// candidate engine, for the promotion gate's holdout evaluation and (through
// its Store) registry publication: incumbent models overridden by every
// trainer that absorbed at least one batch, incumbent medians overridden once
// a cluster's running median has enough samples. The incumbent's index is
// carried over unchanged — cluster structure is not revised online, so the
// windowed Eq. 6 aggregation ages until the next offline Train.
func (l *OnlineLearner) Candidate() (*Engine, error) {
	base := l.base.store
	ms := &ModelStore{
		FullFeatures: base.FullFeatures,
		Models:       make(map[string]StoredModel, len(base.Models)),
		Global:       base.Global,
		Initial:      base.Initial,
	}
	for id, sm := range base.Models {
		if tr := l.trainers[id]; tr != nil && tr.Updates() > 0 {
			sm.Model = tr.Model().Clone()
		}
		if rm := l.medians[id]; rm != nil {
			sm.InitialMedian = freshMedian(rm, l.cfg.MinMedianSamples, sm.InitialMedian)
		}
		ms.Models[id] = sm
	}
	if l.global.Updates() > 0 {
		ms.Global.Model = l.global.Model().Clone()
	}
	ms.Global.InitialMedian = freshMedian(&l.globMed, l.cfg.MinMedianSamples, ms.Global.InitialMedian)
	eng, err := NewEngineFromStore(ms)
	if err != nil {
		return nil, fmt.Errorf("core: materializing online candidate: %w", err)
	}
	return eng, nil
}

// freshMedian is the running median once it has minSamples, the incumbent's
// static value before that.
func freshMedian(rm *cluster.RunningMedian, minSamples int, incumbent float64) float64 {
	if rm.Count() >= minSamples {
		if v := rm.Value(); !math.IsNaN(v) {
			return v
		}
	}
	return incumbent
}
