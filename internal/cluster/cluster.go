package cluster

import (
	"context"
	"slices"
	"sort"
	"time"

	"cs2p/internal/mathx"
	"cs2p/internal/obs"
	"cs2p/internal/parallel"
	"cs2p/internal/trace"
)

// Config controls the clustering search.
type Config struct {
	// CandidateFeatures is the feature vocabulary (defaults to
	// trace.ClusterableFeatures).
	CandidateFeatures []string
	// MaxSubsetSize bounds feature-combination size (0 means all).
	MaxSubsetSize int
	// Windows is the candidate time-window list (defaults to
	// DefaultWindows).
	Windows []TimeWindow
	// MinGroupSize is the paper's reliability threshold: a rule whose
	// Agg(M, s) has fewer sessions is discarded (the paper uses 100 on
	// the 20M-session trace; scale accordingly).
	MinGroupSize int
	// SamplePerCell caps how many reference sessions per full-feature
	// cell are used to score candidate rules.
	SamplePerCell int
	// Parallelism bounds the rule-search worker fan-out in Select (0 means
	// one worker per CPU, 1 reproduces the sequential loop). Each cell's
	// winning rule is a deterministic function of the training data, so the
	// selection is identical at every setting.
	Parallelism int
	// Metrics, when non-nil, receives rule-search telemetry (cell count,
	// per-cell search time, global-fallback cells). Selection results are
	// identical with or without it.
	Metrics *obs.Registry
}

// DefaultConfig returns the settings used throughout the reproduction.
func DefaultConfig() Config {
	return Config{
		CandidateFeatures: trace.ClusterableFeatures,
		MaxSubsetSize:     3,
		Windows:           DefaultWindows(),
		MinGroupSize:      30,
		SamplePerCell:     8,
	}
}

func (c Config) withDefaults() Config {
	if len(c.CandidateFeatures) == 0 {
		c.CandidateFeatures = trace.ClusterableFeatures
	}
	if len(c.Windows) == 0 {
		c.Windows = DefaultWindows()
	}
	if c.MinGroupSize <= 0 {
		c.MinGroupSize = 30
	}
	if c.SamplePerCell <= 0 {
		c.SamplePerCell = 8
	}
	return c
}

// Clusterer indexes a training dataset and selects, for every group of
// sessions sharing all candidate features (a "cell"), the aggregation rule
// M* that minimizes initial-throughput prediction error (Eq. 2/3 of the
// paper). Sessions in a cell share Est(s) and therefore share M*.
type Clusterer struct {
	cfg   Config
	train *trace.Dataset
	// index: feature-combination key -> feature-value key -> sessions
	// sorted by start time.
	index map[string]map[string][]*trace.Session
	// samples mirrors index: the same groups, in the same order, as the
	// (start, initial throughput) pairs WindowMedian reads.
	samples map[string]map[string][]Sample
	// chosen: full-cell value key -> selected rule.
	chosen map[string]FeatureSet
	// global fallback rule.
	global FeatureSet
	cands  []FeatureSet
	// fullFeatures is the canonical (sorted) candidate-feature list used
	// to key cells.
	fullFeatures []string
}

// New builds the index over the training dataset. Call Select to run the
// rule search before using ClusterFor.
func New(cfg Config, train *trace.Dataset) *Clusterer {
	cfg = cfg.withDefaults()
	c := &Clusterer{
		cfg:     cfg,
		train:   train,
		index:   make(map[string]map[string][]*trace.Session),
		samples: make(map[string]map[string][]Sample),
		chosen:  make(map[string]FeatureSet),
		global:  NewFeatureSet(nil, TimeWindow{Kind: WindowAll}),
		cands:   Candidates(cfg.CandidateFeatures, cfg.MaxSubsetSize, cfg.Windows),
	}
	// Pre-group the training sessions for every distinct feature
	// combination appearing among the candidates.
	combos := map[string][]string{}
	for _, cand := range c.cands {
		combos[cand.Key()] = cand.Features
	}
	// The full candidate combination defines the cells Select iterates,
	// even when MaxSubsetSize keeps it out of the candidate rules.
	full := NewFeatureSet(cfg.CandidateFeatures, TimeWindow{Kind: WindowAll})
	combos[full.Key()] = full.Features
	c.fullFeatures = full.Features
	for key, feats := range combos {
		groups := make(map[string][]*trace.Session)
		for _, s := range train.Sessions {
			vk := s.Features.Key(feats)
			groups[vk] = append(groups[vk], s)
		}
		samples := make(map[string][]Sample, len(groups))
		for vk, g := range groups {
			sort.SliceStable(g, func(i, j int) bool { return g[i].StartUnix < g[j].StartUnix })
			ss := make([]Sample, len(g))
			for i, s := range g {
				ss[i] = Sample{StartUnix: s.StartUnix, InitialMbps: s.InitialThroughput()}
			}
			samples[vk] = ss
		}
		c.index[key] = groups
		c.samples[key] = samples
	}
	return c
}

// Candidates returns the candidate rule list (for diagnostics and tests).
func (c *Clusterer) Candidates() []FeatureSet { return c.cands }

// SampleGroups returns the training samples for one candidate feature
// combination (keyed by FeatureSet.Key), grouped by feature value and sorted
// by start time — WindowMedian's input. The slices are shared: read-only.
func (c *Clusterer) SampleGroups(comboKey string) map[string][]Sample {
	return c.samples[comboKey]
}

// Aggregate returns Agg(M, s): the training sessions matching s on M's
// features and falling inside M's window relative to s's start time. With
// MedianInitial it is the reference that WindowMedian is tested against.
func (c *Clusterer) Aggregate(m FeatureSet, s *trace.Session) []*trace.Session {
	groups, ok := c.index[m.Key()]
	if !ok {
		return nil
	}
	g := groups[s.Features.Key(m.Features)]
	if len(g) == 0 {
		return nil
	}
	// Sessions are sorted by start; cut the future with binary search,
	// then filter the window.
	hi := sort.Search(len(g), func(i int) bool { return g[i].StartUnix >= s.StartUnix })
	if m.Window.Kind == WindowAll {
		return g[:hi]
	}
	var out []*trace.Session
	for _, cand := range g[:hi] {
		if m.Window.Match(cand.StartUnix, s.StartUnix) {
			out = append(out, cand)
		}
	}
	return out
}

// MedianInitial is the paper's initial-throughput predictor F(S): the median
// of the aggregated sessions' initial throughputs (Eq. 6). Returns NaN for
// an empty aggregation.
func MedianInitial(sessions []*trace.Session) float64 {
	vals := make([]float64, 0, len(sessions))
	for _, s := range sessions {
		vals = append(vals, s.InitialThroughput())
	}
	return mathx.Median(vals)
}

// Select runs the per-cell rule search. For every cell (distinct value of
// the full candidate-feature combination) it scores each candidate rule by
// the mean Eq.-1 error of the median predictor over up to SamplePerCell
// reference sessions, discarding rules whose aggregation falls below
// MinGroupSize, and records the winner. Cells where nothing qualifies fall
// back to the global rule.
func (c *Clusterer) Select() { _ = c.SelectCtx(context.Background()) }

// SelectCtx is Select with cancellation: cells fan out across
// cfg.Parallelism workers and a cancelled ctx stops the search, returning
// ctx's error with the rule table unmodified. On a nil error every cell has
// its winner recorded.
func (c *Clusterer) SelectCtx(ctx context.Context) error {
	cells := c.index[NewFeatureSet(c.fullFeatures, TimeWindow{Kind: WindowAll}).Key()]
	cellKeys := make([]string, 0, len(cells))
	for k := range cells {
		cellKeys = append(cellKeys, k)
	}
	sort.Strings(cellKeys)

	cellSeconds := c.cfg.Metrics.Histogram("cs2p_cluster_cell_search_seconds",
		"Rule-search time per full-feature cell (§5.1).", obs.LatencyBuckets, nil)
	winners, err := parallel.Map(ctx, c.cfg.Parallelism, cellKeys, func(_ context.Context, _ int, cellKey string) (FeatureSet, error) {
		start := time.Now()
		w := c.selectCell(cells[cellKey])
		cellSeconds.Observe(time.Since(start).Seconds())
		return w, nil
	})
	if err != nil {
		return err
	}
	globalCells := 0
	for i, k := range cellKeys {
		c.chosen[k] = winners[i]
		if winners[i].IsGlobal() {
			globalCells++
		}
	}
	c.cfg.Metrics.Gauge("cs2p_cluster_cells",
		"Full-feature cells seen in training (rule-search granularity).", nil).Set(float64(len(cellKeys)))
	c.cfg.Metrics.Gauge("cs2p_cluster_cells_global_fallback",
		"Cells whose winning rule degenerated to the global aggregation.", nil).Set(float64(globalCells))
	return nil
}

// selectCell scores every candidate rule for one cell and returns the
// winner. It only reads the clusterer's groups, so concurrent calls for
// different cells are safe.
func (c *Clusterer) selectCell(sessions []*trace.Session) FeatureSet {
	refs := sampleRefs(sessions, c.cfg.SamplePerCell)
	best := c.global
	bestErr := nan()
	groups := make([][]Sample, len(refs)) // each ref's group under cand's features
	var buf, errs []float64
	for i, cand := range c.cands {
		// A combination's windows are adjacent: one group lookup per ref.
		if i == 0 || !slices.Equal(cand.Features, c.cands[i-1].Features) {
			byValue := c.samples[cand.Key()]
			for j, ref := range refs {
				groups[j] = byValue[ref.Features.Key(cand.Features)]
			}
		}
		errs = errs[:0]
		for j, ref := range refs {
			med := WindowMedian(groups[j], cand.Window, ref.StartUnix, c.cfg.MinGroupSize, &buf)
			if isNaN(med) {
				continue // rule unreliable for this ref (Agg too small)
			}
			if e := mathx.AbsRelErr(med, ref.InitialThroughput()); !isNaN(e) {
				errs = append(errs, e)
			}
		}
		// A rule must be reliable for at least half the refs to
		// compete; the paper drops rules whose aggregation is
		// below the threshold.
		if len(errs)*2 < len(refs) || len(errs) == 0 {
			continue
		}
		score := mathx.Mean(errs)
		if isNaN(bestErr) || score < bestErr {
			best, bestErr = cand, score
		}
	}
	return best
}

// ClusterFor returns the selected rule for session s (falling back to the
// global rule for unseen cells) and a stable cluster identifier combining
// the rule and s's feature values under it. Sessions sharing the identifier
// share a prediction model.
func (c *Clusterer) ClusterFor(s *trace.Session) (FeatureSet, string) {
	cellKey := s.Features.Key(c.fullFeatures)
	rule, ok := c.chosen[cellKey]
	if !ok {
		rule = c.global
	}
	return rule, ClusterID(rule, s)
}

// ClusterID builds the model-store key for a session under a rule.
func ClusterID(rule FeatureSet, s *trace.Session) string {
	return rule.String() + "@" + s.Features.Key(rule.Features)
}

// GlobalRule returns the fallback rule.
func (c *Clusterer) GlobalRule() FeatureSet { return c.global }

// Chosen returns a copy of the per-cell rule table built by Select: full-cell
// value key -> winning rule. Exported so the model-store artifact can carry
// the routing decisions to engines booted without the training data.
func (c *Clusterer) Chosen() map[string]FeatureSet {
	out := make(map[string]FeatureSet, len(c.chosen))
	for k, v := range c.chosen {
		out[k] = v
	}
	return out
}

// GlobalFraction reports the share of cells that fell back to the global
// rule; the paper reports ~4% of sessions use the global model.
func (c *Clusterer) GlobalFraction() float64 {
	if len(c.chosen) == 0 {
		return 1
	}
	n := 0
	for _, rule := range c.chosen {
		if rule.IsGlobal() {
			n++
		}
	}
	return float64(n) / float64(len(c.chosen))
}

// MembersByRule returns the training sessions grouped under the same cluster
// identifier as s (feature match only; the time window applies at
// prediction time, not to model training — see DESIGN.md §6).
func (c *Clusterer) MembersByRule(rule FeatureSet, s *trace.Session) []*trace.Session {
	groups, ok := c.index[rule.Key()]
	if !ok {
		return nil
	}
	return groups[s.Features.Key(rule.Features)]
}

func sampleRefs(sessions []*trace.Session, k int) []*trace.Session {
	// Score rules on the later half of the cell's sessions: early
	// sessions have little or no history, so every windowed rule would
	// look unreliable on them.
	later := sessions[len(sessions)/2:]
	if len(later) <= k {
		return later
	}
	out := make([]*trace.Session, 0, k)
	step := float64(len(later)) / float64(k)
	for i := 0; i < k; i++ {
		out = append(out, later[int(float64(i)*step)])
	}
	return out
}

func nan() float64 { return mathx.Quantile(nil, 0) }

func isNaN(x float64) bool { return x != x }
