package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"cs2p/internal/cluster"
	"cs2p/internal/hmm"
	"cs2p/internal/trace"
)

// StoredModel is one cluster's deployable artifact: the midstream HMM plus a
// static initial-throughput median. The paper reports each such model at
// <5 KB (§5.3); SizeBytes verifies ours.
type StoredModel struct {
	Model         *hmm.Model `json:"model"`
	InitialMedian float64    `json:"initial_median"`
}

// SizeBytes returns the JSON size of the stored model. A marshal failure is
// reported, not swallowed: the §5.3 size budget is a deployment contract,
// and a silent 0 would read as "fits easily" exactly when the artifact is
// broken.
func (sm StoredModel) SizeBytes() (int, error) {
	b, err := json.Marshal(sm)
	if err != nil {
		return 0, fmt.Errorf("core: sizing stored model: %w", err)
	}
	return len(b), nil
}

// InitialSample is one training session's (start, initial throughput) pair
// in the index; the rule search reads the same type.
type InitialSample = cluster.Sample

// InitialIndex is the trained clustering as the serving path consumes it: the
// winning rule per full-feature cell, and — for every rule feature combination
// in use — the training sessions' (start, initial-throughput) samples grouped
// by feature value, sorted by start time (the windowed Agg(M*, s) of §5.1
// needs both). Train builds it once from the training set; every engine,
// trained here or booted from a file, routes and predicts through it.
type InitialIndex struct {
	// MinSessions is the training config's MinClusterSessions threshold:
	// aggregations below it fall back to the static cluster median.
	MinSessions int `json:"min_sessions"`
	// Rules maps a full-feature cell key to the cell's winning rule.
	Rules map[string]cluster.FeatureSet `json:"rules"`
	// Groups maps a rule's feature-combination key to feature-value-keyed
	// sample groups over the whole training set.
	Groups map[string]map[string][]InitialSample `json:"groups"`
}

// ModelStore is the one form a trained model takes — in the engine that
// serves it, in the registry, and on the wire to video servers or clients
// (§5.3): the per-cluster artifacts plus the index that routes any new
// session to one without the training dataset.
type ModelStore struct {
	// FullFeatures is the canonical feature list keying Initial.Rules.
	FullFeatures []string `json:"full_features"`
	// Models holds the per-cluster artifacts.
	Models map[string]StoredModel `json:"models"`
	// Global is the fallback artifact.
	Global StoredModel `json:"global"`
	// Initial routes sessions to Models. Only a global-only store (no
	// Models) may omit it; Validate rejects any other store without one.
	Initial *InitialIndex `json:"initial,omitempty"`
}

// ErrNoIndex: the store has cluster models but no index to route sessions to
// them.
var ErrNoIndex = errors.New("core: model store has cluster models but no initial index")

// newInitialIndex snapshots the clusterer's per-cell rule choices and, for
// every rule combination in use, the sample groups its search ran on — the
// global rule always included, since unseen cells fall back to it.
func newInitialIndex(c *cluster.Clusterer, minSessions int) *InitialIndex {
	idx := &InitialIndex{
		MinSessions: minSessions,
		Rules:       c.Chosen(),
		Groups:      map[string]map[string][]InitialSample{"": c.SampleGroups("")},
	}
	for _, rule := range idx.Rules {
		idx.Groups[rule.Key()] = c.SampleGroups(rule.Key())
	}
	return idx
}

// NewFullFeatureList canonicalizes (sorts, dedups) a candidate feature list
// the way the clustering package keys cells, defaulting to
// trace.ClusterableFeatures.
func NewFullFeatureList(features []string) []string {
	if len(features) == 0 {
		features = trace.ClusterableFeatures
	}
	return cluster.NewFeatureSet(features, cluster.TimeWindow{}).Features
}

// Save writes the store as JSON.
func (ms *ModelStore) Save(w io.Writer) error {
	return json.NewEncoder(w).Encode(ms)
}

// LoadModelStore reads a store written by Save and validates it fully before
// returning: every model structurally sound with finite parameters, the
// initial index well-formed, and nothing after the JSON document (a Decoder
// stops after the first value, and its More() takes a stray '}' or ']' for
// the end of input, so the next token must be io.EOF). Members this build
// does not know — the "routes" table older builds wrote — are ignored.
// On any error the store is discarded whole — a caller never observes a
// half-valid store.
func LoadModelStore(r io.Reader) (*ModelStore, error) {
	dec := json.NewDecoder(r)
	var ms ModelStore
	if err := dec.Decode(&ms); err != nil {
		return nil, fmt.Errorf("core: decoding model store: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("core: decoding model store: trailing data after JSON document")
	}
	if err := ms.Validate(); err != nil {
		return nil, err
	}
	return &ms, nil
}

// Validate checks the store's structural invariants (used by LoadModelStore
// and the artifact loader; strict so a corrupt artifact can never install).
func (ms *ModelStore) Validate() error {
	if ms.Global.Model == nil {
		return fmt.Errorf("core: model store missing global model")
	}
	if err := ms.Global.Model.Validate(); err != nil {
		return fmt.Errorf("core: global model: %w", err)
	}
	for id, sm := range ms.Models {
		if sm.Model == nil {
			return fmt.Errorf("core: cluster %q missing model", id)
		}
		if err := sm.Model.Validate(); err != nil {
			return fmt.Errorf("core: cluster %q: %w", id, err)
		}
	}
	if ms.Initial == nil {
		if len(ms.Models) > 0 {
			return ErrNoIndex
		}
		return nil
	}
	return ms.Initial.validate()
}

// validate checks the initial-prediction index: known window kinds,
// non-negative spans, finite samples, and every rule's combination present
// in Groups (so routing can never dereference a missing group map).
func (idx *InitialIndex) validate() error {
	if idx.MinSessions < 0 {
		return fmt.Errorf("core: initial index: negative min_sessions %d", idx.MinSessions)
	}
	for cell, rule := range idx.Rules {
		switch rule.Window.Kind {
		case cluster.WindowAll, cluster.WindowHistory, cluster.WindowSameHour:
		default:
			return fmt.Errorf("core: initial index: cell %q has unknown window kind %d", cell, rule.Window.Kind)
		}
		if rule.Window.Span < 0 || rule.Window.Days < 0 {
			return fmt.Errorf("core: initial index: cell %q has negative window bounds", cell)
		}
		if _, ok := idx.Groups[rule.Key()]; !ok {
			return fmt.Errorf("core: initial index: cell %q references missing group %q", cell, rule.Key())
		}
	}
	if _, ok := idx.Groups[""]; !ok {
		return fmt.Errorf("core: initial index: missing global aggregation group")
	}
	for combo, groups := range idx.Groups {
		for vk, g := range groups {
			for i, s := range g {
				if math.IsNaN(s.InitialMbps) || math.IsInf(s.InitialMbps, 0) {
					return fmt.Errorf("core: initial index: group %q/%q sample %d has non-finite throughput", combo, vk, i)
				}
				if i > 0 && g[i-1].StartUnix > s.StartUnix {
					return fmt.Errorf("core: initial index: group %q/%q not sorted by start time", combo, vk)
				}
			}
		}
	}
	return nil
}

// noIndex stands in for the index a global-only store omits: no cell has a
// rule and no group has samples, so every session takes the global fallbacks.
var noIndex InitialIndex

func (ms *ModelStore) index() *InitialIndex {
	if ms.Initial == nil {
		return &noIndex
	}
	return ms.Initial
}

// route resolves a session's cell: the rule chosen for it at training time
// (the global rule — FeatureSet's zero value — for unseen cells) and the
// artifact that serves it, the cluster's own when it has one, the global
// fallback otherwise.
func (ms *ModelStore) route(s *trace.Session) (cluster.FeatureSet, StoredModel, string) {
	rule := ms.index().Rules[s.Features.Key(ms.FullFeatures)]
	if !rule.IsGlobal() {
		id := cluster.ClusterID(rule, s)
		if sm, ok := ms.Models[id]; ok {
			return rule, sm, id
		}
	}
	return rule, ms.Global, GlobalClusterID
}

// Lookup returns the stored model and cluster ID for a session's features,
// falling back to the global artifact — what GET /v1/model hands a client.
func (ms *ModelStore) Lookup(f trace.Features) (StoredModel, string) {
	_, sm, id := ms.route(&trace.Session{Features: f})
	return sm, id
}

// medianBufs holds WindowMedian's scratch, so a start allocates no
// aggregation.
var medianBufs = sync.Pool{New: func() any { return new([]float64) }}

// predictInitial is Eq. 6 for a routed session: the median initial
// throughput of Agg(M*, s) when the aggregation is large enough, else the
// serving artifact's static median, else the global one.
func (ms *ModelStore) predictInitial(rule cluster.FeatureSet, sm StoredModel, s *trace.Session) float64 {
	idx := ms.index()
	g := idx.Groups[rule.Key()][s.Features.Key(rule.Features)]
	buf := medianBufs.Get().(*[]float64)
	med := cluster.WindowMedian(g, rule.Window, s.StartUnix, idx.MinSessions, buf)
	medianBufs.Put(buf)
	if !math.IsNaN(med) {
		return med
	}
	if !math.IsNaN(sm.InitialMedian) {
		return sm.InitialMedian
	}
	return ms.Global.InitialMedian
}

// MaxModelSize returns the largest per-cluster artifact in bytes (the
// quantity the paper bounds at 5 KB), or an error if any model fails to
// serialize.
func (ms *ModelStore) MaxModelSize() (int, error) {
	max, err := ms.Global.SizeBytes()
	if err != nil {
		return 0, err
	}
	for id, sm := range ms.Models {
		s, err := sm.SizeBytes()
		if err != nil {
			return 0, fmt.Errorf("core: cluster %q: %w", id, err)
		}
		if s > max {
			max = s
		}
	}
	return max, nil
}
