package core

import (
	"bytes"
	"math"
	"testing"

	"cs2p/internal/cluster"
	"cs2p/internal/hmm"
	"cs2p/internal/mathx"
	"cs2p/internal/predict"
	"cs2p/internal/trace"
	"cs2p/internal/tracegen"
)

// trainedEngine trains one engine on a small synthetic trace, shared across
// tests (training is the expensive part).
var testEnv struct {
	train, test *trace.Dataset
	cfg         Config
	engine      *Engine
}

func env(t *testing.T) (*trace.Dataset, *trace.Dataset, *Engine) {
	t.Helper()
	if testEnv.engine == nil {
		cfg := tracegen.SmallConfig()
		cfg.Sessions = 900
		d, _ := tracegen.Generate(cfg)
		cut := d.Sessions[d.Len()*2/3].Start()
		train, test := d.SplitByTime(cut)
		ecfg := DefaultConfig()
		ecfg.Cluster.MinGroupSize = 10
		ecfg.HMM.NStates = 4
		ecfg.HMM.MaxIters = 25
		eng, err := Train(train, ecfg)
		if err != nil {
			t.Fatal(err)
		}
		testEnv.train, testEnv.test, testEnv.cfg, testEnv.engine = train, test, ecfg, eng
	}
	return testEnv.train, testEnv.test, testEnv.engine
}

func TestTrainBuildsClusters(t *testing.T) {
	_, _, eng := env(t)
	if eng.Clusters() == 0 {
		t.Fatal("no cluster models trained")
	}
	if eng.GlobalModel() == nil {
		t.Fatal("no global model")
	}
	if err := eng.GlobalModel().Validate(); err != nil {
		t.Fatal(err)
	}
	if eng.Name() != "CS2P" {
		t.Error("name mismatch")
	}
}

func TestTrainEmptyDataset(t *testing.T) {
	if _, err := Train(nil, DefaultConfig()); err == nil {
		t.Error("nil dataset should fail")
	}
	if _, err := Train(trace.NewDataset(), DefaultConfig()); err == nil {
		t.Error("empty dataset should fail")
	}
}

func TestPredictInitialBeatsGlobalMedian(t *testing.T) {
	train, test, eng := env(t)
	gm := predict.NewGlobalMedian(train)
	var engErrs, gmErrs []float64
	for _, s := range test.Sessions {
		if e := mathx.AbsRelErr(eng.PredictInitial(s), s.InitialThroughput()); !math.IsNaN(e) {
			engErrs = append(engErrs, e)
		}
		if e := mathx.AbsRelErr(gm.PredictInitial(s), s.InitialThroughput()); !math.IsNaN(e) {
			gmErrs = append(gmErrs, e)
		}
	}
	me, mg := mathx.Median(engErrs), mathx.Median(gmErrs)
	if me >= mg {
		t.Errorf("CS2P initial median error %v should beat global median %v", me, mg)
	}
	t.Logf("initial median error: CS2P=%.3f global=%.3f", me, mg)
}

func TestMidstreamBeatsBaselines(t *testing.T) {
	_, test, eng := env(t)
	sessions := test.Sessions
	if len(sessions) > 150 {
		sessions = sessions[:150]
	}
	cs2p := predict.Summarize(predict.EvaluateMidstream(eng, sessions, 1))
	ls := predict.Summarize(predict.EvaluateMidstream(predict.LS{}, sessions, 1))
	hm := predict.Summarize(predict.EvaluateMidstream(predict.HM{}, sessions, 1))
	t.Logf("midstream flat median: CS2P=%.3f LS=%.3f HM=%.3f", cs2p.FlatMedian, ls.FlatMedian, hm.FlatMedian)
	if cs2p.FlatMedian >= ls.FlatMedian {
		t.Errorf("CS2P (%v) should beat LS (%v)", cs2p.FlatMedian, ls.FlatMedian)
	}
	if cs2p.FlatMedian >= hm.FlatMedian {
		t.Errorf("CS2P (%v) should beat HM (%v)", cs2p.FlatMedian, hm.FlatMedian)
	}
}

func TestSessionPredictorAlgorithm1(t *testing.T) {
	_, test, eng := env(t)
	s := test.Sessions[0]
	p := eng.NewSessionPredictor(s)
	// Before any observation, Predict returns the cluster median at every
	// horizon (Algorithm 1 line 5).
	if p.Predict() != p.InitialPrediction() {
		t.Error("initial Predict should equal the cluster median")
	}
	if p.PredictAhead(5) != p.InitialPrediction() {
		t.Error("initial PredictAhead should equal the cluster median")
	}
	if p.ClusterID() == "" {
		t.Error("empty cluster ID")
	}
	p.Observe(s.Throughput[0])
	if !p.Filter().Started() {
		t.Error("filter should have started")
	}
	mid := p.Predict()
	if math.IsNaN(mid) || mid <= 0 {
		t.Errorf("midstream prediction = %v", mid)
	}
}

func TestModelForFallsBackToGlobal(t *testing.T) {
	_, _, eng := env(t)
	alien := &trace.Session{
		ID: "alien", StartUnix: 1999999999,
		Features:   trace.Features{ClientIP: "250.250.0.1", ISP: "no-such", City: "none", Server: "zzz"},
		Throughput: []float64{1},
	}
	m, id := eng.ModelFor(alien)
	if id != "global" || m != eng.GlobalModel() {
		t.Errorf("alien session should use the global model, got %q", id)
	}
	p := eng.NewSessionPredictor(alien)
	if math.IsNaN(p.Predict()) {
		t.Error("global fallback should still predict")
	}
}

// TestIndexMatchesClusterer checks the index every engine serves from against
// the §5.1 reference it was built from: a clusterer over the same training
// set must give every session the same cluster and the same Eq. 6 initial
// prediction. Training sessions are queried too — held-out ones all start
// after the training set, so only a training session (whose own sample ties
// its start time) exercises the strictly-before cut.
func TestIndexMatchesClusterer(t *testing.T) {
	train, test, eng := env(t)
	c := cluster.New(testEnv.cfg.Cluster, train)
	c.Select()
	ms := eng.Store()
	var windowed, static, global int
	for _, s := range append(append([]*trace.Session(nil), train.Sessions...), test.Sessions...) {
		rule, id := c.ClusterFor(s)
		sm, hasModel := ms.Models[id]
		if rule.IsGlobal() || !hasModel {
			sm, id = ms.Global, GlobalClusterID
			global++
		}
		want := sm.InitialMedian
		if math.IsNaN(want) {
			want = ms.Global.InitialMedian
		}
		agg := c.Aggregate(rule, s)
		if med := cluster.MedianInitial(agg); len(agg) >= testEnv.cfg.MinClusterSessions && !math.IsNaN(med) {
			want = med
			if rule.Window.Kind != cluster.WindowAll {
				windowed++
			}
		} else {
			static++
		}
		p := eng.NewSessionPredictor(s)
		if p.ClusterID() != id {
			t.Fatalf("session %s: engine cluster %q, clusterer %q", s.ID, p.ClusterID(), id)
		}
		if got := p.InitialPrediction(); got != want {
			t.Fatalf("session %s (rule %s): engine initial %v, clusterer %v", s.ID, rule, got, want)
		}
		if m, mid := eng.ModelFor(s); mid != id || m != sm.Model || eng.PredictInitial(s) != want {
			t.Fatalf("session %s: ModelFor/PredictInitial disagree with NewSessionPredictor", s.ID)
		}
	}
	if windowed == 0 || static == 0 || global == 0 {
		t.Fatalf("vacuous: %d windowed aggregations, %d static fallbacks, %d global routes", windowed, static, global)
	}
}

func TestExportLookupRoundTrip(t *testing.T) {
	_, test, eng := env(t)
	ms := eng.Store()
	if len(ms.Models) != eng.Clusters() {
		t.Errorf("store has %d models, engine %d", len(ms.Models), eng.Clusters())
	}
	var buf bytes.Buffer
	if err := ms.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModelStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Models) != len(ms.Models) || len(loaded.Initial.Rules) != len(ms.Initial.Rules) {
		t.Error("store round-trip lost entries")
	}
	// What /v1/model hands a client is what the engine serves the session.
	for _, s := range test.Sessions {
		_, wantID := eng.ModelFor(s)
		sm, gotID := loaded.Lookup(s.Features)
		if gotID != wantID {
			t.Fatalf("session %s: store routed %q, engine %q", s.ID, gotID, wantID)
		}
		if sm.Model == nil {
			t.Fatal("lookup returned nil model")
		}
	}
	booted, err := NewEngineFromStore(loaded)
	if err != nil {
		t.Fatal(err)
	}
	p := booted.NewSessionPredictor(test.Sessions[0])
	if math.IsNaN(p.Predict()) {
		t.Error("store predictor should predict")
	}
	p.Observe(2.0)
	if math.IsNaN(p.Predict()) {
		t.Error("store predictor should predict after observation")
	}
}

func TestModelSizeBudget(t *testing.T) {
	_, _, eng := env(t)
	ms := eng.Store()
	max, err := ms.MaxModelSize()
	if err != nil {
		t.Fatal(err)
	}
	if max > 5*1024 {
		t.Errorf("largest model artifact = %d bytes, paper budget is 5KB", max)
	}
}

func TestLoadModelStoreRejectsBad(t *testing.T) {
	if _, err := LoadModelStore(bytes.NewReader([]byte("{"))); err == nil {
		t.Error("truncated JSON should fail")
	}
	if _, err := LoadModelStore(bytes.NewReader([]byte("{}"))); err == nil {
		t.Error("missing global model should fail")
	}
}

func TestNewFullFeatureList(t *testing.T) {
	got := NewFullFeatureList([]string{"b", "a", "b"})
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("canonical list = %v", got)
	}
	if def := NewFullFeatureList(nil); len(def) != len(trace.ClusterableFeatures) {
		t.Errorf("default list = %v", def)
	}
}

func TestSelectStatesPath(t *testing.T) {
	// Exercise the per-cluster cross-validation branch on a tiny trace.
	cfg := tracegen.SmallConfig()
	cfg.Sessions = 250
	d, _ := tracegen.Generate(cfg)
	ecfg := DefaultConfig()
	ecfg.Cluster.MinGroupSize = 8
	ecfg.SelectStates = true
	ecfg.StateCandidates = []int{2, 3}
	ecfg.CVFolds = 2
	ecfg.HMM.MaxIters = 10
	ecfg.MaxClusterSessions = 30
	eng, err := Train(d, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	if eng.GlobalModel() == nil {
		t.Fatal("missing global model")
	}
}

var _ = hmm.DefaultTrainConfig // keep import grouping honest if unused later
var _ = cluster.DefaultConfig
