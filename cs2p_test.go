package cs2p_test

import (
	"bytes"
	"math"
	"testing"

	"cs2p"
)

// TestPublicAPIEndToEnd exercises the full public surface: generate a
// trace, train, predict, simulate a playback, and round-trip the model
// store — the same flow the README quick start shows.
func TestPublicAPIEndToEnd(t *testing.T) {
	cfg := cs2p.SmallTraceConfig()
	cfg.Sessions = 400
	data, gt := cs2p.GenerateTrace(cfg)
	if data.Len() != 400 || gt.Clusters() == 0 {
		t.Fatalf("trace generation: %d sessions, %d clusters", data.Len(), gt.Clusters())
	}

	// CSV round trip.
	var buf bytes.Buffer
	if err := cs2p.WriteTraceCSV(&buf, data); err != nil {
		t.Fatal(err)
	}
	loaded, err := cs2p.ReadTraceCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != data.Len() {
		t.Fatal("CSV round trip lost sessions")
	}

	// Train on the first 300 sessions, predict on a held-out one.
	train := &cs2p.Dataset{EpochSeconds: data.EpochSeconds, Sessions: data.Sessions[:300]}
	ecfg := cs2p.DefaultConfig()
	ecfg.Cluster.MinGroupSize = 8
	ecfg.HMM.NStates = 3
	ecfg.HMM.MaxIters = 12
	ecfg.MinClusterSessions = 8
	engine, err := cs2p.Train(train, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	s := data.Sessions[350]
	p := engine.NewSessionPredictor(s)
	if init := p.Predict(); math.IsNaN(init) || init <= 0 {
		t.Fatalf("initial prediction = %v", init)
	}
	p.Observe(s.Throughput[0])
	if mid := p.Predict(); math.IsNaN(mid) || mid <= 0 {
		t.Fatalf("midstream prediction = %v", mid)
	}

	// Simulate a playback with MPC + CS2P.
	res := cs2p.Play(cs2p.DefaultVideo(), cs2p.MPC(), engine.NewSession(s), s.Throughput, cs2p.DefaultQoEWeights())
	if res.Chunks == 0 {
		t.Fatal("playback played nothing")
	}
	if err := res.Metrics.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := cs2p.NormalizedQoE(cs2p.DefaultVideo(), cs2p.BufferBased(), nil, s.Throughput, cs2p.DefaultQoEWeights()); !math.IsNaN(n) && (n < -1 || n > 1.01) {
		t.Errorf("BB n-QoE = %v out of range", n)
	}

	// Model store round trip.
	store := engine.Store()
	var sbuf bytes.Buffer
	if err := store.Save(&sbuf); err != nil {
		t.Fatal(err)
	}
	back, err := cs2p.LoadModelStore(&sbuf)
	if err != nil {
		t.Fatal(err)
	}
	booted, err := cs2p.NewEngineFromStore(back)
	if err != nil {
		t.Fatal(err)
	}
	if sp := booted.NewSessionPredictor(s); sp.Predict() != engine.NewSessionPredictor(s).Predict() {
		t.Error("an engine booted from the shipped store should predict as the one that trained it")
	}
	max, err := back.MaxModelSize()
	if err != nil {
		t.Fatal(err)
	}
	if max > 5*1024 {
		t.Errorf("model artifact exceeds the paper's 5KB budget: %d", max)
	}
}

func TestControllersExported(t *testing.T) {
	for _, ctrl := range []cs2p.Controller{cs2p.MPC(), cs2p.BufferBased(), cs2p.RateBased()} {
		if ctrl.Name() == "" {
			t.Error("controller without a name")
		}
	}
}
