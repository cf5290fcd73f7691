package cs2p_test

import (
	"bytes"
	"fmt"
	"log"

	"cs2p"
)

// Example shows the end-to-end workflow of the paper's Figure 1: train the
// Prediction Engine on past sessions, export the deployable models, and run
// the per-session Algorithm-1 predictor.
func Example() {
	// Synthesize a small dataset (stand-in for your players' telemetry).
	cfg := cs2p.SmallTraceConfig()
	cfg.Sessions = 400
	data, _ := cs2p.GenerateTrace(cfg)

	// Offline training on the earlier sessions.
	train := &cs2p.Dataset{EpochSeconds: data.EpochSeconds, Sessions: data.Sessions[:300]}
	ecfg := cs2p.DefaultConfig()
	ecfg.Cluster.MinGroupSize = 8
	ecfg.HMM.NStates = 3
	ecfg.HMM.MaxIters = 10
	engine, err := cs2p.Train(train, ecfg)
	if err != nil {
		log.Fatal(err)
	}

	// Online prediction for a held-out session.
	s := data.Sessions[350]
	p := engine.NewSessionPredictor(s)
	initial := p.Predict() // cluster-median initial throughput
	p.Observe(s.Throughput[0])
	midstream := p.Predict() // HMM most-likely-state mean

	// Export and reload the deployable model store.
	var buf bytes.Buffer
	if err := engine.Store().Save(&buf); err != nil {
		log.Fatal(err)
	}
	store, err := cs2p.LoadModelStore(&buf)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("initial prediction positive:", initial > 0)
	fmt.Println("midstream prediction positive:", midstream > 0)
	maxSize, err := store.MaxModelSize()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("store fits 5KB budget:", maxSize <= 5*1024)
	// Output:
	// initial prediction positive: true
	// midstream prediction positive: true
	// store fits 5KB budget: true
}
