// Quickstart: generate a synthetic throughput trace, train CS2P, and
// predict a held-out session — the paper's Figure 1 workflow end to end.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"

	"cs2p"
)

func main() {
	// 1. Get a dataset. (In production this is your players' measured
	// per-epoch throughput; here we synthesize one.)
	cfg := cs2p.SmallTraceConfig()
	cfg.Sessions = 800
	data, _ := cs2p.GenerateTrace(cfg)
	fmt.Printf("dataset: %d sessions, %d epochs\n", data.Len(), len(data.AllEpochThroughputs()))

	// 2. Split train/test by time (the paper trains on day 1, tests on
	// day 2) and train the engine.
	cut := data.Sessions[data.Len()*3/4].Start()
	train, test := data.SplitByTime(cut)
	ecfg := cs2p.DefaultConfig()
	ecfg.Cluster.MinGroupSize = 10
	engine, err := cs2p.Train(train, ecfg)
	if err != nil {
		log.Fatalf("training: %v", err)
	}
	fmt.Printf("trained %d cluster models from %d sessions\n", engine.Clusters(), train.Len())

	// 3. Predict a new session with Algorithm 1: the initial epoch from
	// the cluster median, midstream epochs from the cluster HMM.
	s := test.Sessions[0]
	p := engine.NewSessionPredictor(s)
	fmt.Printf("\nsession %s (cluster %s):\n", s.ID, p.ClusterID())
	fmt.Printf("%-6s %-12s %-12s %s\n", "epoch", "predicted", "actual", "error")
	var errSum float64
	n := 0
	for t, actual := range s.Throughput {
		pred := p.Predict()
		e := math.Abs(pred-actual) / actual
		if t < 8 {
			fmt.Printf("%-6d %-12.2f %-12.2f %.1f%%\n", t, pred, actual, 100*e)
		}
		errSum += e
		n++
		p.Observe(actual)
	}
	fmt.Printf("mean error over %d epochs: %.1f%%\n", n, 100*errSum/float64(n))

	// 4. Ship the models: the store is what the Prediction Engine sends
	// to video servers or players (<5 KB per cluster).
	store := engine.Store()
	maxSize, err := store.MaxModelSize()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmodel store: %d clusters, largest artifact %d bytes\n",
		engine.Clusters(), maxSize)
}
