// Server-client: run the CS2P Prediction Engine as an HTTP service on
// localhost and drive a player session against it — the paper's §6
// prototype (Dash.js player + prediction server) end to end in one process.
//
//	go run ./examples/server-client
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"

	"cs2p"
	"cs2p/internal/core"
	"cs2p/internal/engine"
	"cs2p/internal/httpapi"
	"cs2p/internal/predict"
	"cs2p/internal/video"
)

func main() {
	// Train the engine (server side).
	cfg := cs2p.SmallTraceConfig()
	cfg.Sessions = 700
	data, _ := cs2p.GenerateTrace(cfg)
	cut := data.Sessions[data.Len()*2/3].Start()
	train, test := data.SplitByTime(cut)
	ecfg := cs2p.DefaultConfig()
	ecfg.Cluster.MinGroupSize = 10
	eng, err := cs2p.Train(train, ecfg)
	if err != nil {
		log.Fatalf("training: %v", err)
	}

	// Serve it over HTTP on an ephemeral port.
	svc := engine.NewService(eng, ecfg, video.Default())
	srv := httpapi.NewServer(svc, (*core.Engine).Store)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	go func() {
		if err := http.Serve(ln, srv.Handler()); err != nil {
			log.Printf("server stopped: %v", err)
		}
	}()
	base := "http://" + ln.Addr().String()
	fmt.Printf("prediction engine serving on %s\n", base)

	// Player side: one prediction round trip per chunk, like the Dash.js
	// prototype.
	client := httpapi.NewClient(base)
	if err := client.Healthz(); err != nil {
		log.Fatalf("healthz: %v", err)
	}
	s := test.Sessions[0]
	start, err := client.StartSession("demo", s.Features, s.StartUnix)
	if err != nil {
		log.Fatalf("start: %v", err)
	}
	fmt.Printf("session %s: cluster=%s initial=%.2f Mbps suggested_start=%.0f kbps rebuffer_forecast=%.1fs\n",
		s.ID, start.ClusterID, start.InitialPredictionMbps, start.SuggestedInitialKbps, start.RebufferEstimateSec)

	pred, err := client.NewSessionPredictor("demo", s.Features, s.StartUnix)
	if err != nil {
		log.Fatalf("predictor: %v", err)
	}
	res := cs2p.Play(cs2p.DefaultVideo(), cs2p.MPC(), pred, s.Throughput, cs2p.DefaultQoEWeights())
	fmt.Printf("played %d chunks: qoe=%.0f avg_bitrate=%.0fkbps startup=%.2fs rebuffer=%.2fs switches=%d\n",
		res.Chunks, res.QoE, res.Metrics.AvgBitrateKbps(), res.Metrics.StartupSeconds,
		res.Metrics.TotalRebufferSeconds(), res.Metrics.Switches())

	// For contrast, the same session with the local Harmonic-Mean
	// predictor (no server).
	hm := cs2p.Play(cs2p.DefaultVideo(), cs2p.MPC(), predict.HM{}.NewSession(s), s.Throughput, cs2p.DefaultQoEWeights())
	fmt.Printf("HM+MPC baseline:      qoe=%.0f avg_bitrate=%.0fkbps startup=%.2fs rebuffer=%.2fs switches=%d\n",
		hm.QoE, hm.Metrics.AvgBitrateKbps(), hm.Metrics.StartupSeconds,
		hm.Metrics.TotalRebufferSeconds(), hm.Metrics.Switches())

	// Decentralized alternative (§5.3): download the cluster model once
	// and predict locally — no per-chunk round trips.
	local, err := client.FetchLocalPredictor(s.Features)
	if err != nil {
		log.Fatalf("model download: %v", err)
	}
	local.Observe(s.Throughput[0])
	fmt.Printf("client-side model (cluster %s) predicts %.2f Mbps after one epoch\n",
		local.ClusterID(), local.Predict())

	// Report the QoE log back to the engine, as the player does on end.
	if err := client.Log(engine.SessionLog{
		SessionID: "demo", QoE: res.QoE, AvgBitrateKbps: res.Metrics.AvgBitrateKbps(),
		RebufferSeconds: res.Metrics.TotalRebufferSeconds(),
		StartupSeconds:  res.Metrics.StartupSeconds, Strategy: "CS2P+MPC",
	}); err != nil {
		log.Fatalf("log: %v", err)
	}
	fmt.Printf("server recorded %d session log(s)\n", len(svc.Logs()))
}
