// Command cs2p-player simulates DASH players driving a running cs2p-server
// (the pilot-deployment client of §7.5): each player opens a session, makes
// one prediction round trip per chunk, adapts bitrate with MPC, and posts
// its QoE log when the video ends.
//
// Usage:
//
//	cs2p-player -server http://127.0.0.1:8642 -trace test.csv -sessions 20
package main

import (
	"flag"
	"fmt"
	"os"

	"cs2p/internal/abr"
	"cs2p/internal/engine"
	"cs2p/internal/httpapi"
	"cs2p/internal/mathx"
	"cs2p/internal/qoe"
	"cs2p/internal/sim"
	"cs2p/internal/trace"
	"cs2p/internal/video"
)

func main() {
	rcfg := httpapi.DefaultResilienceConfig()
	var (
		server    = flag.String("server", "http://127.0.0.1:8642", "prediction service base URL")
		tracePath = flag.String("trace", "", "trace supplying the sessions to replay (CSV; required)")
		sessions  = flag.Int("sessions", 20, "number of sessions to play")

		localFallback = flag.Bool("local-fallback", true, "fetch the cluster model at start and serve it when the service is unreachable")
		wireBinary    = flag.Bool("wire-binary", false, "use the binary /v2 wire protocol for the per-chunk observe/predict round trip")
	)
	// The resilience flags write straight into the library's defaults.
	flag.IntVar(&rcfg.Retry.MaxAttempts, "retries", rcfg.Retry.MaxAttempts, "attempts per idempotent request (1 disables retries)")
	flag.DurationVar(&rcfg.Retry.BaseDelay, "retry-base", rcfg.Retry.BaseDelay, "initial retry backoff")
	flag.DurationVar(&rcfg.Retry.MaxDelay, "retry-max", rcfg.Retry.MaxDelay, "retry backoff cap")
	flag.IntVar(&rcfg.BreakerThreshold, "breaker-threshold", rcfg.BreakerThreshold, "consecutive failures before the circuit opens")
	flag.DurationVar(&rcfg.BreakerCooldown, "breaker-cooldown", rcfg.BreakerCooldown, "open-circuit probe interval")
	flag.Parse()
	if *tracePath == "" {
		fatalf("-trace is required")
	}
	f, err := os.Open(*tracePath)
	if err != nil {
		fatalf("opening trace: %v", err)
	}
	d, err := trace.ReadCSV(f)
	f.Close()
	if err != nil {
		fatalf("reading trace: %v", err)
	}
	client := httpapi.NewClient(*server)
	client.SetWireBinary(*wireBinary)
	if err := client.Healthz(); err != nil {
		fatalf("server not reachable: %v", err)
	}
	rcfg.DisableLocalFallback = !*localFallback

	spec := video.Default()
	w := qoe.DefaultWeights()
	var qoes, bitrates, stalls []float64
	played, localFallbacks, reregs := 0, 0, 0
	for i, s := range d.Sessions {
		if played >= *sessions {
			break
		}
		id := fmt.Sprintf("player-%d-%s", i, s.ID)
		// The predictor rides the PredictionAPI interface; the HTTP client is
		// just one implementation of it.
		pred, err := httpapi.NewResilientPredictor(client, id, s.Features, s.StartUnix, rcfg)
		if err != nil {
			fatalf("starting session: %v", err)
		}
		res := sim.Play(spec, abr.MPC{}, pred, s.Throughput, w)
		st := pred.Stats()
		localFallbacks += st.LocalFallbacks
		reregs += st.Reregistrations
		if res.Chunks == 0 {
			continue
		}
		played++
		qoes = append(qoes, res.QoE)
		bitrates = append(bitrates, res.Metrics.AvgBitrateKbps())
		stalls = append(stalls, res.Metrics.TotalRebufferSeconds())
		if err := client.Log(engine.SessionLog{
			SessionID:       id,
			QoE:             res.QoE,
			AvgBitrateKbps:  res.Metrics.AvgBitrateKbps(),
			RebufferSeconds: res.Metrics.TotalRebufferSeconds(),
			StartupSeconds:  res.Metrics.StartupSeconds,
			Strategy:        "CS2P+MPC",
		}); err != nil {
			fmt.Fprintf(os.Stderr, "warning: posting log: %v\n", err)
		}
		fmt.Printf("session=%s chunks=%d qoe=%.0f avg_bitrate=%.0fkbps rebuffer=%.2fs startup=%.2fs\n",
			s.ID, res.Chunks, res.QoE, res.Metrics.AvgBitrateKbps(),
			res.Metrics.TotalRebufferSeconds(), res.Metrics.StartupSeconds)
	}
	if played == 0 {
		fatalf("no playable sessions in the trace")
	}
	fmt.Printf("summary: sessions=%d median_qoe=%.0f mean_bitrate=%.0fkbps mean_rebuffer=%.2fs local_fallbacks=%d reregistrations=%d\n",
		played, mathx.Median(qoes), mathx.Mean(bitrates), mathx.Mean(stalls), localFallbacks, reregs)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cs2p-player: "+format+"\n", args...)
	os.Exit(1)
}
