package experiments

import (
	"fmt"
	"math"
	"net/http/httptest"

	"cs2p/internal/abr"
	"cs2p/internal/core"
	"cs2p/internal/engine"
	"cs2p/internal/httpapi"
	"cs2p/internal/mathx"
	"cs2p/internal/predict"
	"cs2p/internal/qoe"
	"cs2p/internal/sim"
)

func init() {
	Registry["P1"] = PilotDeployment
}

// PilotDeployment reproduces the §7.5 pilot: players drive real HTTP round
// trips against the prediction service (one POST per chunk, exactly the
// prototype's wire pattern), comparing CS2P+MPC against the state-of-art
// HM+MPC, and checks the start-of-session rebuffer-time forecast against
// what actually happened.
func PilotDeployment(c *Context) Result {
	r := Result{ID: "P1", Title: "Pilot deployment over HTTP (paper §7.5)"}
	eng := c.Engine()
	svc := engine.NewService(eng, c.EngineConfig(), c.Spec)
	srv := httpapi.NewServer(svc, (*core.Engine).Store)
	srv.SetLogf(func(string, ...any) {})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := httpapi.NewClient(ts.URL)
	if err := client.Healthz(); err != nil {
		r.rowf("server unhealthy: %v", err)
		return r
	}

	sessions := c.QoESessions(100)
	w := qoe.DefaultWeights()
	var cs2pQoE, hmQoE, cs2pBr, hmBr, cs2pGood, hmGood []float64
	var estErr []float64
	for i, s := range sessions {
		id := fmt.Sprintf("pilot-%d", i)
		start, err := client.StartSession(id, s.Features, s.StartUnix)
		if err != nil {
			r.rowf("session start failed: %v", err)
			return r
		}
		remote, err := client.NewSessionPredictor(id, s.Features, s.StartUnix)
		if err != nil {
			r.rowf("predictor setup failed: %v", err)
			return r
		}
		res := sim.Play(c.Spec, abr.MPC{}, remote, s.Throughput, w)
		if res.Chunks == 0 {
			continue
		}
		_ = client.Log(engine.SessionLog{
			SessionID:       id,
			QoE:             res.QoE,
			AvgBitrateKbps:  res.Metrics.AvgBitrateKbps(),
			RebufferSeconds: res.Metrics.TotalRebufferSeconds(),
			StartupSeconds:  res.Metrics.StartupSeconds,
			Strategy:        "CS2P+MPC",
		})
		opt, _ := abr.OfflineOptimal{Weights: w}.Best(c.Spec, s.Throughput[:res.Chunks])
		if v := qoe.Normalized(res.QoE, opt); !math.IsNaN(v) {
			cs2pQoE = append(cs2pQoE, v)
		}
		cs2pBr = append(cs2pBr, res.Metrics.AvgBitrateKbps())
		cs2pGood = append(cs2pGood, res.Metrics.GoodRatio())
		// Rebuffer-forecast accuracy (absolute seconds; most sessions
		// see zero stalls, so report the absolute gap).
		estErr = append(estErr, math.Abs(start.RebufferEstimateSec-res.Metrics.TotalRebufferSeconds()))

		// The HM+MPC comparator runs locally (no prediction service).
		hmRes := sim.Play(c.Spec, abr.MPC{}, predict.HM{}.NewSession(s), s.Throughput, w)
		if v := qoe.Normalized(hmRes.QoE, opt); !math.IsNaN(v) {
			hmQoE = append(hmQoE, v)
		}
		hmBr = append(hmBr, hmRes.Metrics.AvgBitrateKbps())
		hmGood = append(hmGood, hmRes.Metrics.GoodRatio())
	}
	if len(cs2pQoE) == 0 || len(hmQoE) == 0 {
		r.rowf("no completed sessions")
		return r
	}
	r.rowf("strategy=CS2P+MPC median_nqoe=%.3f avg_bitrate=%.0fkbps good_ratio=%.3f sessions=%d",
		mathx.Median(cs2pQoE), mathx.Mean(cs2pBr), mathx.Mean(cs2pGood), len(cs2pQoE))
	r.rowf("strategy=HM+MPC   median_nqoe=%.3f avg_bitrate=%.0fkbps good_ratio=%.3f",
		mathx.Median(hmQoE), mathx.Mean(hmBr), mathx.Mean(hmGood))
	r.rowf("improvement: nqoe %+.1f%% bitrate %+.1f%% (paper: +3.2%% QoE, +10.9%% bitrate)",
		100*(mathx.Median(cs2pQoE)/mathx.Median(hmQoE)-1),
		100*(mathx.Mean(cs2pBr)/mathx.Mean(hmBr)-1))
	r.rowf("rebuffer_forecast_abs_err: median=%.2fs p90=%.2fs (paper: accurate start-of-session forecast)",
		mathx.Median(estErr), mathx.Quantile(estErr, 0.9))
	r.rowf("server_logs_recorded=%d", len(svc.Logs()))
	return r
}
