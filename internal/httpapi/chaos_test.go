package httpapi

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"cs2p/internal/abr"
	"cs2p/internal/core"
	"cs2p/internal/engine"
	"cs2p/internal/faultinject"
	"cs2p/internal/mathx"
	"cs2p/internal/predict"
	"cs2p/internal/qoe"
	"cs2p/internal/sim"
	"cs2p/internal/trace"
	"cs2p/internal/video"
)

// chaosSessions picks the playback sessions the chaos runs replay: long
// enough that a mid-playback restart is genuinely mid-playback.
func chaosSessions(t *testing.T, test *trace.Dataset) []*trace.Session {
	t.Helper()
	var out []*trace.Session
	for _, s := range test.Sessions {
		if len(s.Throughput) >= 20 {
			out = append(out, s)
		}
		if len(out) == 6 {
			return out
		}
	}
	t.Fatalf("only %d sessions with >= 20 epochs", len(out))
	return nil
}

// restartHook wraps a predictor and fires scheduled hooks at fixed
// observation indices — how the harness injects "the server restarted at
// chunk 10" deterministically.
type restartHook struct {
	inner predict.Midstream
	n     int
	hooks map[int]func()
}

func (r *restartHook) Predict() float64           { return r.inner.Predict() }
func (r *restartHook) PredictAhead(k int) float64 { return r.inner.PredictAhead(k) }
func (r *restartHook) Observe(w float64) {
	if fn, ok := r.hooks[r.n]; ok {
		fn()
	}
	r.n++
	r.inner.Observe(w)
}

// chaosRun plays every session through a dedicated server instance behind
// the fault transport. restart=true bounces the server (full outage window
// plus total session-state loss) while session 2 is mid-playback.
type chaosResult struct {
	qoes   []float64
	stats  ResilienceStats
	panics int64
	chunks []int
	faults faultinject.Stats
}

func chaosRun(t *testing.T, sessions []*trace.Session, fcfg faultinject.Config, faulty, restart bool) chaosResult {
	t.Helper()
	spec := video.Default()
	weights := qoe.DefaultWeights()

	var panics atomic.Int64
	newServer := func() *Server {
		svc := engine.NewService(envEngine, envCfg, spec)
		srv := NewServer(svc, (*core.Engine).Store)
		srv.SetLogf(func(string, ...any) {})
		return srv
	}
	cur := newServer()
	var handler atomic.Value
	handler.Store(cur.Handler())
	collectPanics := func() { panics.Add(cur.PanicCount()) }
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer ts.Close()

	var ft *faultinject.Transport
	hc := &http.Client{Timeout: 5 * time.Second}
	if faulty {
		ft = faultinject.NewTransport(http.DefaultTransport, fcfg)
		hc.Transport = ft
	}
	c := NewClientWith(ts.URL, hc)

	var res chaosResult
	for i, s := range sessions {
		cfg := DefaultResilienceConfig()
		cfg.Sleep = func(time.Duration) {}
		cfg.Retry.MaxAttempts = 6
		// A wall-clock breaker would make the fault schedule timing-
		// dependent; an effectively-disabled breaker keeps the run
		// deterministic. The breaker itself is covered by unit tests and
		// TestResilientLocalFallbackWhenDown.
		cfg.BreakerThreshold = math.MaxInt32
		cfg.Seed = int64(100 + i)
		p, err := c.NewResilientSessionPredictor(fmt.Sprintf("chaos-%d", i), s.Features, s.StartUnix, cfg)
		if err != nil {
			t.Fatalf("session %d failed to start despite retries: %v", i, err)
		}
		var pred predict.Midstream = p
		if restart && i == 2 {
			pred = &restartHook{inner: p, hooks: map[int]func(){
				10: func() {
					// Full restart: clients see refused connections, and
					// the replacement process has no session state.
					ft.SetDown(true)
					collectPanics()
					cur = newServer()
					handler.Store(cur.Handler())
				},
				12: func() { ft.SetDown(false) },
			}}
		}
		play := sim.Play(spec, abr.MPC{}, pred, s.Throughput, weights)
		res.chunks = append(res.chunks, play.Chunks)
		res.qoes = append(res.qoes, play.QoE)
		st := p.Stats()
		res.stats.Observations += st.Observations
		res.stats.RemoteOK += st.RemoteOK
		res.stats.RemoteFailures += st.RemoteFailures
		res.stats.Retries += st.Retries
		res.stats.Reregistrations += st.Reregistrations
		res.stats.LocalFallbacks += st.LocalFallbacks
		res.stats.NaNPredictions += st.NaNPredictions
	}
	collectPanics()
	res.panics = panics.Load()
	if ft != nil {
		res.faults = ft.Stats()
	}
	return res
}

// assertBoundedDegradation checks the acceptance bar shared by every fault
// regime: full playback, no panics, and bounded QoE loss.
func assertBoundedDegradation(t *testing.T, name string, sessions []*trace.Session, base, run chaosResult, qoeTol, nanTol float64) {
	t.Helper()
	spec := video.Default()
	for i, s := range sessions {
		want := spec.NumChunks()
		if len(s.Throughput) < want {
			want = len(s.Throughput)
		}
		if run.chunks[i] != want {
			t.Errorf("%s: session %d played %d/%d chunks", name, i, run.chunks[i], want)
		}
	}
	if run.panics != 0 {
		t.Errorf("%s: %d handler panics", name, run.panics)
	}
	if run.stats.Observations == 0 {
		t.Fatalf("%s: no observations recorded", name)
	}
	nanFrac := float64(run.stats.NaNPredictions) / float64(run.stats.Observations)
	if nanFrac > nanTol {
		t.Errorf("%s: %.1f%% of chunks had NaN predictions (tolerance %.0f%%); stats %+v",
			name, 100*nanFrac, 100*nanTol, run.stats)
	}
	medBase := mathx.Median(append([]float64(nil), base.qoes...))
	medRun := mathx.Median(append([]float64(nil), run.qoes...))
	if math.Abs(medRun-medBase) > qoeTol*math.Abs(medBase) {
		t.Errorf("%s: median QoE %.1f vs fault-free %.1f (> %.0f%% off)",
			name, medRun, medBase, 100*qoeTol)
	}
}

// TestChaosPlaybackUnderFaults is the acceptance harness: full videos play
// through the real client/server stack under each fault regime, and
// playback quality stays within tolerance of the fault-free baseline.
func TestChaosPlaybackUnderFaults(t *testing.T) {
	_, test := testServer(t) // build the shared engine/dataset env
	sessions := chaosSessions(t, test)
	base := chaosRun(t, sessions, faultinject.Config{}, false, false)
	if base.stats.NaNPredictions != 0 || base.stats.RemoteFailures != 0 {
		t.Fatalf("fault-free baseline saw failures: %+v", base.stats)
	}

	// The headline regime (acceptance criteria): 20% request drops plus a
	// full mid-playback server restart. Deterministic under its seed.
	t.Run("drops20-restart", func(t *testing.T) {
		fcfg := faultinject.Config{Seed: 7, DropProb: 0.20}
		run := chaosRun(t, sessions, fcfg, true, true)
		assertBoundedDegradation(t, "drops20-restart", sessions, base, run, 0.15, 0.10)
		if run.stats.Reregistrations == 0 {
			t.Error("restart regime should force at least one re-registration")
		}
		if run.faults.Drops == 0 || run.faults.Outages == 0 {
			t.Errorf("fault schedule fired nothing: %+v", run.faults)
		}
		// Determinism: the same seed replays the same run, QoE-identical.
		again := chaosRun(t, sessions, fcfg, true, true)
		for i := range run.qoes {
			if run.qoes[i] != again.qoes[i] {
				t.Errorf("nondeterministic: session %d QoE %.3f vs %.3f", i, run.qoes[i], again.qoes[i])
			}
		}
	})

	t.Run("errors5xx", func(t *testing.T) {
		run := chaosRun(t, sessions, faultinject.Config{Seed: 11, ErrorProb: 0.25}, true, false)
		assertBoundedDegradation(t, "errors5xx", sessions, base, run, 0.20, 0.10)
	})
	t.Run("truncated-bodies", func(t *testing.T) {
		run := chaosRun(t, sessions, faultinject.Config{Seed: 13, TruncateProb: 0.20}, true, false)
		assertBoundedDegradation(t, "truncated-bodies", sessions, base, run, 0.20, 0.10)
	})
	t.Run("latency", func(t *testing.T) {
		run := chaosRun(t, sessions, faultinject.Config{Seed: 17, LatencyProb: 0.30, Latency: 2 * time.Millisecond}, true, false)
		// Injected latency delays the control plane but must not corrupt
		// predictions at all.
		assertBoundedDegradation(t, "latency", sessions, base, run, 0.15, 0.0)
	})
	t.Run("restart-only", func(t *testing.T) {
		run := chaosRun(t, sessions, faultinject.Config{Seed: 19}, true, true)
		assertBoundedDegradation(t, "restart-only", sessions, base, run, 0.15, 0.10)
		if run.stats.Reregistrations == 0 {
			t.Error("restart regime should force at least one re-registration")
		}
	})
}

// TestChaosAggressive runs the kitchen-sink schedule (`make chaos` sets
// CS2P_CHAOS). Playback must still complete panic-free with mostly-real
// predictions even when a quarter of all requests die.
func TestChaosAggressive(t *testing.T) {
	if os.Getenv("CS2P_CHAOS") == "" {
		t.Skip("set CS2P_CHAOS=1 (or run `make chaos`) for the aggressive fault schedule")
	}
	_, test := testServer(t)
	sessions := chaosSessions(t, test)
	base := chaosRun(t, sessions, faultinject.Config{}, false, false)
	run := chaosRun(t, sessions, faultinject.Aggressive(23), true, true)
	assertBoundedDegradation(t, "aggressive", sessions, base, run, 0.25, 0.15)
	t.Logf("aggressive regime: faults=%+v resilience=%+v", run.faults, run.stats)
}
