package httpapi

import (
	"context"
	"errors"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"cs2p/internal/engine"
	"cs2p/internal/faultinject"
	"cs2p/internal/health"
	"cs2p/internal/hmm"
	"cs2p/internal/mathx"
	"cs2p/internal/obs"
	"cs2p/internal/trace"
)

// longSession returns the skip-th test session with at least n epochs.
func longSession(t *testing.T, d *trace.Dataset, n, skip int) *trace.Session {
	t.Helper()
	for _, s := range d.Sessions {
		if len(s.Throughput) >= n {
			if skip == 0 {
				return s
			}
			skip--
		}
	}
	t.Fatalf("no test session with >= %d epochs", n)
	return nil
}

// quietResilience returns a test config: deterministic, no wall-clock
// sleeps.
func quietResilience() ResilienceConfig {
	cfg := DefaultResilienceConfig()
	cfg.Sleep = func(time.Duration) {}
	cfg.Retry.BaseDelay = time.Microsecond
	return cfg
}

// TestResilientReregisterAfter404 is the restart-survival path: the server
// forgets the session mid-stream (GC or restart), the next observation gets
// a 404, and the predictor re-installs the session from its local mirror's
// state so predictions continue without a NaN gap.
func TestResilientReregisterAfter404(t *testing.T) {
	ts, test := testServer(t)
	defer ts.Close()
	c := NewClient(ts.URL)
	s := longSession(t, test, 8, 0)
	p, err := NewResilientPredictor(c, "res-404", s.Features, s.StartUnix, quietResilience())
	if err != nil {
		t.Fatal(err)
	}
	if !p.HasLocalFallback() {
		t.Fatal("local fallback model should have been fetched")
	}
	for _, w := range s.Throughput[:4] {
		p.Observe(w)
		if math.IsNaN(p.Predict()) {
			t.Fatal("prediction NaN before the fault")
		}
	}
	// The server loses the session (what a restart or GC does).
	envServer.svc.EndSession(engine.SessionLog{SessionID: "res-404"})
	p.Observe(s.Throughput[4])
	if math.IsNaN(p.Predict()) {
		t.Error("prediction should survive the lost session via re-registration")
	}
	st := p.Stats()
	if st.Reregistrations != 1 {
		t.Errorf("reregistrations = %d, want 1", st.Reregistrations)
	}
	if st.NaNPredictions != 0 {
		t.Errorf("NaN predictions = %d, want 0", st.NaNPredictions)
	}
	// The session is live again server-side: a direct query works.
	if _, err := c.PredictAt("res-404", 2); err != nil {
		t.Errorf("session not re-registered server-side: %v", err)
	}
	// And the restored filter is warm: horizon queries return real numbers.
	if v := p.PredictAhead(3); math.IsNaN(v) || v <= 0 {
		t.Errorf("post-recovery horizon prediction = %v", v)
	}
}

// TestResilientLocalFallbackWhenDown covers the breaker + decentralized
// model path: when the service is unreachable, predictions come from the
// locally fetched cluster model instead of NaN, and the breaker stops
// hammering the dead server.
func TestResilientLocalFallbackWhenDown(t *testing.T) {
	ts, test := testServer(t)
	defer ts.Close()
	ft := faultinject.NewTransport(http.DefaultTransport, faultinject.Config{Seed: 1})
	c := NewClientWith(ts.URL, &http.Client{Transport: ft, Timeout: 5 * time.Second})
	s := longSession(t, test, 8, 1)
	cfg := quietResilience()
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = time.Hour // stays open for the test's duration
	cfg.Metrics = obs.NewRegistry()
	p, err := NewResilientPredictor(c, "res-down", s.Features, s.StartUnix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Observe(s.Throughput[0])
	remotePred := p.Predict()
	if math.IsNaN(remotePred) {
		t.Fatal("healthy prediction NaN")
	}
	ft.SetDown(true) // server restarts and never comes back
	for _, w := range s.Throughput[1:6] {
		p.Observe(w)
		if math.IsNaN(p.Predict()) {
			t.Fatal("local fallback should keep predictions non-NaN")
		}
	}
	st := p.Stats()
	if st.LocalFallbacks == 0 {
		t.Error("no local fallbacks recorded")
	}
	if p.Breaker().State() != health.Down {
		t.Errorf("breaker state = %v, want open", p.Breaker().State())
	}
	if st.BreakerFastFails == 0 {
		t.Error("breaker should have fast-failed at least one call")
	}
	if st.NaNPredictions != 0 {
		t.Errorf("NaN predictions = %d, want 0 with a local model", st.NaNPredictions)
	}
	// Horizon queries also come from the local model while down.
	if v := p.PredictAhead(4); math.IsNaN(v) || v <= 0 {
		t.Errorf("offline horizon prediction = %v", v)
	}
	// Service recovers; after the cooldown the breaker re-closes.
	ft.SetDown(false)
	p.Breaker().SetClock(func() time.Time { return time.Now().Add(2 * time.Hour) })
	p.Observe(s.Throughput[6])
	if p.Breaker().State() != health.Healthy {
		t.Errorf("breaker state after recovery = %v, want closed", p.Breaker().State())
	}
	if math.IsNaN(p.Predict()) {
		t.Error("post-recovery prediction NaN")
	}
	// Each transition is counted once under its circuit names.
	var text strings.Builder
	if err := cfg.Metrics.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(strings.NewReader(text.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`cs2p_client_breaker_transitions_total{from="closed",to="open"}`,
		`cs2p_client_breaker_transitions_total{from="open",to="half-open"}`,
		`cs2p_client_breaker_transitions_total{from="half-open",to="closed"}`,
	} {
		if v, ok := obs.SampleValue(samples, key); v != 1 {
			t.Errorf("%s = %v (present %v), want 1", key, v, ok)
		}
	}
}

// TestResilientWithoutLocalModel degrades like the plain predictor: no
// local model means NaN when the service is unreachable — the bottom rung
// of the ladder.
func TestResilientWithoutLocalModel(t *testing.T) {
	ts, test := testServer(t)
	defer ts.Close()
	ft := faultinject.NewTransport(http.DefaultTransport, faultinject.Config{Seed: 1})
	c := NewClientWith(ts.URL, &http.Client{Transport: ft, Timeout: 5 * time.Second})
	s := longSession(t, test, 2, 2)
	cfg := quietResilience()
	cfg.DisableLocalFallback = true
	p, err := NewResilientPredictor(c, "res-nolocal", s.Features, s.StartUnix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.HasLocalFallback() {
		t.Fatal("local fallback should be disabled")
	}
	ft.SetDown(true)
	p.Observe(s.Throughput[0])
	if !math.IsNaN(p.Predict()) {
		t.Error("without a local model, an unreachable service must yield NaN")
	}
	if p.Stats().NaNPredictions == 0 {
		t.Error("NaN prediction not counted")
	}
}

// TestResilientStartRetries verifies session start retries through
// transient connection drops.
func TestResilientStartRetries(t *testing.T) {
	ts, test := testServer(t)
	defer ts.Close()
	// Seed chosen so the first request draws a drop (DropProb 0.5).
	ft := faultinject.NewTransport(http.DefaultTransport, faultinject.Config{Seed: 3, DropProb: 0.5})
	c := NewClientWith(ts.URL, &http.Client{Transport: ft, Timeout: 5 * time.Second})
	s := longSession(t, test, 2, 3)
	cfg := quietResilience()
	cfg.Retry.MaxAttempts = 8
	p, err := NewResilientPredictor(c, "res-retry", s.Features, s.StartUnix, cfg)
	if err != nil {
		t.Fatalf("start should survive 50%% drops with retries: %v", err)
	}
	if math.IsNaN(p.Predict()) {
		t.Error("initial prediction NaN")
	}
	if drops := ft.Stats().Drops; drops == 0 {
		t.Skip("seed produced no drops; schedule changed")
	}
	if p.Stats().Retries == 0 {
		t.Error("no retries recorded despite drops")
	}
}

// TestResilientServerWipedBeyondOldWindow: the server loses a session 12
// chunks in — past the 8 observations the client used to keep for replay —
// and the predictor puts it back from its local mirror. From then on every
// prediction, at every horizon, and the server-side session state itself
// (posterior bits, epoch count) equal an undisturbed control session's: the
// recovery is exact, not a re-warmed approximation with a restarted epoch
// count.
func TestResilientServerWipedBeyondOldWindow(t *testing.T) {
	ts, test := testServer(t)
	defer ts.Close()
	c := NewClient(ts.URL)
	svc := envServer.svc.(*engine.Service)
	s := longSession(t, test, 20, 0)
	open := func(id string) *ResilientSessionPredictor {
		p, err := NewResilientPredictor(c, id, s.Features, s.StartUnix, quietResilience())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	wiped, control := open("wiped"), open("wiped-control")
	for j, w := range s.Throughput[:20] {
		if j == 12 {
			svc.ForgetSession("wiped")
		}
		wiped.Observe(w)
		control.Observe(w)
		for _, k := range []int{1, 3} {
			if got, want := wiped.PredictAhead(k), control.PredictAhead(k); got != want {
				t.Fatalf("chunk %d horizon %d: prediction %v after the wipe, undisturbed %v", j, k, got, want)
			}
		}
		got, err := svc.ExportSession("wiped")
		if err != nil {
			t.Fatalf("chunk %d: %v", j, err)
		}
		want, _ := svc.ExportSession("wiped-control")
		if got.Epoch != want.Epoch || !floatsBitEqual(got.Posterior, want.Posterior) {
			t.Fatalf("chunk %d: server state epoch=%d post=%v, undisturbed epoch=%d post=%v", j, got.Epoch, got.Posterior, want.Epoch, want.Posterior)
		}
	}
	if st := wiped.Stats(); st.Reregistrations != 1 || st.LocalFallbacks != 0 || st.RemoteOK != 20 {
		t.Errorf("stats %+v; want one resync, every observation answered remotely", st)
	}
}

func floatsBitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// epochAPI is an in-process PredictionAPI whose whole session state is the
// number of observations it has absorbed, and whose prediction is that
// count — so a sample the server never saw, or saw twice, shows in every
// later answer. down fails every call with a transport-style error;
// refuseState makes ImportSession answer 409 like a moved-on model guard.
type epochAPI struct {
	epochs      map[string]int
	down        bool
	refuseState bool
	noModel     bool
}

var errEpochAPIDown = errors.New("epochAPI: connection refused")

func (a *epochAPI) StartSession(id string, _ trace.Features, _ int64) (engine.StartResponse, error) {
	if a.down {
		return engine.StartResponse{}, errEpochAPIDown
	}
	a.epochs[id] = 0
	return engine.StartResponse{}, nil
}

func (a *epochAPI) ObserveAndPredict(id string, _ float64, horizon int) (float64, error) {
	if _, ok := a.epochs[id]; !ok || a.down {
		return 0, errEpochAPIDown
	}
	a.epochs[id]++
	return float64(a.epochs[id]), nil
}

func (a *epochAPI) PredictAt(id string, horizon int) (float64, error) {
	if _, ok := a.epochs[id]; !ok || a.down {
		return 0, errEpochAPIDown
	}
	return float64(a.epochs[id]), nil
}

func (a *epochAPI) FetchLocalPredictor(trace.Features) (*LocalPredictor, error) {
	if a.noModel {
		return nil, &StatusError{Status: http.StatusNotImplemented}
	}
	return localPredictorFrom(modelResponse{Model: &hmm.Model{
		Pi:    []float64{1},
		Trans: &mathx.Matrix{Rows: 1, Cols: 1, Data: []float64{1}},
		Emit:  []mathx.Gaussian{{Mu: 1, Sigma: 0.5}},
	}}), nil
}

func (a *epochAPI) ImportSession(_ context.Context, st engine.SessionState) error {
	if a.down {
		return errEpochAPIDown
	}
	if a.refuseState {
		return &StatusError{Status: http.StatusConflict}
	}
	a.epochs[st.SessionID] = st.Epoch
	return nil
}

// TestResilientResync walks the ways a server-side session falls out of step
// and checks the server ends up having absorbed every observation exactly
// once (or, on the cold path, restarted and absorbed the current one).
func TestResilientResync(t *testing.T) {
	const id = "sync"
	type step func(t *testing.T, api *epochAPI, p *ResilientSessionPredictor, now *time.Time)
	observe := func(t *testing.T, _ *epochAPI, p *ResilientSessionPredictor, _ *time.Time) { p.Observe(1) }
	cases := []struct {
		name        string
		api         epochAPI
		steps       []step
		wantEpochs  int
		wantResyncs int
	}{
		{
			// Three failed horizon queries (idempotent, so they rightly
			// leave the session in step) open the breaker; the next observe
			// is skipped. The sample the server never saw must mark the
			// session desynced — forwarding the following one as if nothing
			// happened loses an observation for the rest of the session.
			name: "observe skipped by an open breaker",
			steps: []step{
				observe,
				func(t *testing.T, api *epochAPI, p *ResilientSessionPredictor, _ *time.Time) {
					api.down = true
					for i := 0; i < 3; i++ {
						p.PredictAhead(2)
					}
					if p.Breaker().State() != health.Down {
						t.Fatalf("breaker %v after three failed queries, want open", p.Breaker().State())
					}
					p.Observe(1) // fast-failed
					api.down = false
				},
				func(_ *testing.T, _ *epochAPI, _ *ResilientSessionPredictor, now *time.Time) {
					*now = now.Add(time.Hour)
				},
				observe,
			},
			wantEpochs: 3, wantResyncs: 1,
		},
		{
			name: "session lost server-side",
			steps: []step{observe, observe,
				func(_ *testing.T, api *epochAPI, _ *ResilientSessionPredictor, _ *time.Time) { delete(api.epochs, id) },
				observe,
			},
			wantEpochs: 3, wantResyncs: 1,
		},
		{
			// The model moved on: the state is refused and the session takes
			// the cold path — fresh start, current observation applied.
			name: "state refused",
			api:  epochAPI{refuseState: true},
			steps: []step{observe, observe,
				func(_ *testing.T, api *epochAPI, _ *ResilientSessionPredictor, _ *time.Time) { delete(api.epochs, id) },
				observe,
			},
			wantEpochs: 1, wantResyncs: 1,
		},
		{
			name: "no local model to push",
			api:  epochAPI{noModel: true},
			steps: []step{observe, observe,
				func(_ *testing.T, api *epochAPI, _ *ResilientSessionPredictor, _ *time.Time) { delete(api.epochs, id) },
				observe,
			},
			wantEpochs: 1, wantResyncs: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			api := tc.api
			api.epochs = map[string]int{}
			cfg := quietResilience()
			cfg.Retry.MaxAttempts = 1
			p, err := NewResilientPredictor(&api, id, trace.Features{}, 0, cfg)
			if err != nil {
				t.Fatal(err)
			}
			now := time.Unix(0, 0)
			p.Breaker().SetClock(func() time.Time { return now })
			for _, st := range tc.steps {
				st(t, &api, p, &now)
			}
			if got := api.epochs[id]; got != tc.wantEpochs {
				t.Errorf("server absorbed %d observations, want %d", got, tc.wantEpochs)
			}
			if got := p.Predict(); got != float64(tc.wantEpochs) {
				t.Errorf("prediction %v, want the server's %d", got, tc.wantEpochs)
			}
			if got := p.Stats().Reregistrations; got != tc.wantResyncs {
				t.Errorf("resyncs = %d, want %d", got, tc.wantResyncs)
			}
		})
	}
}
