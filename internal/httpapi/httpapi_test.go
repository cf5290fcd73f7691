package httpapi

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"cs2p/internal/core"
	"cs2p/internal/engine"
	"cs2p/internal/trace"
	"cs2p/internal/tracegen"
	"cs2p/internal/video"
)

var (
	envOnce   sync.Once
	envServer *Server
	envTest   *trace.Dataset
	envEngine *core.Engine
	envTrain  *trace.Dataset
	envCfg    core.Config
)

func testServer(t *testing.T) (*httptest.Server, *trace.Dataset) {
	t.Helper()
	ensureEnv()
	return httptest.NewServer(envServer.Handler()), envTest
}

// ensureEnv trains the shared engine once for every test and benchmark in
// the package.
func ensureEnv() {
	envOnce.Do(func() {
		cfg := tracegen.SmallConfig()
		cfg.Sessions = 400
		d, _ := tracegen.Generate(cfg)
		cut := d.Sessions[d.Len()*2/3].Start()
		train, test := d.SplitByTime(cut)
		ecfg := core.DefaultConfig()
		ecfg.Cluster.MinGroupSize = 10
		ecfg.HMM.NStates = 3
		ecfg.HMM.MaxIters = 12
		eng, err := core.Train(train, ecfg)
		if err != nil {
			panic(err)
		}
		svc := engine.NewService(eng, ecfg, video.Default())
		envServer = NewServer(svc, (*core.Engine).Store)
		envServer.SetLogf(func(string, ...any) {})
		envTest = test
		envEngine = eng
		envTrain = train
		envCfg = ecfg
	})
}

func TestHealthz(t *testing.T) {
	ts, _ := testServer(t)
	defer ts.Close()
	c := NewClient(ts.URL)
	if err := c.Healthz(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionLifecycleOverHTTP(t *testing.T) {
	ts, test := testServer(t)
	defer ts.Close()
	c := NewClient(ts.URL)
	s := test.Sessions[0]
	resp, err := c.StartSession("http-a", s.Features, s.StartUnix)
	if err != nil {
		t.Fatal(err)
	}
	if resp.InitialPredictionMbps <= 0 {
		t.Errorf("initial prediction = %v", resp.InitialPredictionMbps)
	}
	for _, w := range s.Throughput[:4] {
		p, err := c.ObserveAndPredict("http-a", w, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(p) || p <= 0 {
			t.Fatalf("prediction = %v", p)
		}
	}
	if p3, err := c.PredictAt("http-a", 3); err != nil || math.IsNaN(p3) {
		t.Errorf("PredictAt = %v, %v", p3, err)
	}
	if err := c.Log(engine.SessionLog{SessionID: "http-a", QoE: 42}); err != nil {
		t.Fatal(err)
	}
}

func TestSessionPredictorAdapter(t *testing.T) {
	ts, test := testServer(t)
	defer ts.Close()
	c := NewClient(ts.URL)
	s := test.Sessions[1]
	p, err := c.NewSessionPredictor("http-adapter", s.Features, s.StartUnix)
	if err != nil {
		t.Fatal(err)
	}
	init := p.Predict()
	if math.IsNaN(init) || init <= 0 {
		t.Fatalf("initial = %v", init)
	}
	if p.PredictAhead(4) != init {
		t.Error("pre-observation horizon prediction should equal the initial estimate")
	}
	p.Observe(s.Throughput[0])
	if math.IsNaN(p.Predict()) {
		t.Error("post-observation prediction NaN")
	}
	if math.IsNaN(p.PredictAhead(5)) {
		t.Error("horizon prediction NaN")
	}
}

func TestErrorStatuses(t *testing.T) {
	ts, _ := testServer(t)
	defer ts.Close()
	c := NewClient(ts.URL)
	// Unknown session -> 404 surfaced as error.
	if _, err := c.ObserveAndPredict("ghost", 1, 1); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown session error = %v", err)
	}
	// Malformed JSON -> 400.
	resp, err := ts.Client().Post(ts.URL+"/v1/predict", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("malformed JSON status = %d", resp.StatusCode)
	}
	// Missing session_id on start -> 400.
	resp, err = ts.Client().Post(ts.URL+"/v1/session/start", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("missing session_id status = %d", resp.StatusCode)
	}
	// Missing session_id on log -> 400.
	if err := c.Log(engine.SessionLog{}); err == nil {
		t.Error("log without session_id should fail")
	}
}

func TestModelEndpoint(t *testing.T) {
	ts, test := testServer(t)
	defer ts.Close()
	s := test.Sessions[0]
	resp, err := ts.Client().Get(ts.URL + "/v1/model?isp=" + s.Features.ISP + "&city=" + s.Features.City + "&server=" + s.Features.Server + "&ip=" + s.Features.ClientIP + "&as=" + s.Features.AS + "&province=" + s.Features.Province)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("model endpoint status = %d", resp.StatusCode)
	}
	buf := make([]byte, 64<<10)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	if !strings.Contains(body, "cluster_id") || !strings.Contains(body, "trans") {
		t.Errorf("model response incomplete: %s", body[:min(200, len(body))])
	}
}

func TestModelEndpointDisabled(t *testing.T) {
	srv := NewServer(engine.NewService(envEngine, core.DefaultConfig(), video.Default()), nil)
	srv.SetLogf(func(string, ...any) {})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 501 {
		t.Errorf("disabled export status = %d, want 501", resp.StatusCode)
	}
}
