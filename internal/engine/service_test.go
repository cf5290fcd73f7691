package engine

import (
	"math"
	"sync"
	"testing"
	"time"

	"cs2p/internal/core"
	"cs2p/internal/obs"
	"cs2p/internal/trace"
	"cs2p/internal/tracegen"
	"cs2p/internal/video"
)

var (
	envOnce sync.Once
	envSvc  *Service
	envTest *trace.Dataset
)

func service(t *testing.T) (*Service, *trace.Dataset) {
	t.Helper()
	envOnce.Do(func() {
		cfg := tracegen.SmallConfig()
		cfg.Sessions = 500
		d, _ := tracegen.Generate(cfg)
		cut := d.Sessions[d.Len()*2/3].Start()
		train, test := d.SplitByTime(cut)
		ecfg := core.DefaultConfig()
		ecfg.Cluster.MinGroupSize = 10
		ecfg.HMM.NStates = 3
		ecfg.HMM.MaxIters = 15
		eng, err := core.Train(train, ecfg)
		if err != nil {
			panic(err)
		}
		envSvc = NewService(eng, ecfg, video.Default())
		envTest = test
	})
	return envSvc, envTest
}

func TestStartSessionResponseComplete(t *testing.T) {
	svc, test := service(t)
	s := test.Sessions[0]
	resp := svc.StartSession("sess-a", s.Features, s.StartUnix)
	if math.IsNaN(resp.InitialPredictionMbps) || resp.InitialPredictionMbps <= 0 {
		t.Errorf("initial prediction = %v", resp.InitialPredictionMbps)
	}
	if resp.ClusterID == "" {
		t.Error("missing cluster ID")
	}
	if resp.RebufferEstimateSec < 0 || math.IsNaN(resp.RebufferEstimateSec) {
		t.Errorf("rebuffer estimate = %v", resp.RebufferEstimateSec)
	}
	if resp.SuggestedInitialLevel < 0 || resp.SuggestedInitialLevel > 4 {
		t.Errorf("suggested level = %d", resp.SuggestedInitialLevel)
	}
	if resp.SuggestedInitialKbps <= 0 {
		t.Errorf("suggested kbps = %v", resp.SuggestedInitialKbps)
	}
	if svc.ActiveSessions() == 0 {
		t.Error("session not registered")
	}
}

func TestObserveAndPredictFlow(t *testing.T) {
	svc, test := service(t)
	s := test.Sessions[1]
	svc.StartSession("sess-b", s.Features, s.StartUnix)
	var last float64
	for _, w := range s.Throughput[:5] {
		p, err := svc.ObserveAndPredict("sess-b", w, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(p) || p <= 0 {
			t.Fatalf("prediction = %v", p)
		}
		last = p
	}
	// Horizon queries do not mutate state.
	p3, err := svc.Predict("sess-b", 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(p3) {
		t.Error("horizon-3 prediction NaN")
	}
	p1, err := svc.Predict("sess-b", 1)
	if err != nil || p1 != last {
		t.Errorf("stateless predict = %v, want %v (err %v)", p1, last, err)
	}
}

// The pending 1-step prediction that session export and WantState replies
// carry must advance with every observation even when no metrics registry
// is attached — an importer scores its first APE against it.
func TestLastOneStepAdvancesWithoutMetrics(t *testing.T) {
	base, test := service(t)
	svc := NewService(base.Engine(), core.DefaultConfig(), video.Default())
	s := test.Sessions[1]
	svc.StartSession("no-metrics", s.Features, s.StartUnix)
	var last float64
	for _, w := range s.Throughput[:3] {
		p, err := svc.ObserveAndPredict("no-metrics", w, 1)
		if err != nil {
			t.Fatal(err)
		}
		last = p
	}
	st, err := svc.ExportSession("no-metrics")
	if err != nil {
		t.Fatal(err)
	}
	if st.LastOneStep == nil {
		t.Fatal("exported LastOneStep is missing")
	}
	if *st.LastOneStep != last {
		t.Fatalf("exported LastOneStep = %v, want the last prediction %v", *st.LastOneStep, last)
	}
}

// Every op adds one sample to cs2p_engine_session_lock_wait_seconds: an
// uncontended acquisition lands in the first (≤100µs) bucket as a zero
// wait, and an op held on the session lock for ~5ms lands above it.
func TestSessionLockWaitHistogram(t *testing.T) {
	base, test := service(t)
	svc := NewService(base.Engine(), core.DefaultConfig(), video.Default())
	reg := obs.NewRegistry()
	svc.SetMetrics(reg)
	lockWait := reg.Histogram("cs2p_engine_session_lock_wait_seconds", "", nil, nil)
	if b := lockWait.Bounds()[0]; b != 100e-6 {
		t.Fatalf("first lock-wait bucket is %v, want 100µs", b)
	}
	s := test.Sessions[2]
	svc.StartSession("lw", s.Features, s.StartUnix)

	const ops = 20
	for i := 0; i < ops; i++ {
		if _, err := svc.ObserveAndPredict("lw", s.Throughput[i%len(s.Throughput)], 1); err != nil {
			t.Fatal(err)
		}
	}
	if c := lockWait.Counts(); c[0] != ops || lockWait.Count() != ops {
		t.Fatalf("after %d uncontended ops: first bucket %d, total %d; want %d and %d", ops, c[0], lockWait.Count(), ops, ops)
	}

	st, ok := svc.store.Get("lw", time.Now())
	if !ok {
		t.Fatal("session vanished")
	}
	st.mu.Lock()
	started, done := make(chan struct{}), make(chan error)
	go func() {
		close(started)
		_, err := svc.ObserveAndPredict("lw", 2, 1)
		done <- err
	}()
	<-started
	time.Sleep(5 * time.Millisecond)
	st.mu.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if c := lockWait.Counts(); c[0] != ops || lockWait.Count() != ops+1 {
		t.Fatalf("after one blocked op: first bucket %d, total %d; want %d and %d", c[0], lockWait.Count(), ops, ops+1)
	}
}

func TestUnknownSession(t *testing.T) {
	svc, _ := service(t)
	if _, err := svc.ObserveAndPredict("nope", 1, 1); err == nil {
		t.Error("unknown session should error")
	}
	if _, err := svc.Predict("nope", 1); err == nil {
		t.Error("unknown session should error")
	}
}

func TestEndSessionAndLogs(t *testing.T) {
	svc, test := service(t)
	s := test.Sessions[2]
	svc.StartSession("sess-c", s.Features, s.StartUnix)
	before := svc.ActiveSessions()
	svc.EndSession(SessionLog{SessionID: "sess-c", QoE: 1234, AvgBitrateKbps: 2000, Strategy: "CS2P+MPC"})
	if svc.ActiveSessions() != before-1 {
		t.Error("EndSession should deregister")
	}
	logs := svc.Logs()
	found := false
	for _, lg := range logs {
		if lg.SessionID == "sess-c" && lg.QoE == 1234 {
			found = true
		}
	}
	if !found {
		t.Error("log not recorded")
	}
}

func TestGC(t *testing.T) {
	svc, test := service(t)
	s := test.Sessions[3]
	svc.StartSession("sess-gc", s.Features, s.StartUnix)
	if n := svc.GC(time.Hour); n != 0 {
		t.Errorf("GC removed %d fresh sessions", n)
	}
	if n := svc.GC(-time.Second); n == 0 {
		t.Error("GC with negative idle should remove everything")
	}
}

func TestRetrainSwapsEngine(t *testing.T) {
	svc, test := service(t)
	old := svc.Engine()
	if err := hotRetrain(svc, test); err != nil {
		t.Fatal(err)
	}
	if svc.Engine() == old {
		t.Error("a hot retrain should install a new engine")
	}
	// Restore (other tests share the service).
	_ = old
}

func TestConcurrentSessions(t *testing.T) {
	svc, test := service(t)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := test.Sessions[i%len(test.Sessions)]
			id := "conc-" + s.ID
			svc.StartSession(id, s.Features, s.StartUnix)
			for _, w := range s.Throughput[:min(8, len(s.Throughput))] {
				if _, err := svc.ObserveAndPredict(id, w, 1); err != nil {
					t.Error(err)
					return
				}
			}
			svc.EndSession(SessionLog{SessionID: id})
		}(i)
	}
	wg.Wait()
}

func TestEstimateRebufferSaneRange(t *testing.T) {
	svc, test := service(t)
	eng := svc.Engine()
	spec := video.Default()
	m, _ := eng.ModelFor(test.Sessions[0])
	est := EstimateRebuffer(spec, m, 2.0, 10, 1)
	if est < 0 || math.IsNaN(est) {
		t.Errorf("estimate = %v", est)
	}
	// With MPC and a sane model, stalls should be bounded by the video
	// length.
	if est > spec.LengthSeconds {
		t.Errorf("estimate %v exceeds the video length", est)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
