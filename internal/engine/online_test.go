package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"cs2p/internal/core"
	"cs2p/internal/hmm"
	"cs2p/internal/obs"
	"cs2p/internal/registry"
	"cs2p/internal/trace"
	"cs2p/internal/tracegen"
	"cs2p/internal/video"
)

func TestTraceSinkEvictionAndBackpressure(t *testing.T) {
	ts, err := NewTraceSink(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTraceSink(0); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := ts.Push(&trace.Session{ID: "empty"}); err == nil {
		t.Fatal("observation-less session accepted")
	}
	mk := func(id int) *trace.Session {
		return &trace.Session{ID: fmt.Sprintf("s%d", id), Throughput: []float64{float64(id), 2}}
	}
	for i := 0; i < 3; i++ {
		evicted, err := ts.Push(mk(i))
		if err != nil || evicted {
			t.Fatalf("push %d: evicted=%v err=%v", i, evicted, err)
		}
	}
	if ts.Len() != 3 || ts.Epochs() != 6 {
		t.Fatalf("len=%d epochs=%d, want 3/6", ts.Len(), ts.Epochs())
	}
	// Next three pushes evict the three oldest; the fourth hits backpressure
	// (a full capacity churned with no consumer).
	for i := 3; i < 6; i++ {
		evicted, err := ts.Push(mk(i))
		if err != nil || !evicted {
			t.Fatalf("push %d: evicted=%v err=%v", i, evicted, err)
		}
	}
	if _, err := ts.Push(mk(6)); !errors.Is(err, ErrIngestBackpressure) {
		t.Fatalf("expected backpressure, got %v", err)
	}
	if ts.Evictions() != 3 {
		t.Fatalf("evictions = %d, want 3", ts.Evictions())
	}
	d := ts.Snapshot()
	if d == nil || d.Len() != 3 {
		t.Fatalf("snapshot = %v", d)
	}
	// FIFO order: oldest surviving first.
	if d.Sessions[0].ID != "s3" || d.Sessions[2].ID != "s5" {
		t.Fatalf("snapshot order: %s..%s", d.Sessions[0].ID, d.Sessions[2].ID)
	}
	if ts.Len() != 0 {
		t.Fatal("snapshot did not drain the ring")
	}
	// Snapshot reset the backpressure window: pushes work again.
	if _, err := ts.Push(mk(7)); err != nil {
		t.Fatal(err)
	}
	if ts.Snapshot() == nil {
		t.Fatal("expected non-nil snapshot")
	}
	if ts.Snapshot() != nil {
		t.Fatal("empty ring should snapshot nil")
	}
}

func TestDriftDetectorProtocol(t *testing.T) {
	reg := obs.NewRegistry()
	hist := reg.Histogram("test_ape", "", obs.ErrorBuckets, nil)
	d := newDriftDetector(hist, 0.5, 10)

	// Too few samples: report-only, nothing arms.
	for i := 0; i < 5; i++ {
		hist.Observe(0.1)
	}
	st := d.check()
	if st.Armed || st.Fired || st.WindowEpochs != 0 {
		t.Fatalf("small window classified: %+v", st)
	}
	// The pending samples keep accumulating; the first qualifying window
	// arms the reference.
	for i := 0; i < 10; i++ {
		hist.Observe(0.1)
	}
	st = d.check()
	if !st.Armed || st.Fired || st.WindowEpochs != 15 {
		t.Fatalf("arming window: %+v", st)
	}
	ref := st.ReferenceAPE

	// A similar window does not fire.
	for i := 0; i < 20; i++ {
		hist.Observe(0.1)
	}
	if st = d.check(); st.Fired {
		t.Fatalf("stable window fired: %+v", st)
	}
	// A window with ~8x the APE fires.
	for i := 0; i < 20; i++ {
		hist.Observe(0.8)
	}
	st = d.check()
	if !st.Fired {
		t.Fatalf("drifted window did not fire: %+v (reference %v)", st, ref)
	}
	// rearm clears the baseline; the next window re-baselines at the new
	// level without firing.
	d.rearm()
	for i := 0; i < 20; i++ {
		hist.Observe(0.8)
	}
	st = d.check()
	if !st.Armed || st.Fired {
		t.Fatalf("post-rearm window: %+v", st)
	}
	if st.ReferenceAPE <= ref {
		t.Fatalf("re-armed reference %v not above original %v", st.ReferenceAPE, ref)
	}
}

// onlineEnv trains a small incumbent and wires a fully online service:
// metrics, promotion policy via intake holdouts, registry-backed promotion.
func onlineEnv(t *testing.T, reg *registry.Registry) (*Service, *trace.Dataset, *trace.Dataset) {
	t.Helper()
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
		t.Fatal(err)
	}
	svc := NewServiceWithOptions(eng, ecfg, video.Default(), ServiceOptions{Shards: 1})
	svc.SetMetrics(obs.NewRegistry())
	if err := svc.EnableOnline(OnlineOptions{
		IntakeCapacity:     2000,
		DriftBand:          0.5,
		MinRetrainSessions: 30,
		Registry:           reg,
		// Update even sparsely hit clusters — the synthetic population
		// spreads sessions thin, and a cluster left stale would drag the
		// post-promotion APE with 4x-low predictions.
		Online: core.OnlineConfig{
			HMM:                hmm.OnlineConfig{Decay: 0.3, Passes: 4, VarFloor: 1e-4},
			MinClusterSessions: 1,
			MinMedianSamples:   3,
		},
	}); err != nil {
		t.Fatal(err)
	}
	return svc, train, test
}

// drive replays sessions through the full serving surface (start, observe
// every epoch, end), which both feeds the live APE histograms and captures
// the sessions into the trace intake.
func drive(t *testing.T, svc *Service, sessions []*trace.Session, tag string) {
	t.Helper()
	for i, s := range sessions {
		id := fmt.Sprintf("%s-%d", tag, i)
		svc.StartSession(id, s.Features, s.StartUnix)
		for _, w := range s.Throughput {
			if _, err := svc.ObserveAndPredict(id, w, 1); err != nil {
				t.Fatal(err)
			}
		}
		svc.EndSession(SessionLog{SessionID: id})
	}
}

// scaleSessions shifts a population's throughput by a constant factor — the
// injected distribution drift.
func scaleSessions(sessions []*trace.Session, f float64, tag string) []*trace.Session {
	out := make([]*trace.Session, 0, len(sessions))
	for i, s := range sessions {
		tp := make([]float64, len(s.Throughput))
		for k, w := range s.Throughput {
			tp[k] = w * f
		}
		out = append(out, &trace.Session{
			ID:         fmt.Sprintf("%s-%d", tag, i),
			StartUnix:  s.StartUnix,
			Features:   s.Features,
			Throughput: tp,
		})
	}
	return out
}

// TestOnlineDriftRetrainPromoteRecover is the end-to-end loop of the issue:
// stable traffic arms the detector, a 4x throughput shift fires it, the
// drift-triggered incremental retrain publishes a candidate to the registry,
// the promotion gate accepts it (it beats the incumbent on the fresh
// holdout), and the live midstream APE recovers under the promoted model.
// A sabotaged candidate is then auto-rejected by the same gate.
func TestOnlineDriftRetrainPromoteRecover(t *testing.T) {
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc, _, test := onlineEnv(t, reg)

	// Phase A: stable traffic — the first qualifying window arms.
	drive(t, svc, test.Sessions[:40], "base")
	st := svc.DriftCheck()
	if !st.Armed || st.Fired {
		t.Fatalf("phase A: want armed+quiet, got %+v", st)
	}
	baselineAPE := st.ReferenceAPE

	// Phase B: inject a 4x throughput shift. The incumbent's HMM states
	// sit 4x too low, so midstream APE explodes and the detector fires.
	shifted := scaleSessions(test.Sessions, 4, "shift")
	drive(t, svc, shifted[40:120], "drift")
	st = svc.DriftCheck()
	if !st.Fired {
		t.Fatalf("phase B: drift did not fire: %+v", st)
	}
	firedAPE := st.WindowMedianAPE

	// Drift-triggered retrain: drain the intake (base + shifted, shifted
	// newest), absorb incrementally, publish, pass the gate.
	genBefore := svc.ModelGeneration()
	if err := svc.OnlineRetrain(); err != nil {
		t.Fatalf("online retrain: %v", err)
	}
	if svc.ModelGeneration() != genBefore+1 {
		t.Fatalf("generation %d, want %d", svc.ModelGeneration(), genBefore+1)
	}
	if v, err := reg.LatestVersion(); err != nil || v != 1 {
		t.Fatalf("registry latest = %d, %v; want v1", v, err)
	}
	if svc.Snapshot().Version() != 1 {
		t.Fatalf("serving version %d, want 1 (registry-published candidate)", svc.Snapshot().Version())
	}
	if svc.m.onlineRetrainAccepted.Value() != 1 {
		t.Fatal("accepted online retrain not counted")
	}
	if svc.Health().TrainedAtUnix == 0 {
		t.Fatal("promoted snapshot has no training timestamp")
	}

	// Phase C: more shifted traffic under the promoted model. The first
	// candidate trained on a mixed base+shifted batch, so it improves but
	// may not fully converge; the loop's second iteration absorbs a purely
	// shifted batch with the mixed history decayed away.
	drive(t, svc, shifted[120:150], "recover")
	st = svc.DriftCheck()
	if !st.Armed {
		t.Fatalf("phase C: detector did not re-arm: %+v", st)
	}
	if !(st.ReferenceAPE < firedAPE) {
		t.Fatalf("phase C: APE did not improve after first promotion: now %v, fired at %v", st.ReferenceAPE, firedAPE)
	}
	if err := svc.OnlineRetrain(); err != nil {
		t.Fatalf("second online retrain: %v", err)
	}
	if svc.Snapshot().Version() != 2 {
		t.Fatalf("serving version %d, want 2 after second promotion", svc.Snapshot().Version())
	}

	// Recovered: with the second-generation model the window median is well
	// below the firing level and within 2x of the stable pre-drift baseline,
	// and the detector stays quiet. Warm-started incremental EM cannot fully
	// re-spread states that starved during the shift, so exact parity with a
	// fresh offline fit is not the bar — sustained directional recovery is.
	drive(t, svc, shifted[150:], "recovered")
	st = svc.DriftCheck()
	if !st.Armed || st.Fired {
		t.Fatalf("recovered phase: %+v", st)
	}
	if !(st.ReferenceAPE < baselineAPE*2) {
		t.Fatalf("recovered APE %v not near pre-drift baseline %v (fired at %v)", st.ReferenceAPE, baselineAPE, firedAPE)
	}

	// Sabotage: a candidate trained on garbage (constant near-zero
	// throughput) must be auto-rejected by the holdout gate, leaving the
	// promoted model serving.
	garbage := make([]*trace.Session, 40)
	for i := range garbage {
		tp := make([]float64, 20)
		for k := range tp {
			tp[k] = 0.01
		}
		garbage[i] = &trace.Session{
			ID:         fmt.Sprintf("garbage-%d", i),
			StartUnix:  test.Sessions[i].StartUnix,
			Features:   test.Sessions[i].Features,
			Throughput: tp,
		}
	}
	bad, err := core.Train(&trace.Dataset{EpochSeconds: test.EpochSeconds, Sessions: garbage}, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rejBefore := svc.m.promotionsRejected.Value()
	genBefore = svc.ModelGeneration()
	if _, err := svc.promote(&ModelSnapshot{engine: bad}, true); !errors.Is(err, ErrPromotionRejected) {
		t.Fatalf("sabotaged candidate not rejected: %v", err)
	}
	if svc.m.promotionsRejected.Value() != rejBefore+1 {
		t.Fatal("rejection not counted")
	}
	if svc.ModelGeneration() != genBefore {
		t.Fatal("rejected candidate changed the serving generation")
	}
}

func TestIngestDisabledAndValidation(t *testing.T) {
	svc, _ := service(t)
	if _, err := svc.Ingest(nil); !errors.Is(err, ErrOnlineDisabled) {
		t.Fatalf("ingest on offline service: %v", err)
	}
	if err := svc.OnlineRetrain(); !errors.Is(err, ErrOnlineDisabled) {
		t.Fatalf("retrain on offline service: %v", err)
	}
	if st := svc.DriftCheck(); st.Armed || st.Fired {
		t.Fatalf("drift check on offline service: %+v", st)
	}
	if svc.OnlineEnabled() {
		t.Fatal("OnlineEnabled on offline service")
	}
}

func TestIngestAccountingAndRetrainThreshold(t *testing.T) {
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc, train, _ := onlineEnv(t, reg)
	// A ring smaller than the threshold could never retrain: refused up front.
	if err := svc.EnableOnline(OnlineOptions{IntakeCapacity: 20, MinRetrainSessions: 30}); err == nil {
		t.Fatal("intake capacity below the retrain threshold accepted")
	}

	res, err := svc.Ingest(train.Sessions[:25])
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 25 || res.Buffered != 25 || res.Evicted != 0 {
		t.Fatalf("ingest result: %+v", res)
	}
	if svc.IntakeBuffered() != 25 {
		t.Fatalf("IntakeBuffered = %d", svc.IntakeBuffered())
	}
	// Below MinRetrainSessions (30): no candidate trains and the buffer
	// keeps accumulating.
	if err := svc.OnlineRetrain(); !errors.Is(err, ErrNotEnoughTraces) {
		t.Fatalf("want ErrNotEnoughTraces, got %v", err)
	}
	if svc.IntakeBuffered() != 25 {
		t.Fatalf("short retrain attempt left %d of 25 sessions buffered", svc.IntakeBuffered())
	}
	// 25 more reach the threshold: a candidate trains on all 50 and is
	// published for the gate (which may accept or reject it).
	if _, err := svc.Ingest(train.Sessions[25:50]); err != nil {
		t.Fatal(err)
	}
	if err := svc.OnlineRetrain(); err != nil && !errors.Is(err, ErrPromotionRejected) {
		t.Fatalf("retrain over 25+25 sessions: %v", err)
	}
	art, err := reg.Latest()
	if err != nil {
		t.Fatalf("no candidate was published: %v", err)
	}
	if art.Manifest.TraceSessions+art.Manifest.Holdout.Sessions != 50 {
		t.Fatalf("candidate trained on %d + held out %d sessions, want 50 in all",
			art.Manifest.TraceSessions, art.Manifest.Holdout.Sessions)
	}
	if svc.IntakeBuffered() != 0 {
		t.Fatalf("retrain left %d sessions buffered", svc.IntakeBuffered())
	}
}

// TestServedSessionRefusedByBackpressureIsCounted: a served session whose
// capture the intake ring refuses at EndSession is counted as rejected, like
// a refused ingest — not dropped silently.
func TestServedSessionRefusedByBackpressureIsCounted(t *testing.T) {
	svc, data := freshService(t, 1)
	if err := svc.EnableOnline(OnlineOptions{IntakeCapacity: 2, MinRetrainSessions: 2}); err != nil {
		t.Fatal(err)
	}
	// Four pushes into a ring of two evict a whole capacity: the next push
	// is refused until a retrain drains the ring.
	res, err := svc.Ingest(data.Sessions[:4])
	if err != nil || res.Accepted != 4 || res.Evicted != 2 {
		t.Fatalf("ingest: %+v, %v", res, err)
	}
	rejected := svc.m.ingestRejected.Value()

	s := data.Sessions[4]
	svc.StartSession("served", s.Features, s.StartUnix)
	for _, w := range s.Throughput[:3] {
		if _, err := svc.ObserveAndPredict("served", w, 1); err != nil {
			t.Fatal(err)
		}
	}
	svc.EndSession(SessionLog{SessionID: "served"})
	if got := svc.m.ingestRejected.Value(); got != rejected+1 {
		t.Errorf("rejected count = %d after a refused served session, want %d", got, rejected+1)
	}
	if got := svc.m.ingestAccepted.Value(); got != 4 {
		t.Errorf("accepted count = %d, want 4", got)
	}
	if got := svc.m.intakeBuffered.Value(); got != 2 {
		t.Errorf("buffered gauge = %v, want 2", got)
	}
}

// runLoop runs RunOnlineLoop in the background and returns a channel closed
// when it returns.
func runLoop(ctx context.Context, svc *Service) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		svc.RunOnlineLoop(ctx)
	}()
	return done
}

// waitDone fails the test unless done closes within d.
func waitDone(t *testing.T, done <-chan struct{}, d time.Duration, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("RunOnlineLoop did not return %s", what)
	}
}

func TestRunOnlineLoopReturnsWhenOffline(t *testing.T) {
	svc, _ := freshService(t, 1)
	waitDone(t, runLoop(context.Background(), svc), 5*time.Second, "with online learning off")
}

func TestRunOnlineLoopReturnsWhenCtxEnds(t *testing.T) {
	svc, _ := freshService(t, 1)
	if err := svc.EnableOnline(OnlineOptions{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := runLoop(ctx, svc)
	cancel()
	waitDone(t, done, 5*time.Second, "after its ctx ended")
}

// TestRunOnlineLoopPromotesOnDrift: the controller alone turns a fired drift
// check into a promoted candidate. Stable traffic arms the detector (as in
// TestOnlineDriftRetrainPromoteRecover), a 4x shift follows, and the loop's
// own check fires and retrains: the generation advances with no direct
// OnlineRetrain call.
func TestRunOnlineLoopPromotesOnDrift(t *testing.T) {
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc, _, test := onlineEnv(t, reg)
	drive(t, svc, test.Sessions[:40], "base")
	if st := svc.DriftCheck(); !st.Armed || st.Fired {
		t.Fatalf("base traffic: want armed+quiet, got %+v", st)
	}
	drive(t, svc, scaleSessions(test.Sessions, 4, "shift")[40:120], "drift")

	genBefore := svc.ModelGeneration()
	svc.online.Load().opts.Interval = 10 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	done := runLoop(ctx, svc)
	deadline := time.Now().Add(time.Minute)
	for svc.ModelGeneration() == genBefore && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	waitDone(t, done, 10*time.Second, "after its ctx ended")
	if got := svc.ModelGeneration(); got != genBefore+1 {
		t.Fatalf("generation %d, want %d: the loop did not promote", got, genBefore+1)
	}
	if svc.m.driftFired.Value() != 1 || svc.m.onlineRetrainAccepted.Value() != 1 {
		t.Fatalf("drift fired %d times, %d retrains accepted; want 1 and 1",
			svc.m.driftFired.Value(), svc.m.onlineRetrainAccepted.Value())
	}
}
