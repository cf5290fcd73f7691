package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cs2p/internal/core"
	"cs2p/internal/hmm"
	"cs2p/internal/mathx"
	"cs2p/internal/obs"
	"cs2p/internal/trace"
	"cs2p/internal/video"
)

// lifecycleStore builds a minimal one-state model store whose every
// prediction equals mean — versions become distinguishable by their output,
// which is what the coherence tests below assert on.
func lifecycleStore(mean float64) *core.ModelStore {
	m := &hmm.Model{
		Pi:    []float64{1},
		Trans: &mathx.Matrix{Rows: 1, Cols: 1, Data: []float64{1}},
		Emit:  []mathx.Gaussian{{Mu: mean, Sigma: 0.5}},
	}
	return &core.ModelStore{
		FullFeatures: []string{"isp"},
		Models:       map[string]core.StoredModel{},
		Global:       core.StoredModel{Model: m, InitialMedian: mean},
	}
}

// lifecycleArtifact wraps lifecycleStore in a verified artifact, exactly as a
// registry Get would produce it.
func lifecycleArtifact(t *testing.T, version uint64, mean float64, holdout core.HoldoutMetrics) *core.Artifact {
	t.Helper()
	ms := lifecycleStore(mean)
	modelJSON, err := json.Marshal(ms)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewManifest(version, modelJSON, core.TrainingMeta{
		TrainedAtUnix: int64(1000 * version),
		Holdout:       holdout,
	})
	manifestJSON, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.LoadArtifact(manifestJSON, modelJSON)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func lifecycleSession() *trace.Session {
	return &trace.Session{
		ID:        "lc",
		StartUnix: 1700000000,
		Features:  trace.Features{ISP: "isp-a"},
	}
}

func TestArtifactBootInstallAndRollback(t *testing.T) {
	okHoldout := core.HoldoutMetrics{Sessions: 5, Epochs: 50, MedianAPE: 0.2, P90APE: 0.4}
	reg := obs.NewRegistry()
	svc, err := NewServiceFromArtifact(lifecycleArtifact(t, 1, 1, okHoldout),
		core.DefaultConfig(), video.Default(), ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	svc.SetMetrics(reg)
	svc.SetPromotionPolicy(&PromotionPolicy{Tolerance: 0.1})
	s := lifecycleSession()

	snap := svc.Snapshot()
	if snap.Version() != 1 || snap.TrainedAtUnix() != 1000 {
		t.Fatalf("boot snapshot should carry the artifact identity, got v%d trained %d",
			snap.Version(), snap.TrainedAtUnix())
	}
	if h, ok := snap.Holdout(); !ok || h != okHoldout {
		t.Fatalf("boot snapshot should carry the manifest holdout, got %+v ok=%v", h, ok)
	}
	if got := snap.Engine().PredictInitial(s); got != 1 {
		t.Fatalf("v1 should predict 1, got %v", got)
	}

	// Rollback before any install: nothing to restore.
	if _, err := svc.Rollback(); !errors.Is(err, ErrNoPreviousModel) {
		t.Fatalf("want ErrNoPreviousModel, got %v", err)
	}

	gen1 := snap.Generation()
	gen2, err := svc.InstallArtifact(lifecycleArtifact(t, 2, 2, okHoldout))
	if err != nil {
		t.Fatal(err)
	}
	if gen2 <= gen1 {
		t.Fatalf("generation must advance on install: %d -> %d", gen1, gen2)
	}
	if v := svc.Snapshot().Version(); v != 2 {
		t.Fatalf("v2 should be serving, got v%d", v)
	}
	if got := svc.Engine().PredictInitial(s); got != 2 {
		t.Fatalf("v2 should predict 2, got %v", got)
	}

	// Rollback restores v1 as a NEW generation (caches must invalidate).
	gen3, err := svc.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if gen3 <= gen2 {
		t.Fatalf("rollback generation must advance: %d -> %d", gen2, gen3)
	}
	if v := svc.Snapshot().Version(); v != 1 {
		t.Fatalf("rollback should restore v1, got v%d", v)
	}
	if got := svc.Engine().PredictInitial(s); got != 1 {
		t.Fatalf("restored v1 should predict 1, got %v", got)
	}
	// The displaced v2 is the new rollback target: rollbacks alternate.
	if _, err := svc.Rollback(); err != nil {
		t.Fatal(err)
	}
	if v := svc.Snapshot().Version(); v != 2 {
		t.Fatalf("second rollback should alternate back to v2, got v%d", v)
	}

	if got := svc.m.rollbacks.Value(); got != 2 {
		t.Errorf("rollback counter = %d, want 2", got)
	}
	if got := svc.m.promotionsAccepted.Value(); got != 1 {
		t.Errorf("accepted-promotions counter = %d, want 1", got)
	}
	if got := svc.m.modelVersion.Value(); got != 2 {
		t.Errorf("cs2p_model_version gauge = %v, want 2", got)
	}
}

// TestPromotionGateManifestMode compares the recorded manifest metrics: a
// candidate whose holdout median APE regresses past the tolerance is refused,
// stays on disk (nothing here deletes it), and the incumbent keeps serving.
func TestPromotionGateManifestMode(t *testing.T) {
	good := core.HoldoutMetrics{Sessions: 5, Epochs: 50, MedianAPE: 0.20, P90APE: 0.40}
	bad := core.HoldoutMetrics{Sessions: 5, Epochs: 50, MedianAPE: 0.50, P90APE: 0.90}
	svc, err := NewServiceFromArtifact(lifecycleArtifact(t, 1, 1, good),
		core.DefaultConfig(), video.Default(), ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	svc.SetMetrics(obs.NewRegistry())
	svc.SetPromotionPolicy(&PromotionPolicy{Tolerance: 0.1})

	if _, err := svc.InstallArtifact(lifecycleArtifact(t, 2, 2, bad)); !errors.Is(err, ErrPromotionRejected) {
		t.Fatalf("regressed candidate: want ErrPromotionRejected, got %v", err)
	}
	if v := svc.Snapshot().Version(); v != 1 {
		t.Fatalf("incumbent v1 must keep serving after a rejection, got v%d", v)
	}
	if got := svc.m.promotionsRejected.Value(); got != 1 {
		t.Errorf("rejected-promotions counter = %d, want 1", got)
	}

	// Within tolerance (0.20 -> 0.21 at 10%): promoted.
	slightlyWorse := core.HoldoutMetrics{Sessions: 5, Epochs: 50, MedianAPE: 0.21, P90APE: 0.45}
	if _, err := svc.InstallArtifact(lifecycleArtifact(t, 3, 3, slightlyWorse)); err != nil {
		t.Fatalf("within-tolerance candidate should promote: %v", err)
	}
	if v := svc.Snapshot().Version(); v != 3 {
		t.Fatalf("v3 should be serving, got v%d", v)
	}

	// A candidate with no recorded metrics is not rejected for lack of
	// evidence.
	if _, err := svc.InstallArtifact(lifecycleArtifact(t, 4, 4, core.HoldoutMetrics{})); err != nil {
		t.Fatalf("candidate without metrics should promote: %v", err)
	}
}

// TestPromotionGateLiveMode replays both candidate and incumbent on the same
// holdout slice at promotion time — the apples-to-apples comparison a server
// with access to validation traffic uses.
func TestPromotionGateLiveMode(t *testing.T) {
	svc, err := NewServiceFromArtifact(lifecycleArtifact(t, 1, 5, core.HoldoutMetrics{}),
		core.DefaultConfig(), video.Default(), ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	svc.SetMetrics(obs.NewRegistry())
	// Holdout throughput is constant 5: the incumbent (mean 5) is near
	// perfect on it, a mean-50 candidate is 9x off.
	holdout := trace.NewDataset()
	holdout.EpochSeconds = 6
	for i := 0; i < 4; i++ {
		holdout.Sessions = append(holdout.Sessions, &trace.Session{
			ID:         fmt.Sprintf("h%d", i),
			StartUnix:  1700000000 + int64(i)*60,
			Features:   trace.Features{ISP: "isp-a"},
			Throughput: []float64{5, 5, 5, 5, 5},
		})
	}
	svc.SetPromotionPolicy(&PromotionPolicy{Tolerance: 0.1, Holdout: holdout})

	if _, err := svc.InstallArtifact(lifecycleArtifact(t, 2, 50, core.HoldoutMetrics{})); !errors.Is(err, ErrPromotionRejected) {
		t.Fatalf("live gate should reject the mean-50 candidate, got %v", err)
	}
	if v := svc.Snapshot().Version(); v != 1 {
		t.Fatalf("incumbent must keep serving, got v%d", v)
	}
	// A same-quality candidate passes, and the live evaluation is recorded
	// on its snapshot for future manifest-mode comparisons.
	if _, err := svc.InstallArtifact(lifecycleArtifact(t, 3, 5, core.HoldoutMetrics{})); err != nil {
		t.Fatalf("equal-quality candidate should promote: %v", err)
	}
	if h, ok := svc.Snapshot().Holdout(); !ok || !h.Valid() {
		t.Errorf("live gate should record evaluated metrics on the snapshot, got %+v ok=%v", h, ok)
	}
}

// TestArtifactReloadUnderLoad is the PR's concurrency contract: while
// installs and rollbacks fire, every concurrent request that pins a snapshot
// observes a coherent (version, model) pair — the one-state models here
// predict exactly their version number, so any torn read is detectable.
func TestArtifactReloadUnderLoad(t *testing.T) {
	svc, err := NewServiceFromArtifact(lifecycleArtifact(t, 1, 1, core.HoldoutMetrics{}),
		core.DefaultConfig(), video.Default(), ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	svc.SetMetrics(obs.NewRegistry())
	s := lifecycleSession()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				snap := svc.Snapshot()
				want := float64(snap.Version())
				if got := snap.Engine().PredictInitial(s); got != want {
					t.Errorf("goroutine %d iter %d: snapshot v%d predicts %v — torn (version, model) pair",
						g, i, snap.Version(), got)
					return
				}
				p := snap.Engine().NewSessionPredictor(s)
				if got := p.Predict(); got != want {
					t.Errorf("goroutine %d iter %d: session predictor on v%d predicts %v",
						g, i, snap.Version(), got)
					return
				}
			}
		}(g)
	}
	// Writer: a stream of installs with a rollback mixed in, racing the
	// predicting goroutines.
	for v := uint64(2); v <= 6; v++ {
		if _, err := svc.InstallArtifact(lifecycleArtifact(t, v, float64(v), core.HoldoutMetrics{})); err != nil {
			t.Error(err)
		}
		time.Sleep(time.Millisecond)
		if v == 4 {
			if _, err := svc.Rollback(); err != nil {
				t.Error(err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()
}
