package registry

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cs2p/internal/core"
	"cs2p/internal/hmm"
	"cs2p/internal/mathx"
)

// testStore builds a minimal valid model store with a distinguishable global
// mean, so tests can tell versions apart without training anything.
func testStore(mean float64) *core.ModelStore {
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

func testMeta(at int64) core.TrainingMeta {
	return core.TrainingMeta{
		TrainedAtUnix: at,
		TraceSessions: 10,
		TraceEpochs:   100,
		Holdout:       core.HoldoutMetrics{Sessions: 5, Epochs: 50, MedianAPE: 0.2, P90APE: 0.5},
	}
}

func TestPublishGetLatest(t *testing.T) {
	r, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Latest(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty registry: want ErrEmpty, got %v", err)
	}
	m1, err := r.Publish(testStore(1), testMeta(100))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := r.Publish(testStore(2), testMeta(200))
	if err != nil {
		t.Fatal(err)
	}
	if m1.Version != 1 || m2.Version != 2 {
		t.Fatalf("versions should be 1, 2; got %d, %d", m1.Version, m2.Version)
	}
	latest, err := r.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if latest.Manifest.Version != 2 || latest.Store.Global.InitialMedian != 2 {
		t.Errorf("latest should be v2 with mean 2, got v%d mean %v",
			latest.Manifest.Version, latest.Store.Global.InitialMedian)
	}
	old, err := r.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if old.Store.Global.InitialMedian != 1 {
		t.Errorf("v1 should carry mean 1, got %v", old.Store.Global.InitialMedian)
	}
	if _, err := r.Get(99); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing version: want ErrNotFound, got %v", err)
	}
	entries, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Version != 1 || entries[1].Version != 2 {
		t.Errorf("List should return v1, v2 ascending; got %+v", entries)
	}
	if entries[1].Manifest.TrainedAtUnix != 200 {
		t.Errorf("manifest metadata should round-trip through disk")
	}
}

func TestVersionsSkipStrayEntries(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish(testStore(1), testMeta(1)); err != nil {
		t.Fatal(err)
	}
	// Strays the scanner must ignore: non-version dirs, a v0, a plain file.
	for _, d := range []string{"vnext", "v0", ".tmp-stale", "notes"} {
		if err := os.MkdirAll(filepath.Join(dir, d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "v7"), []byte("a file, not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	vs, err := r.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0] != 1 {
		t.Errorf("Versions should see only v1, got %v", vs)
	}
}

func TestPruneKeepsNewestAndVersionsStayMonotonic(t *testing.T) {
	r, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if _, err := r.Publish(testStore(float64(i)), testMeta(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	pruned, err := r.Prune(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned) != 2 || pruned[0] != 1 || pruned[1] != 2 {
		t.Fatalf("should prune v1, v2; got %v", pruned)
	}
	vs, err := r.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 || vs[0] != 3 || vs[1] != 4 {
		t.Fatalf("should keep v3, v4; got %v", vs)
	}
	// Version numbers never regress after pruning.
	m, err := r.Publish(testStore(5), testMeta(5))
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != 5 {
		t.Errorf("post-prune publish should be v5, got v%d", m.Version)
	}
	// keep <= 0 never deletes anything.
	if pruned, err := r.Prune(0); err != nil || pruned != nil {
		t.Errorf("Prune(0) should be a no-op, got %v, %v", pruned, err)
	}
}

func TestGetDetectsTampering(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish(testStore(1), testMeta(1)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "v1", "model.json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(1); !errors.Is(err, core.ErrChecksumMismatch) {
		t.Errorf("tampered payload: want ErrChecksumMismatch, got %v", err)
	}
	// A corrupt version must not break the listing for good ones.
	if _, err := r.Publish(testStore(2), testMeta(2)); err != nil {
		t.Fatal(err)
	}
	entries, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Version != 2 {
		t.Errorf("List should skip the corrupt v1 and return v2; got %+v", entries)
	}
}

func TestWatchDeliversNewVersionsInOrder(t *testing.T) {
	r, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish(testStore(1), testMeta(1)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// after=1: the already-installed version must not be redelivered.
	ch := r.Watch(ctx, 5*time.Millisecond, 1)
	if _, err := r.Publish(testStore(2), testMeta(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish(testStore(3), testMeta(3)); err != nil {
		t.Fatal(err)
	}
	for want := uint64(2); want <= 3; want++ {
		select {
		case ev := <-ch:
			if ev.Err != nil {
				t.Fatalf("watch event error: %v", ev.Err)
			}
			if ev.Artifact.Manifest.Version != want {
				t.Fatalf("watch delivered v%d, want v%d", ev.Artifact.Manifest.Version, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for v%d", want)
		}
	}
	cancel()
	select {
	case _, ok := <-ch:
		if ok {
			t.Error("channel should close after cancel, got an event")
		}
	case <-time.After(5 * time.Second):
		t.Error("channel did not close after cancel")
	}
}
