package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"

	"cs2p/internal/trace"
)

// exportedModelJSON serializes the shared test engine's store once.
func exportedModelJSON(t *testing.T) []byte {
	t.Helper()
	_, _, eng := env(t)
	var buf bytes.Buffer
	if err := eng.Store().Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestManifestRoundTrip(t *testing.T) {
	modelJSON := exportedModelJSON(t)
	meta := TrainingMeta{
		TrainedAtUnix: 1700000000,
		TraceSessions: 600,
		TraceEpochs:   12000,
		Clusters:      7,
		Holdout:       HoldoutMetrics{Sessions: 100, Epochs: 2000, MedianAPE: 0.11, P90APE: 0.42},
	}
	m := NewManifest(3, modelJSON, meta)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	mb, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	art, err := LoadArtifact(mb, modelJSON)
	if err != nil {
		t.Fatal(err)
	}
	if art.Manifest != m {
		t.Errorf("manifest did not round-trip: got %+v want %+v", art.Manifest, m)
	}
	if art.Store == nil || art.Store.Global.Model == nil {
		t.Fatal("artifact store missing models")
	}
	if !art.Manifest.Holdout.Valid() {
		t.Error("round-tripped holdout metrics should be valid")
	}
}

func TestLoadArtifactTypedErrors(t *testing.T) {
	modelJSON := exportedModelJSON(t)
	good := NewManifest(1, modelJSON, TrainingMeta{TrainedAtUnix: 1})
	marshal := func(m Manifest) []byte {
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	t.Run("checksum mismatch", func(t *testing.T) {
		tampered := append([]byte(nil), modelJSON...)
		// Flip a byte inside the payload; the manifest checksum no longer binds.
		tampered[len(tampered)/2] ^= 0x20
		_, err := LoadArtifact(marshal(good), tampered)
		if !errors.Is(err, ErrChecksumMismatch) {
			t.Errorf("want ErrChecksumMismatch, got %v", err)
		}
	})
	t.Run("unknown schema", func(t *testing.T) {
		m := good
		m.SchemaVersion = ArtifactSchemaVersion + 1
		_, err := LoadArtifact(marshal(m), modelJSON)
		if !errors.Is(err, ErrUnknownSchema) {
			t.Errorf("want ErrUnknownSchema, got %v", err)
		}
	})
	t.Run("zero version", func(t *testing.T) {
		m := good
		m.Version = 0
		_, err := LoadArtifact(marshal(m), modelJSON)
		if !errors.Is(err, ErrInvalidManifest) {
			t.Errorf("want ErrInvalidManifest, got %v", err)
		}
	})
	t.Run("malformed checksum", func(t *testing.T) {
		m := good
		m.SHA256 = "zz"
		_, err := LoadArtifact(marshal(m), modelJSON)
		if !errors.Is(err, ErrInvalidManifest) {
			t.Errorf("want ErrInvalidManifest, got %v", err)
		}
	})
	t.Run("manifest trailing data", func(t *testing.T) {
		// "}" and "]" are what json.Decoder.More() took for the end of input.
		for _, tail := range []string{"{}", "}", "]", " ]]]garbage"} {
			_, err := LoadArtifact(append(marshal(good), tail...), modelJSON)
			if !errors.Is(err, ErrInvalidManifest) {
				t.Errorf("tail %q: want ErrInvalidManifest, got %v", tail, err)
			}
		}
	})
	t.Run("manifest not json", func(t *testing.T) {
		_, err := LoadArtifact([]byte("not json"), modelJSON)
		if !errors.Is(err, ErrInvalidManifest) {
			t.Errorf("want ErrInvalidManifest, got %v", err)
		}
	})
	t.Run("negative holdout metric", func(t *testing.T) {
		m := good
		m.Holdout.MedianAPE = -1
		_, err := LoadArtifact(marshal(m), modelJSON)
		if !errors.Is(err, ErrInvalidManifest) {
			t.Errorf("want ErrInvalidManifest, got %v", err)
		}
	})
}

// TestArtifactBootParity is the save → LoadModelStore → boot round trip: an
// engine booted from the file predicts bit-identically to the in-memory
// engine that wrote it — routing, initial prediction (the windowed Eq. 6
// aggregation), and the full midstream replay.
func TestArtifactBootParity(t *testing.T) {
	_, test, live := env(t)
	ms, err := LoadModelStore(bytes.NewReader(exportedModelJSON(t)))
	if err != nil {
		t.Fatal(err)
	}
	booted, err := NewEngineFromStore(ms)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range test.Sessions {
		_, liveID := live.ModelFor(s)
		_, bootID := booted.ModelFor(s)
		if liveID != bootID {
			t.Fatalf("session %s: routed to %q live vs %q booted", s.ID, liveID, bootID)
		}
		li, bi := live.PredictInitial(s), booted.PredictInitial(s)
		if li != bi && !(math.IsNaN(li) && math.IsNaN(bi)) {
			t.Fatalf("session %s: initial prediction %v live vs %v booted", s.ID, li, bi)
		}
		lp, bp := live.NewSessionPredictor(s), booted.NewSessionPredictor(s)
		for i, w := range s.Throughput {
			l, b := lp.Predict(), bp.Predict()
			if l != b && !(math.IsNaN(l) && math.IsNaN(b)) {
				t.Fatalf("session %s epoch %d: prediction %v live vs %v booted", s.ID, i, l, b)
			}
			lp.Observe(w)
			bp.Observe(w)
		}
	}
}

// TestStoreOfBootedEngine: Store() of a booted engine is the store it booted
// from, so a chain of save/boot cycles is a fixed point.
func TestStoreOfBootedEngine(t *testing.T) {
	ms, err := LoadModelStore(bytes.NewReader(exportedModelJSON(t)))
	if err != nil {
		t.Fatal(err)
	}
	booted, err := NewEngineFromStore(ms)
	if err != nil {
		t.Fatal(err)
	}
	if got := booted.Store(); got != ms {
		t.Error("booted engine should hand back the store it booted from")
	}
}

// TestStoreWithoutIndex: a store without an initial index cannot route to
// cluster models, so one that has any is refused with ErrNoIndex (the loader's
// refusal is in TestLoadsParentWrittenStore); a global-only store is complete
// without one and serves every session from the global artifact through the
// ordinary routing path.
func TestStoreWithoutIndex(t *testing.T) {
	_, test, eng := env(t)
	t.Run("cluster models", func(t *testing.T) {
		stripped := *eng.Store()
		stripped.Initial = nil
		if err := stripped.Validate(); !errors.Is(err, ErrNoIndex) {
			t.Fatalf("Validate = %v, want ErrNoIndex", err)
		}
		if _, err := NewEngineFromStore(&stripped); !errors.Is(err, ErrNoIndex) {
			t.Fatalf("NewEngineFromStore = %v, want ErrNoIndex", err)
		}
	})
	t.Run("global only", func(t *testing.T) {
		global := &ModelStore{FullFeatures: eng.Store().FullFeatures, Global: eng.Store().Global}
		booted, err := NewEngineFromStore(global)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range test.Sessions[:10] {
			p := booted.NewSessionPredictor(s)
			if p.ClusterID() != GlobalClusterID || p.Filter().Model() != global.Global.Model {
				t.Fatalf("session %s: served by %q, want the global artifact", s.ID, p.ClusterID())
			}
			if p.InitialPrediction() != global.Global.InitialMedian {
				t.Fatalf("session %s: initial %v, want the global median %v", s.ID, p.InitialPrediction(), global.Global.InitialMedian)
			}
			if sm, id := global.Lookup(s.Features); id != GlobalClusterID || sm.Model != global.Global.Model {
				t.Fatalf("session %s: Lookup gave %q", s.ID, id)
			}
		}
	})
}

// TestLoadsParentWrittenStore: files written before the routes table was
// dropped still carry a "routes" member. They must keep loading, and serve
// exactly what the build that wrote them served (expectations computed by
// that build on this file); the same file minus its index is refused.
func TestLoadsParentWrittenStore(t *testing.T) {
	load := func(name string) (*ModelStore, error) {
		b, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return LoadModelStore(bytes.NewReader(b))
	}
	ms, err := load("store_written_by_parent.json")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineFromStore(ms)
	if err != nil {
		t.Fatal(err)
	}
	const cluster = "ISP|hist:1h0m0s@ISP-00"
	for _, c := range []struct {
		start     int64
		city, isp string
		id        string
		initial   float64
	}{
		{10000, "City-00", "ISP-00", cluster, 2.25},      // last hour's samples
		{20000, "City-00", "ISP-00", cluster, 2.5},       // window empty: static median
		{9000, "City-01", "ISP-01", GlobalClusterID, 3},  // cell chose the global rule
		{10000, "City-09", "ISP-00", GlobalClusterID, 3}, // unseen cell
	} {
		p := eng.NewSessionPredictor(&trace.Session{StartUnix: c.start, Features: trace.Features{City: c.city, ISP: c.isp}})
		if p.ClusterID() != c.id || p.InitialPrediction() != c.initial {
			t.Errorf("%s/%s at %d: got (%q, %v), want (%q, %v)", c.city, c.isp, c.start, p.ClusterID(), p.InitialPrediction(), c.id, c.initial)
		}
	}

	if _, err := load("store_models_without_index.json"); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("index-less file: LoadModelStore = %v, want ErrNoIndex", err)
	}
}

func TestLoadModelStoreRejectsTrailingGarbage(t *testing.T) {
	modelJSON := exportedModelJSON(t)
	// "}" and "]" are what json.Decoder.More() took for the end of input.
	for _, tail := range []string{"garbage", "{", "}", "]", " ]]]garbage"} {
		doc := append(append([]byte(nil), modelJSON...), tail...)
		if _, err := LoadModelStore(bytes.NewReader(doc)); err == nil {
			t.Errorf("trailing %q after the JSON document should fail", tail)
		}
	}
}

func TestEvaluateHoldout(t *testing.T) {
	_, test, eng := env(t)
	m := EvaluateHoldout(eng, test)
	if m.Sessions == 0 || m.Epochs == 0 {
		t.Fatalf("holdout replay saw no data: %+v", m)
	}
	if !m.Valid() {
		t.Fatalf("holdout metrics should be valid: %+v", m)
	}
	if m.P90APE < m.MedianAPE {
		t.Errorf("P90 APE %v below median APE %v", m.P90APE, m.MedianAPE)
	}
	if z := EvaluateHoldout(nil, test); z.Valid() {
		t.Error("nil engine should yield invalid metrics")
	}
	if z := EvaluateHoldout(eng, nil); z.Valid() {
		t.Error("nil holdout should yield invalid metrics")
	}
}
