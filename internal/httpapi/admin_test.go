package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"cs2p/internal/core"
	"cs2p/internal/engine"
	"cs2p/internal/hmm"
	"cs2p/internal/mathx"
	"cs2p/internal/registry"
	"cs2p/internal/trace"
	"cs2p/internal/video"
)

// adminStore builds a minimal model store predicting exactly mean, so each
// registry version is distinguishable by its served predictions.
func adminStore(mean float64) *core.ModelStore {
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

// artifactServer publishes v1 and v2 into a fresh registry, boots a service
// from v1, installs v2 (so a rollback target exists), and serves it.
func artifactServer(t *testing.T) (*httptest.Server, *engine.Service, *registry.Registry) {
	t.Helper()
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta := core.TrainingMeta{TrainedAtUnix: 100, TraceSessions: 10,
		Holdout: core.HoldoutMetrics{Sessions: 5, Epochs: 50, MedianAPE: 0.2, P90APE: 0.4}}
	for i := 1; i <= 2; i++ {
		if _, err := reg.Publish(adminStore(float64(i)), meta); err != nil {
			t.Fatal(err)
		}
	}
	v1, err := reg.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := engine.NewServiceFromArtifact(v1, core.DefaultConfig(), video.Default(), engine.ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := reg.Get(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.InstallArtifact(v2); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc, (*core.Engine).Store)
	srv.SetLogf(func(string, ...any) {})
	srv.SetAdmin(&engine.RegistryAdmin{Svc: svc, Reg: reg})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, svc, reg
}

type adminModelsResponse struct {
	ActiveVersion uint64                    `json:"active_version"`
	Versions      []engine.ModelVersionInfo `json:"versions"`
}

func getAdminModels(t *testing.T, ts *httptest.Server) adminModelsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/admin/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/admin/models status %d", resp.StatusCode)
	}
	var out adminModelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAdminModelsAndRollback(t *testing.T) {
	ts, _, _ := artifactServer(t)
	got := getAdminModels(t, ts)
	if got.ActiveVersion != 2 {
		t.Fatalf("active_version = %d, want 2", got.ActiveVersion)
	}
	if len(got.Versions) != 2 {
		t.Fatalf("versions = %+v, want 2 entries", got.Versions)
	}
	if !got.Versions[1].Active || got.Versions[0].Active {
		t.Errorf("only v2 should be marked active: %+v", got.Versions)
	}
	if got.Versions[0].HoldoutMedianAPE != 0.2 || got.Versions[0].TrainedAtUnix != 100 {
		t.Errorf("manifest metadata should surface in the listing: %+v", got.Versions[0])
	}

	resp, err := http.Post(ts.URL+"/v1/admin/rollback", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollback status %d", resp.StatusCode)
	}
	var rb struct {
		ActiveVersion uint64 `json:"active_version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rb); err != nil {
		t.Fatal(err)
	}
	if rb.ActiveVersion != 1 {
		t.Fatalf("rollback should restore v1, got v%d", rb.ActiveVersion)
	}
	if after := getAdminModels(t, ts); after.ActiveVersion != 1 || !after.Versions[0].Active {
		t.Errorf("listing should mark v1 active after rollback: %+v", after)
	}
}

func TestAdminRollbackConflictWhenNoPrevious(t *testing.T) {
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish(adminStore(1), core.TrainingMeta{TrainedAtUnix: 1}); err != nil {
		t.Fatal(err)
	}
	a, err := reg.Latest()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := engine.NewServiceFromArtifact(a, core.DefaultConfig(), video.Default(), engine.ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc, (*core.Engine).Store)
	srv.SetLogf(func(string, ...any) {})
	srv.SetAdmin(&engine.RegistryAdmin{Svc: svc, Reg: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/admin/rollback", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("rollback with no previous model: status %d, want 409", resp.StatusCode)
	}
}

func TestAdminEndpointsDisabledWithoutRegistry(t *testing.T) {
	ts, _ := testServer(t) // the shared in-process-trained server: no SetAdmin
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/admin/models")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("GET /v1/admin/models without admin: status %d, want 501", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/admin/rollback", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("POST /v1/admin/rollback without admin: status %d, want 501", resp.StatusCode)
	}
}

func TestModelETagRevalidation(t *testing.T) {
	ts, _, _ := artifactServer(t)
	resp, err := http.Get(ts.URL + "/v1/model?isp=x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/model status %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if etag != `"cs2p-model-v2"` {
		t.Fatalf("artifact-served model should carry a version ETag, got %q", etag)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/model?isp=x", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("matching If-None-Match: status %d, want 304", resp.StatusCode)
	}

	// Wildcard and comma lists are honored.
	req.Header.Set("If-None-Match", `"other", `+etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("comma-list If-None-Match: status %d, want 304", resp.StatusCode)
	}

	// A rollback changes the served version, so the stale ETag re-downloads
	// and the response carries the restored version's ETag (stable identity:
	// it is exactly what v1 clients cached before the v2 push).
	if resp, err := http.Post(ts.URL+"/v1/admin/rollback", "application/json", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale ETag after rollback: status %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("ETag"); got != `"cs2p-model-v1"` {
		t.Errorf("post-rollback ETag = %q, want \"cs2p-model-v1\"", got)
	}
}

func TestClientModelCacheRevalidates(t *testing.T) {
	ts, _, _ := artifactServer(t)
	c := NewClient(ts.URL)
	f := trace.Features{ISP: "x"}
	p1, err := c.FetchLocalPredictor(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := p1.Predict(); got != 2 {
		t.Fatalf("v2 local predictor should predict 2, got %v", got)
	}
	// Repeat fetches revalidate: one download total, the rest 304s.
	for i := 0; i < 3; i++ {
		p, err := c.FetchLocalPredictor(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Predict(); got != 2 {
			t.Fatalf("refetched predictor should predict 2, got %v", got)
		}
	}
	stats := c.ModelFetchStats()
	if stats.Downloads != 1 {
		t.Errorf("downloads = %d, want exactly 1 (refetches must revalidate)", stats.Downloads)
	}
	if stats.NotModified != 3 {
		t.Errorf("not-modified = %d, want 3", stats.NotModified)
	}
}
