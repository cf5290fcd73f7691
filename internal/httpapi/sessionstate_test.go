package httpapi

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"cs2p/internal/engine"
	"cs2p/internal/trace"
	"cs2p/internal/video"
)

// stateReplica is one fresh service+server pair over the shared trained
// engine — tests that drain or import must not disturb the package-wide
// envServer other tests share.
func stateReplica(t *testing.T) (*engine.Service, *Client) {
	t.Helper()
	ensureEnv()
	svc := engine.NewService(envEngine, envCfg, video.Default())
	srv := NewServer(svc, nil)
	srv.SetLogf(func(string, ...any) {})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return svc, NewClient(ts.URL)
}

// The transport-level warm-handoff contract: exporting over HTTP and
// importing on a second replica yields bit-identical predictions, because
// JSON round-trips float64 exactly.
func TestSessionStateHTTPRoundTrip(t *testing.T) {
	_, a := stateReplica(t)
	_, b := stateReplica(t)
	ctx := context.Background()
	s := envTest.Sessions[1]

	if _, err := a.StartSession("mover", s.Features, s.StartUnix); err != nil {
		t.Fatal(err)
	}
	if _, err := a.StartSession("control", s.Features, s.StartUnix); err != nil {
		t.Fatal(err)
	}
	for _, w := range s.Throughput[:6] {
		if _, err := a.ObserveAndPredict("mover", w, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := a.ObserveAndPredict("control", w, 1); err != nil {
			t.Fatal(err)
		}
	}

	st, err := a.ExportSession(ctx, "mover")
	if err != nil {
		t.Fatal(err)
	}
	if st.Schema != engine.SessionStateSchema || st.SessionID != "mover" {
		t.Fatalf("export payload: schema=%d id=%q", st.Schema, st.SessionID)
	}
	if err := b.ImportSession(ctx, st); err != nil {
		t.Fatal(err)
	}
	if err := a.ForgetSession(ctx, "mover"); err != nil {
		t.Fatal(err)
	}

	for _, w := range s.Throughput[6:10] {
		want, err := a.ObserveAndPredict("control", w, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.ObserveAndPredict("mover", w, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("moved session predicts %v, control %v (must be bit-identical)", got, want)
		}
	}

	// The source forgot the session: a re-export is a 404.
	if _, err := a.ExportSession(ctx, "mover"); HTTPStatus(err) != http.StatusNotFound {
		t.Fatalf("export after forget: %v, want 404", err)
	}
	if err := a.ForgetSession(ctx, "mover"); HTTPStatus(err) != http.StatusNotFound {
		t.Fatalf("double forget: %v, want 404", err)
	}
}

// A model-generation mismatch is a 409 — the router's signal to fall back
// to replay — while a corrupt payload is a plain 400.
func TestSessionStateImportStatusMapping(t *testing.T) {
	_, a := stateReplica(t)
	svcB, b := stateReplica(t)
	ctx := context.Background()
	s := envTest.Sessions[2]

	if _, err := a.StartSession("guarded", s.Features, s.StartUnix); err != nil {
		t.Fatal(err)
	}
	a.ObserveAndPredict("guarded", s.Throughput[0], 1)
	st, err := a.ExportSession(ctx, "guarded")
	if err != nil {
		t.Fatal(err)
	}

	svcB.InstallEngine(envEngine) // bump B's generation past the export's
	if err := b.ImportSession(ctx, st); HTTPStatus(err) != http.StatusConflict {
		t.Fatalf("generation mismatch: %v, want 409", err)
	}

	bad := st
	bad.Posterior = []float64{-1, 0, 0}
	if err := a.ImportSession(ctx, bad); HTTPStatus(err) != http.StatusBadRequest {
		t.Fatalf("negative posterior: %v, want 400", err)
	}
	bad = st
	bad.Posterior = nil
	if err := a.ImportSession(ctx, bad); HTTPStatus(err) != http.StatusBadRequest {
		t.Fatalf("empty posterior: %v, want 400", err)
	}
	bad = st
	bad.SessionID = "someone-else"
	if err := a.doJSON(ctx, http.MethodPut, "/v1/session/guarded/state", bad, nil); HTTPStatus(err) != http.StatusBadRequest {
		t.Fatalf("payload/URL id mismatch: %v, want 400", err)
	}
	bad = st
	bad.Schema = engine.SessionStateSchema + 1
	if err := a.ImportSession(ctx, bad); HTTPStatus(err) != http.StatusConflict {
		t.Fatalf("future schema: %v, want 409", err)
	}
}

// Draining is visible end to end: the admin toggle flips healthz to
// "draining" (still 200 — the replica is alive and serving) with the
// remaining session count, and clears back to "ok".
func TestHealthzDraining(t *testing.T) {
	_, c := stateReplica(t)
	ctx := context.Background()
	s := envTest.Sessions[3]
	if _, err := c.StartSession("resident", s.Features, s.StartUnix); err != nil {
		t.Fatal(err)
	}

	if err := c.SetDraining(ctx, true); err != nil {
		t.Fatal(err)
	}
	hr, err := c.Readiness(ctx)
	if err != nil {
		t.Fatalf("draining healthz must stay 200: %v", err)
	}
	if hr.Status != HealthzDraining {
		t.Fatalf("status = %q, want %q", hr.Status, HealthzDraining)
	}
	if hr.Sessions != 1 {
		t.Fatalf("draining healthz reports %d sessions, want 1", hr.Sessions)
	}

	if err := c.SetDraining(ctx, false); err != nil {
		t.Fatal(err)
	}
	if hr, err = c.Readiness(ctx); err != nil || hr.Status != HealthzOK {
		t.Fatalf("after undrain: status=%q err=%v", hr.Status, err)
	}
}

// bareSessionService implements only the mandatory SessionService surface —
// none of the optional transfer/drain interfaces.
type bareSessionService struct{}

func (bareSessionService) StartSession(string, trace.Features, int64) engine.StartResponse {
	return engine.StartResponse{}
}
func (bareSessionService) ObserveAndPredict(string, float64, int) (float64, error)  { return 0, nil }
func (bareSessionService) Predict(string, int) (float64, error)                     { return 0, nil }
func (bareSessionService) EndSession(engine.SessionLog)                             {}
func (bareSessionService) ServeBatch([]engine.BatchOp, []engine.BatchResult) uint64 { return 0 }

// Backends without the optional surfaces answer 501, not 404 — the router
// uses the distinction to fall back to replay instead of retrying.
func TestSessionStateNotSupported(t *testing.T) {
	srv := NewServer(bareSessionService{}, nil)
	srv.SetLogf(func(string, ...any) {})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	ctx := context.Background()

	if _, err := c.ExportSession(ctx, "x"); HTTPStatus(err) != http.StatusNotImplemented {
		t.Fatalf("export: %v, want 501", err)
	}
	if err := c.ImportSession(ctx, engine.SessionState{SessionID: "x", Posterior: []float64{1}}); HTTPStatus(err) != http.StatusNotImplemented {
		t.Fatalf("import: %v, want 501", err)
	}
	if err := c.ForgetSession(ctx, "x"); HTTPStatus(err) != http.StatusNotImplemented {
		t.Fatalf("forget: %v, want 501", err)
	}
	if err := c.SetDraining(ctx, true); HTTPStatus(err) != http.StatusNotImplemented {
		t.Fatalf("drain: %v, want 501", err)
	}
}
