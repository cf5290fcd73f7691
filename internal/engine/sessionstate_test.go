package engine

import (
	"errors"
	"math"
	"testing"

	"cs2p/internal/core"
	"cs2p/internal/obs"
	"cs2p/internal/video"
)

// Two services over the same engine stand in for two replicas serving the
// same model — the warm-handoff topology.
func twoReplicas(t *testing.T) (*Service, *Service, *core.Engine) {
	t.Helper()
	svc, _ := service(t)
	e := svc.Engine()
	cfg := core.DefaultConfig()
	a := NewService(e, cfg, video.Default())
	b := NewService(e, cfg, video.Default())
	return a, b, e
}

// The core warm-handoff contract: a session exported from one replica and
// imported into another (same model) predicts bit-identically to a session
// that never moved.
func TestSessionExportImportBitIdentical(t *testing.T) {
	_, test := service(t)
	a, b, _ := twoReplicas(t)
	s := test.Sessions[2]

	a.StartSession("handoff", s.Features, s.StartUnix)
	// A control session on the same replica that will NOT move.
	a.StartSession("control", s.Features, s.StartUnix)
	for _, w := range s.Throughput[:8] {
		if _, err := a.ObserveAndPredict("handoff", w, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := a.ObserveAndPredict("control", w, 1); err != nil {
			t.Fatal(err)
		}
	}

	st, err := a.ExportSession("handoff")
	if err != nil {
		t.Fatal(err)
	}
	if st.Schema != SessionStateSchema || !st.Started || st.Epoch != 8 {
		t.Fatalf("export metadata: schema=%d started=%v epoch=%d", st.Schema, st.Started, st.Epoch)
	}
	b.SetMetrics(obs.NewRegistry())
	if err := b.ImportSession(st); err != nil {
		t.Fatal(err)
	}
	// An import is the same player session arriving, not a new one: counting
	// it as a start would make every handoff two starts cluster-wide — and
	// the source forgetting it is not an end.
	a.SetMetrics(obs.NewRegistry())
	a.ForgetSession("handoff")
	if started, ended, active := b.m.sessionsStarted.Value(), a.m.sessionsEnded.Value(), b.m.sessionsActive.Value(); started != 0 || ended != 0 || active != 1 {
		t.Errorf("after one handoff: target started = %d, source ended = %d, target active = %v; want 0, 0 and 1", started, ended, active)
	}

	// The moved session on replica B must shadow the control on replica A
	// exactly, observation for observation, at several horizons.
	for _, w := range s.Throughput[8:14] {
		for _, h := range []int{1, 3} {
			want, err := a.Predict("control", h)
			if err != nil {
				t.Fatal(err)
			}
			got, err := b.Predict("handoff", h)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("horizon %d: moved session predicts %v, control %v (must be bit-identical)", h, got, want)
			}
		}
		pa, err := a.ObserveAndPredict("control", w, 1)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := b.ObserveAndPredict("handoff", w, 1)
		if err != nil {
			t.Fatal(err)
		}
		if pa != pb {
			t.Fatalf("post-handoff observe: %v != %v", pa, pb)
		}
	}
}

func TestSessionExportUnknown(t *testing.T) {
	a, _, _ := twoReplicas(t)
	if _, err := a.ExportSession("nope"); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("err = %v, want ErrUnknownSession", err)
	}
}

// The generation guard: a posterior filtered under one model must not be
// imported under another — the importer refuses and the caller restarts
// the session from the prior.
func TestSessionImportGenerationGuard(t *testing.T) {
	_, test := service(t)
	a, b, e := twoReplicas(t)
	s := test.Sessions[3]
	a.StartSession("guarded", s.Features, s.StartUnix)
	a.ObserveAndPredict("guarded", s.Throughput[0], 1)
	st, err := a.ExportSession("guarded")
	if err != nil {
		t.Fatal(err)
	}

	// Advance B's generation (same engine, but the guard cannot know that
	// for in-process models — generation identity is all there is).
	b.InstallEngine(e)
	if err := b.ImportSession(st); !errors.Is(err, ErrSessionStateModelMismatch) {
		t.Fatalf("err = %v, want ErrSessionStateModelMismatch", err)
	}

	// Schema from the future is refused, not guessed at.
	bad := st
	bad.Schema = SessionStateSchema + 1
	if err := a.ImportSession(bad); !errors.Is(err, ErrSessionStateSchema) {
		t.Fatalf("err = %v, want ErrSessionStateSchema", err)
	}

	// A corrupted posterior is rejected before it can touch the store.
	bad = st
	bad.Posterior = []float64{math.NaN()}
	if err := a.ImportSession(bad); !errors.Is(err, ErrInvalidSessionState) {
		t.Fatalf("err = %v, want ErrInvalidSessionState", err)
	}
	bad = st
	bad.SessionID = ""
	if err := a.ImportSession(bad); !errors.Is(err, ErrInvalidSessionState) {
		t.Fatalf("err = %v, want ErrInvalidSessionState", err)
	}
}

func TestForgetSession(t *testing.T) {
	_, test := service(t)
	a, _, _ := twoReplicas(t)
	s := test.Sessions[4]
	a.StartSession("gone", s.Features, s.StartUnix)
	if !a.ForgetSession("gone") {
		t.Fatal("ForgetSession: session not found")
	}
	if a.ForgetSession("gone") {
		t.Fatal("ForgetSession: double delete reported true")
	}
	if _, err := a.Predict("gone", 1); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("forgotten session still predicts: %v", err)
	}
	// Unlike EndSession, no QoE log is recorded.
	if n := len(a.Logs()); n != 0 {
		t.Fatalf("ForgetSession recorded %d logs", n)
	}
}

func TestDrainingFlagInHealth(t *testing.T) {
	a, _, _ := twoReplicas(t)
	if a.Health().Draining {
		t.Fatal("fresh service reports draining")
	}
	a.SetDraining(true)
	if h := a.Health(); !h.Draining || !h.Ready {
		t.Fatalf("draining health = %+v, want draining && ready", h)
	}
	a.SetDraining(false)
	if a.Health().Draining {
		t.Fatal("drain flag did not clear")
	}
}
