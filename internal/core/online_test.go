package core

import (
	"fmt"
	"math"
	"testing"

	"cs2p/internal/trace"
)

// scaleSessions returns copies of sessions with throughput multiplied by f —
// the distribution-shift generator the online-learning tests share.
func scaleSessions(sessions []*trace.Session, f float64, tag string) []*trace.Session {
	out := make([]*trace.Session, 0, len(sessions))
	for i, s := range sessions {
		tp := make([]float64, len(s.Throughput))
		for k, w := range s.Throughput {
			tp[k] = w * f
		}
		out = append(out, &trace.Session{
			ID:         fmt.Sprintf("%s-%s-%d", tag, s.ID, i),
			StartUnix:  s.StartUnix,
			Features:   s.Features,
			Throughput: tp,
		})
	}
	return out
}

func TestOnlineLearnerValidation(t *testing.T) {
	if _, err := NewOnlineLearner(nil, DefaultOnlineConfig()); err == nil {
		t.Fatal("nil base engine accepted")
	}
	if _, err := NewOnlineLearner(&Engine{}, DefaultOnlineConfig()); err == nil {
		t.Fatal("untrained base engine accepted")
	}
}

// TestOnlineLearnerTracksShift absorbs throughput-scaled traffic and checks
// that the candidate's predictions move toward the new regime while the base
// engine stays untouched.
func TestOnlineLearnerTracksShift(t *testing.T) {
	train, test, eng := env(t)

	baseGlobalMu := eng.GlobalModel().Emit[0].Mu
	baseGlobalMed := eng.store.Global.InitialMedian

	l, err := NewOnlineLearner(eng, DefaultOnlineConfig())
	if err != nil {
		t.Fatal(err)
	}
	const scale = 4.0
	shifted := scaleSessions(train.Sessions[:300], scale, "shift")
	for i := 0; i < len(shifted); i += 60 {
		end := i + 60
		if end > len(shifted) {
			end = len(shifted)
		}
		if err := l.Absorb(shifted[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if l.Absorbed() == 0 {
		t.Fatal("no sessions absorbed")
	}

	cand, err := l.Candidate()
	if err != nil {
		t.Fatal(err)
	}
	if err := cand.Store().Validate(); err != nil {
		t.Fatalf("candidate store invalid: %v", err)
	}

	// Base engine must be untouched by everything above.
	if eng.GlobalModel().Emit[0].Mu != baseGlobalMu || eng.store.Global.InitialMedian != baseGlobalMed {
		t.Fatal("online learner mutated the base engine")
	}

	// The candidate's global initial median must have moved toward the
	// scaled regime; with a 4x shift it should clearly exceed the base.
	if cand.store.Global.InitialMedian <= baseGlobalMed*2 {
		t.Fatalf("candidate global median %v did not track 4x shift from base %v", cand.store.Global.InitialMedian, baseGlobalMed)
	}

	// Midstream predictions on shifted sessions should beat the incumbent's.
	shiftedTest := scaleSessions(test.Sessions[:100], scale, "shift-test")
	baseAPE := midstreamMedianAPE(eng, shiftedTest)
	candAPE := midstreamMedianAPE(cand, shiftedTest)
	if !(candAPE < baseAPE) {
		t.Fatalf("candidate midstream APE %v not better than incumbent %v on shifted traffic", candAPE, baseAPE)
	}
}

func midstreamMedianAPE(e *Engine, sessions []*trace.Session) float64 {
	var errs []float64
	for _, s := range sessions {
		p := e.NewSessionPredictor(s)
		for k, w := range s.Throughput {
			if k > 0 && w > 0 {
				errs = append(errs, math.Abs(p.Predict()-w)/w)
			}
			p.Observe(w)
		}
	}
	if len(errs) == 0 {
		return math.NaN()
	}
	cp := append([]float64(nil), errs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return cp[n/2-1]*0.5 + cp[n/2]*0.5
}

// TestOnlineLearnerStoreBackedBase: whether the base was trained in this
// process or booted from a shipped store, the candidate carries the
// incumbent's index over unchanged (so it routes every session where the
// incumbent did) while refreshing models and medians.
func TestOnlineLearnerStoreBackedBase(t *testing.T) {
	train, test, eng := env(t)
	booted, err := NewEngineFromStore(eng.Store())
	if err != nil {
		t.Fatal(err)
	}
	for name, base := range map[string]*Engine{"trained": eng, "booted": booted} {
		t.Run(name, func(t *testing.T) {
			l, err := NewOnlineLearner(base, DefaultOnlineConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Absorb(scaleSessions(train.Sessions[:200], 3, "store-shift")); err != nil {
				t.Fatal(err)
			}
			cand, err := l.Candidate()
			if err != nil {
				t.Fatal(err)
			}
			baseMS, ms := base.Store(), cand.Store()
			if ms.Initial != baseMS.Initial {
				t.Fatal("candidate did not carry the incumbent initial index over")
			}
			if len(ms.Models) != len(baseMS.Models) {
				t.Fatalf("candidate has %d cluster models, base %d", len(ms.Models), len(baseMS.Models))
			}
			for _, s := range test.Sessions {
				_, want := base.ModelFor(s)
				if _, got := cand.ModelFor(s); got != want {
					t.Fatalf("session %s: candidate routes to %q, incumbent to %q", s.ID, got, want)
				}
			}
			if ms.Global.Model == baseMS.Global.Model {
				t.Fatal("candidate global model aliases the incumbent")
			}
			if ms.Global.InitialMedian <= baseMS.Global.InitialMedian {
				t.Fatalf("candidate global median %v did not move under 3x shift (base %v)", ms.Global.InitialMedian, baseMS.Global.InitialMedian)
			}
		})
	}
}

// TestOnlineLearnerEmptyAbsorb checks no-op behavior and that Candidate on an
// idle learner reproduces the incumbent's parameters.
func TestOnlineLearnerEmptyAbsorb(t *testing.T) {
	_, _, eng := env(t)
	l, err := NewOnlineLearner(eng, DefaultOnlineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Absorb(nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Absorb([]*trace.Session{nil, {ID: "x"}}); err != nil {
		t.Fatal(err)
	}
	if l.Absorbed() != 0 {
		t.Fatalf("Absorbed() = %d, want 0", l.Absorbed())
	}
	cand, err := l.Candidate()
	if err != nil {
		t.Fatal(err)
	}
	if cand.store.Global.InitialMedian != eng.store.Global.InitialMedian {
		t.Fatal("idle candidate changed the global median")
	}
	if cand.GlobalModel().Emit[0] != eng.GlobalModel().Emit[0] {
		t.Fatal("idle candidate changed the global model")
	}
}
