package engine

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"cs2p/internal/core"
	"cs2p/internal/video"
)

// TestConcurrentSameSessionPredicts hammers one session from many
// goroutines — the misbehaving-client scenario. The per-session lock must
// keep the HMM filter race-free (run under -race) and every reply finite.
func TestConcurrentSameSessionPredicts(t *testing.T) {
	svc, test := service(t)
	s := test.Sessions[0]
	svc.StartSession("same-sess", s.Features, s.StartUnix)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				w := 1.0 + float64((g*25+i)%7)
				p, err := svc.ObserveAndPredict("same-sess", w, 1+i%3)
				if err != nil {
					errs <- err
					return
				}
				if math.IsNaN(p) || math.IsInf(p, 0) {
					errs <- fmt.Errorf("goroutine %d: prediction %v", g, p)
					return
				}
				if _, err := svc.Predict("same-sess", 2); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	svc.EndSession(SessionLog{SessionID: "same-sess"})
}

func TestLogRingBounded(t *testing.T) {
	// The ring's eviction shape is pinned by sessionstore's own tests; here
	// the service wiring: ServiceOptions.MaxLogs bounds Logs(). A dedicated
	// shards=1 service (reusing the shared trained engine, no retrain) makes
	// the global eviction order exact.
	shared, _ := service(t)
	svc := NewServiceWithOptions(shared.Engine(), core.DefaultConfig(), video.Default(),
		ServiceOptions{Shards: 1, MaxLogs: 2})
	for i := 0; i < 4; i++ {
		svc.EndSession(SessionLog{SessionID: fmt.Sprintf("ring-%d", i)})
	}
	logs := svc.Logs()
	if len(logs) != 2 {
		t.Fatalf("service retained %d logs, want 2", len(logs))
	}
	if logs[0].SessionID != "ring-2" || logs[1].SessionID != "ring-3" {
		t.Errorf("service logs = %v", logs)
	}
}

// TestModelGenerationAdvances pins the retrain-invalidates-caches
// contract: each retrain bumps the generation exactly once.
func TestModelGenerationAdvances(t *testing.T) {
	svc, test := service(t)
	g0 := svc.ModelGeneration()
	if err := hotRetrain(svc, test); err != nil {
		t.Fatal(err)
	}
	if svc.ModelGeneration() != g0+1 {
		t.Errorf("generation %d -> %d, want +1", g0, svc.ModelGeneration())
	}
}

// TestEstimateRebufferNilModel pins the nil-model guard.
func TestEstimateRebufferNilModel(t *testing.T) {
	if got := EstimateRebuffer(video.Default(), nil, 2.0, 5, 1); got != 0 {
		t.Errorf("nil model estimate = %v, want 0", got)
	}
}
