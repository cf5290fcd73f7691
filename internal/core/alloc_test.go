package core

import (
	"testing"

	"cs2p/internal/cluster"
	"cs2p/internal/trace"
)

// TestNewSessionPredictorAllocFloor pins the allocations of a session start
// — route, Eq. 6 initial prediction, filter — on three kinds of session:
// those whose cell chose a time-windowed rule, those whose rule aggregates all
// history, and those served by the global fallback. The windowed median runs
// in a pooled buffer, so a start allocates no aggregation, value copy or
// sort copy.
func TestNewSessionPredictorAllocFloor(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	train, test, eng := env(t)
	kinds := map[string][]*trace.Session{}
	for _, s := range append(append([]*trace.Session(nil), test.Sessions...), train.Sessions...) {
		rule, _, id := eng.store.route(s)
		kind := "all-history"
		switch {
		case id == GlobalClusterID:
			kind = "global"
		case rule.Window.Kind != cluster.WindowAll:
			kind = "windowed"
		}
		if len(kinds[kind]) < 20 {
			kinds[kind] = append(kinds[kind], s)
		}
	}
	for kind, floor := range map[string]float64{"windowed": 18, "all-history": 16, "global": 15} {
		sessions := kinds[kind]
		if len(sessions) == 0 {
			t.Fatalf("vacuous: no %s session", kind)
		}
		for _, s := range sessions { // warm the buffer pool
			eng.NewSessionPredictor(s)
		}
		got := testing.AllocsPerRun(50, func() {
			for _, s := range sessions {
				eng.NewSessionPredictor(s)
			}
		}) / float64(len(sessions))
		t.Logf("%s: %.2f allocs per start over %d sessions", kind, got, len(sessions))
		if got > floor {
			t.Errorf("%s: %.2f allocs per start, want at most %v", kind, got, floor)
		}
	}
}
