package router

import (
	"testing"
	"time"

	"cs2p/internal/health"
)

// fakeClock is the injectable clock: tests advance it explicitly, so the
// state machine's timestamps are exact and no test ever sleeps.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time { return c.t }

func (c *fakeClock) Advance(d time.Duration) { c.t = c.t.Add(d) }

// TestHealthStateMachine drives the machine through outcome sequences and
// checks the resulting state after each step. '+' is a success, '-' a
// failure.
func TestHealthStateMachine(t *testing.T) {
	th := health.Thresholds{SuspectAfter: 1, DownAfter: 3, RecoverAfter: 2}
	cases := []struct {
		name     string
		outcomes string
		want     []State
	}{
		{"stays healthy", "+++", []State{StateHealthy, StateHealthy, StateHealthy}},
		{"one failure suspects", "-", []State{StateSuspect}},
		{"suspect recovers on success", "-+", []State{StateSuspect, StateHealthy}},
		{"three failures down", "---", []State{StateSuspect, StateSuspect, StateDown}},
		{"down needs two successes", "---++",
			[]State{StateSuspect, StateSuspect, StateDown, StateRecovering, StateHealthy}},
		{"one success is not recovery", "---+",
			[]State{StateSuspect, StateSuspect, StateDown, StateRecovering}},
		{"failure mid-recovery is down again", "---+-",
			[]State{StateSuspect, StateSuspect, StateDown, StateRecovering, StateDown}},
		{"success resets the failure run", "--+--",
			[]State{StateSuspect, StateSuspect, StateHealthy, StateSuspect, StateSuspect}},
		{"flapping never reaches down", "-+-+-+",
			[]State{StateSuspect, StateHealthy, StateSuspect, StateHealthy, StateSuspect, StateHealthy}},
		{"down stays down under failures", "----",
			[]State{StateSuspect, StateSuspect, StateDown, StateDown}},
		{"full lifecycle", "---+++",
			[]State{StateSuspect, StateSuspect, StateDown, StateRecovering, StateHealthy, StateHealthy}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := newFakeClock()
			var h health.Machine
			for i, c := range tc.outcomes {
				clock.Advance(time.Second)
				h.Observe(c == '+', clock.Now(), th)
				if h.State() != tc.want[i] {
					t.Fatalf("after %q: state %s, want %s", tc.outcomes[:i+1], h.State(), tc.want[i])
				}
			}
		})
	}
}

// TestHealthStateSince: the entry timestamp updates on transitions only,
// from the injected clock.
func TestHealthStateSince(t *testing.T) {
	th := health.DefaultThresholds()
	clock := newFakeClock()
	var h health.Machine

	clock.Advance(time.Second)
	h.Observe(true, clock.Now(), th) // healthy -> healthy: no transition
	if !h.Since().IsZero() {
		t.Fatalf("since set without a transition: %v", h.Since())
	}

	clock.Advance(time.Second)
	h.Observe(false, clock.Now(), th) // healthy -> suspect
	suspectAt := clock.Now()
	if !h.Since().Equal(suspectAt) {
		t.Fatalf("since = %v, want transition time %v", h.Since(), suspectAt)
	}

	clock.Advance(time.Minute)
	h.Observe(false, clock.Now(), th) // still suspect (DownAfter=3): no change
	if !h.Since().Equal(suspectAt) {
		t.Fatalf("since moved without a transition: %v", h.Since())
	}

	clock.Advance(time.Second)
	h.Observe(false, clock.Now(), th) // suspect -> down
	if !h.Since().Equal(clock.Now()) {
		t.Fatalf("since = %v, want %v", h.Since(), clock.Now())
	}
}

// TestHealthImmediateDown: DownAfter == SuspectAfter skips the suspect
// stage entirely (the down check binds tighter).
func TestHealthImmediateDown(t *testing.T) {
	th := health.Thresholds{SuspectAfter: 1, DownAfter: 1, RecoverAfter: 1}
	clock := newFakeClock()
	var h health.Machine
	if _, to := h.Observe(false, clock.Now(), th); to != StateDown {
		t.Fatalf("state %s, want down with DownAfter=1", to)
	}
	if _, to := h.Observe(true, clock.Now(), th); to != StateRecovering {
		t.Fatalf("state %s, want recovering", to)
	}
	if _, to := h.Observe(true, clock.Now(), th); to != StateHealthy {
		t.Fatalf("state %s, want healthy with RecoverAfter=1", to)
	}
}

// TestStateString pins the metric documentation's names.
func TestStateString(t *testing.T) {
	want := map[State]string{
		StateHealthy:    "healthy",
		StateSuspect:    "suspect",
		StateDown:       "down",
		StateRecovering: "recovering",
		StateDraining:   "draining",
		State(99):       "unknown",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("State(%d).String() = %q, want %q", int(s), s.String(), name)
		}
	}
}
