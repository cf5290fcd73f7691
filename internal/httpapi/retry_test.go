package httpapi

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cs2p/internal/health"
)

func TestBackoffSchedule(t *testing.T) {
	cases := []struct {
		name    string
		p       RetryPolicy
		attempt int
		want    time.Duration
	}{
		{"first", RetryPolicy{BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}, 0, 50 * time.Millisecond},
		{"second doubles", RetryPolicy{BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}, 1, 100 * time.Millisecond},
		{"fourth", RetryPolicy{BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}, 3, 400 * time.Millisecond},
		{"capped", RetryPolicy{BaseDelay: 50 * time.Millisecond, MaxDelay: 300 * time.Millisecond}, 5, 300 * time.Millisecond},
		{"zero base", RetryPolicy{MaxDelay: time.Second}, 4, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.p.BackoffAt(c.attempt); got != c.want {
				t.Errorf("BackoffAt(%d) = %v, want %v", c.attempt, got, c.want)
			}
		})
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	p := RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: 10 * time.Second}
	rng := rand.New(rand.NewSource(7))
	for attempt := 0; attempt < 5; attempt++ {
		base := p.BackoffAt(attempt)
		for i := 0; i < 50; i++ {
			d := p.delay(attempt, rng)
			lo := time.Duration(float64(base) * 0.8)
			hi := time.Duration(float64(base) * 1.2)
			if d < lo || d > hi {
				t.Fatalf("attempt %d: jittered delay %v outside [%v, %v]", attempt, d, lo, hi)
			}
		}
	}
	// Same seed, same schedule: the chaos harness depends on this.
	a := rand.New(rand.NewSource(42))
	b := rand.New(rand.NewSource(42))
	for i := 0; i < 10; i++ {
		if p.delay(i, a) != p.delay(i, b) {
			t.Fatal("jitter schedule must be deterministic for a fixed seed")
		}
	}
}

func TestWithRetrySemantics(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: time.Second}
	noSleep := func(time.Duration) {}

	t.Run("succeeds after transient failures", func(t *testing.T) {
		calls := 0
		retries, err := withRetry(p, nil, noSleep, func() error {
			calls++
			if calls < 3 {
				return errors.New("conn reset")
			}
			return nil
		})
		if err != nil || calls != 3 || retries != 2 {
			t.Errorf("calls=%d retries=%d err=%v", calls, retries, err)
		}
	})
	t.Run("gives up after MaxAttempts", func(t *testing.T) {
		calls := 0
		_, err := withRetry(p, nil, noSleep, func() error { calls++; return errors.New("down") })
		if err == nil || calls != 4 {
			t.Errorf("calls=%d err=%v", calls, err)
		}
	})
	t.Run("does not retry 4xx", func(t *testing.T) {
		calls := 0
		_, err := withRetry(p, nil, noSleep, func() error {
			calls++
			return &StatusError{Status: 404, Path: "POST /v1/predict", Msg: "unknown session"}
		})
		if calls != 1 {
			t.Errorf("404 retried %d times", calls-1)
		}
		if HTTPStatus(err) != 404 {
			t.Errorf("status = %d", HTTPStatus(err))
		}
	})
	t.Run("does not retry 501", func(t *testing.T) {
		calls := 0
		_, _ = withRetry(p, nil, noSleep, func() error {
			calls++
			return &StatusError{Status: 501, Path: "GET /v1/model", Msg: "not implemented"}
		})
		if calls != 1 {
			t.Errorf("501 retried %d times", calls-1)
		}
	})
	t.Run("retries 5xx and 429", func(t *testing.T) {
		for _, status := range []int{500, 503, 429} {
			calls := 0
			_, _ = withRetry(p, nil, noSleep, func() error {
				calls++
				return &StatusError{Status: status}
			})
			if calls != 4 {
				t.Errorf("status %d: calls = %d, want 4", status, calls)
			}
		}
	})
	t.Run("sleeps the schedule", func(t *testing.T) {
		var slept []time.Duration
		_, _ = withRetry(p, nil, func(d time.Duration) { slept = append(slept, d) },
			func() error { return errors.New("down") })
		want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond}
		if fmt.Sprint(slept) != fmt.Sprint(want) {
			t.Errorf("slept %v, want %v", slept, want)
		}
	})
}

func TestBreakerStateMachine(t *testing.T) {
	clock := time.Unix(0, 0)
	b := NewBreaker(3, 2*time.Second)
	b.SetClock(func() time.Time { return clock })

	if b.State() != health.Healthy || !b.Allow() {
		t.Fatal("new breaker should be closed and allowing")
	}
	// Failures below the threshold keep it closed.
	b.Failure()
	b.Failure()
	if b.State() != health.Healthy || !b.Allow() {
		t.Fatal("breaker opened early")
	}
	// A success resets the consecutive count.
	b.Success()
	b.Failure()
	b.Failure()
	if b.State() != health.Healthy {
		t.Fatal("success should reset the failure count")
	}
	// The third consecutive failure opens it.
	b.Failure()
	if b.State() != health.Down {
		t.Fatal("threshold reached but breaker still closed")
	}
	if b.Allow() {
		t.Fatal("open breaker must fail fast")
	}
	// Cooldown elapses: exactly one half-open trial is admitted.
	clock = clock.Add(2 * time.Second)
	if !b.Allow() {
		t.Fatal("cooldown elapsed; trial should be admitted")
	}
	if b.State() != health.Recovering {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("second call during half-open trial should be rejected")
	}
	// Failed trial re-opens with a fresh cooldown.
	b.Failure()
	if b.State() != health.Down || b.Allow() {
		t.Fatal("failed trial should re-open the breaker")
	}
	clock = clock.Add(2 * time.Second)
	if !b.Allow() {
		t.Fatal("second trial should be admitted after another cooldown")
	}
	// Successful trial closes it again.
	b.Success()
	if b.State() != health.Healthy || !b.Allow() {
		t.Fatal("successful trial should close the breaker")
	}
}

// TestBreakerConcurrentCalls: a call admitted while closed may report after
// the circuit opened. Its success is one success, not a trial: the breaker
// goes half-open with no trial out, then lets exactly one of many concurrent
// callers through, and that trial's success closes it.
func TestBreakerConcurrentCalls(t *testing.T) {
	b := NewBreaker(2, time.Hour)
	b.Failure()
	b.Failure()
	b.Success()
	if b.State() != health.Recovering {
		t.Fatalf("late success left the breaker %s, want half-open", breakerStates[b.State()])
	}
	var admitted atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.Allow() {
				admitted.Add(1)
			}
		}()
	}
	wg.Wait()
	if n := admitted.Load(); n != 1 {
		t.Fatalf("%d concurrent calls admitted half-open, want 1", n)
	}
	b.Success()
	if b.State() != health.Healthy {
		t.Fatalf("breaker %s after the trial's success, want closed", breakerStates[b.State()])
	}
}

// TestBreakerStateString pins the circuit names the breaker's machine
// states carry on cs2p_client_breaker_transitions_total.
func TestBreakerStateString(t *testing.T) {
	want := map[health.State]string{health.Healthy: "closed", health.Down: "open", health.Recovering: "half-open"}
	if fmt.Sprint(breakerStates) != fmt.Sprint(want) {
		t.Errorf("breaker state names %v, want %v", breakerStates, want)
	}
}
