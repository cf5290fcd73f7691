package httpapi

import (
	"math/rand"
	"net/http"
	"sync"
	"time"

	"cs2p/internal/health"
)

// Fixed shape of the retry backoff.
const (
	// backoffMultiplier scales the delay between consecutive attempts.
	backoffMultiplier = 2
	// jitterFrac perturbs each delay by ±jitterFrac·delay so a fleet of
	// players recovering from the same outage doesn't retry in lockstep.
	jitterFrac = 0.2
)

// RetryPolicy is a capped exponential backoff (the delay doubles per
// attempt) with ±20% proportional jitter; cs2p-player's -retries,
// -retry-base and -retry-max set its fields. Only idempotent calls (session
// start, stateless horizon queries, model fetch) go through it —
// ObserveAndPredict mutates the session filter, so a blind retry would
// double-count the observation.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first.
	// Values <= 1 disable retries.
	MaxAttempts int
	// BaseDelay is the wait after the first failure.
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth.
	MaxDelay time.Duration
}

// DefaultRetryPolicy matches a per-chunk control loop: a few fast retries
// well inside one chunk's download time.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   50 * time.Millisecond,
		MaxDelay:    2 * time.Second,
	}
}

// BackoffAt returns the pre-jitter delay before retry attempt `attempt`
// (0-based: attempt 0 is the wait after the first failure).
func (p RetryPolicy) BackoffAt(attempt int) time.Duration {
	if p.BaseDelay <= 0 {
		return 0
	}
	d := float64(p.BaseDelay)
	for i := 0; i < attempt; i++ {
		d *= backoffMultiplier
		if p.MaxDelay > 0 && d >= float64(p.MaxDelay) {
			return p.MaxDelay
		}
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		return p.MaxDelay
	}
	return time.Duration(d)
}

// delay applies jitter to BackoffAt using the caller's RNG (seeded by the
// resilient predictor for deterministic tests); a nil RNG means no jitter.
func (p RetryPolicy) delay(attempt int, rng *rand.Rand) time.Duration {
	d := p.BackoffAt(attempt)
	if d <= 0 || rng == nil {
		return d
	}
	j := 1 + jitterFrac*(2*rng.Float64()-1)
	return time.Duration(float64(d) * j)
}

// retryable reports whether an error is safe and useful to retry:
// connection-level failures, 5xx and 429. Everything Refused — a 4xx
// (including the 404 that signals a lost session) or a 501 — is not: it
// needs a different recovery, not the same request again.
func retryable(err error) bool {
	return err != nil && (!Refused(err) || HTTPStatus(err) == http.StatusTooManyRequests)
}

// withRetry runs fn up to p.MaxAttempts times, sleeping the jittered
// backoff between attempts, and returns the last error. sleep is
// injectable so tests don't wait wall-clock time.
func withRetry(p RetryPolicy, rng *rand.Rand, sleep func(time.Duration), fn func() error) (retries int, err error) {
	if sleep == nil {
		sleep = time.Sleep
	}
	attempts := p.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	for i := 0; i < attempts; i++ {
		if err = fn(); err == nil || !retryable(err) {
			return retries, err
		}
		if i == attempts-1 {
			break
		}
		sleep(p.delay(i, rng))
		retries++
	}
	return retries, err
}

// Breaker is a consecutive-failure circuit breaker: the health machine with
// SuspectAfter = DownAfter = threshold and RecoverAfter = 1. Closed is
// health.Healthy, open is health.Down, half-open is health.Recovering. While
// open, the resilient predictor skips the network entirely and serves
// local-model predictions, so a dead prediction service costs one connection
// timeout — not one per chunk. After the cooldown a single trial request
// probes the service; success re-closes the breaker.
type Breaker struct {
	mu       sync.Mutex
	m        health.Machine
	th       health.Thresholds
	cooldown time.Duration
	now      func() time.Time // injectable clock for deterministic tests
	trial    bool             // the half-open trial call is out
	onChange func(from, to health.State)
}

// NewBreaker builds a breaker that opens after `threshold` consecutive
// failures and probes again after `cooldown`; zero or less means the
// DefaultResilienceConfig value.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	d := DefaultResilienceConfig()
	if threshold <= 0 {
		threshold = d.BreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = d.BreakerCooldown
	}
	th := health.Thresholds{SuspectAfter: threshold, DownAfter: threshold, RecoverAfter: 1}
	return &Breaker{th: th, cooldown: cooldown, now: time.Now}
}

// SetClock overrides the time source (tests).
func (b *Breaker) SetClock(now func() time.Time) {
	b.mu.Lock()
	b.now = now
	b.mu.Unlock()
}

// SetOnChange installs a state-transition hook (metrics, logging). The hook
// runs outside the breaker's lock, after the transition takes effect, and
// must not call back into the breaker from the same goroutine chain.
func (b *Breaker) SetOnChange(fn func(from, to health.State)) {
	b.mu.Lock()
	b.onChange = fn
	b.mu.Unlock()
}

// Allow reports whether a call may proceed. In the open state it returns
// false until the cooldown elapses, then admits exactly one half-open
// trial; the caller must report the outcome via Success or Failure.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	var from, to health.State
	allow := true
	switch b.m.State() {
	case health.Down:
		from, to = b.m.Admit(b.now(), b.cooldown)
		allow = to == health.Recovering
		b.trial = allow
	case health.Recovering:
		allow = !b.trial
		b.trial = true
	}
	b.unlockAndFire(from, to)
	return allow
}

// Success records a completed call.
func (b *Breaker) Success() { b.record(true) }

// Failure records a failed call; enough consecutive failures (or any
// failed half-open trial) opens the breaker.
func (b *Breaker) Failure() { b.record(false) }

func (b *Breaker) record(ok bool) {
	b.mu.Lock()
	b.trial = false
	from, to := b.m.Observe(ok, b.now(), b.th)
	b.unlockAndFire(from, to)
}

// unlockAndFire releases b.mu, then runs the hook if the state moved.
func (b *Breaker) unlockAndFire(from, to health.State) {
	fn := b.onChange
	b.mu.Unlock()
	if from != to && fn != nil {
		fn(from, to)
	}
}

// State returns the current position.
func (b *Breaker) State() health.State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.m.State()
}
