package httpapi

import (
	"context"
	"math"
	"math/rand"
	"time"

	"cs2p/internal/engine"
	"cs2p/internal/obs"
	"cs2p/internal/trace"
)

// ResilienceConfig tunes the fault-tolerant client.
type ResilienceConfig struct {
	// Retry shapes backoff for idempotent calls (start, horizon queries,
	// model fetch).
	Retry RetryPolicy
	// BreakerThreshold is the consecutive-failure count that opens the
	// circuit (<= 0 takes DefaultResilienceConfig's).
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before probing
	// again (<= 0 takes DefaultResilienceConfig's).
	BreakerCooldown time.Duration
	// DisableLocalFallback skips fetching the §5.3 decentralized model at
	// session start; without it, remote failures degrade to NaN like the
	// plain SessionPredictor, and a resync restarts the server-side session
	// from the cluster prior (no mirror state to push).
	DisableLocalFallback bool
	// Seed makes the retry jitter deterministic (tests, chaos harness).
	Seed int64
	// Sleep is the backoff sleeper (default time.Sleep; tests inject a
	// no-op).
	Sleep func(time.Duration)
	// Metrics, when set, mirrors the ResilienceStats counters and circuit
	// breaker transitions onto the registry (cs2p_client_* series) so a
	// player fleet can be scraped live.
	Metrics *obs.Registry
}

// DefaultResilienceConfig returns player-shaped defaults.
func DefaultResilienceConfig() ResilienceConfig {
	return ResilienceConfig{
		Retry:            DefaultRetryPolicy(),
		BreakerThreshold: 3,
		BreakerCooldown:  2 * time.Second,
		Seed:             1,
	}
}

// ResilienceStats counts what the degradation ladder actually did, so the
// chaos harness can assert coverage ("≥90% of chunks got a non-NaN
// prediction") instead of guessing.
type ResilienceStats struct {
	// Observations counts Observe calls (one per chunk).
	Observations int
	// RemoteOK counts observations answered by the server.
	RemoteOK int
	// RemoteFailures counts failed remote observe round trips.
	RemoteFailures int
	// Retries counts extra attempts spent on idempotent calls.
	Retries int
	// Reregistrations counts resyncs: attempts to put the server-side
	// session back in step (state push, or a fresh start) after a 404 or a
	// failed or skipped observe.
	Reregistrations int
	// LocalFallbacks counts predictions served by the local §5.3 model.
	LocalFallbacks int
	// NaNPredictions counts observations that left no usable prediction
	// (remote down and no local model).
	NaNPredictions int
	// BreakerFastFails counts calls skipped because the circuit was open.
	BreakerFastFails int
}

// PredictionAPI is the remote surface the resilient predictor rides: the
// five calls of the degradation ladder. *Client implements it over HTTP;
// tests and embedded deployments can supply an in-process implementation,
// so the ladder's logic is exercised without a network stack.
type PredictionAPI interface {
	StartSession(id string, f trace.Features, startUnix int64) (engine.StartResponse, error)
	ObserveAndPredict(id string, observedMbps float64, horizon int) (float64, error)
	PredictAt(id string, horizon int) (float64, error)
	FetchLocalPredictor(f trace.Features) (*LocalPredictor, error)
	ImportSession(ctx context.Context, st engine.SessionState) error
}

var _ PredictionAPI = (*Client)(nil)

// ResilientSessionPredictor implements predict.Midstream over a
// PredictionAPI with the full degradation ladder of DESIGN.md §8:
// remote call → (idempotent-only) retry → resync by pushing the local
// mirror's exact state → circuit breaker → local cluster-model fallback.
// Playback keeps getting real predictions through server restarts and
// network loss; only with no local model does it degrade to NaN (the
// player's own heuristic). Not safe for concurrent use, like every other
// predict.Midstream.
type ResilientSessionPredictor struct {
	c         PredictionAPI
	id        string
	features  trace.Features
	startUnix int64
	cfg       ResilienceConfig
	breaker   *Breaker
	rng       *rand.Rand
	local     *LocalPredictor // nil when fetch failed or disabled
	lastPred  float64
	started   bool
	// desync marks the server-side filter as diverged from the observation
	// stream (a failed observe may or may not have reached it; a skipped
	// one never did). While set, remote predictions are untrusted; the next
	// admitted Observe resyncs before anything else.
	desync bool
	stats  ResilienceStats
	cm     clientMetrics
}

// NewResilientPredictor opens the session (with retries) over any
// PredictionAPI and fetches the decentralized cluster model for failover.
// A failed model fetch is tolerated: the predictor still works, it just
// cannot serve local predictions when the remote service is down.
func NewResilientPredictor(api PredictionAPI, id string, f trace.Features, startUnix int64, cfg ResilienceConfig) (*ResilientSessionPredictor, error) {
	p := &ResilientSessionPredictor{
		c:         api,
		id:        id,
		features:  f,
		startUnix: startUnix,
		cfg:       cfg,
		breaker:   NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		lastPred:  math.NaN(),
		cm:        newClientMetrics(cfg.Metrics),
	}
	if cfg.Metrics != nil {
		p.breaker.SetOnChange(p.cm.breakerTransition)
	}
	var resp engine.StartResponse
	if err := p.retried(func() (err error) { resp, err = api.StartSession(id, f, startUnix); return err }); err != nil {
		return nil, err
	}
	p.lastPred = resp.InitialPredictionMbps
	if !cfg.DisableLocalFallback {
		// A failed fetch leaves the predictor degraded but functional; stats
		// show local == nil via LocalFallbacks staying 0 and NaNPredictions
		// rising.
		_ = p.retried(func() error {
			lp, err := api.FetchLocalPredictor(f)
			if err == nil {
				p.local = lp
			}
			return err
		})
	}
	return p, nil
}

// retried runs an idempotent call under the retry policy, counting the
// extra attempts in both the stats snapshot and the scraped mirror.
func (p *ResilientSessionPredictor) retried(call func() error) error {
	retries, err := withRetry(p.cfg.Retry, p.rng, p.cfg.Sleep, call)
	p.stats.Retries += retries
	p.cm.retries.Add(retries)
	return err
}

// Breaker exposes the circuit breaker (tests, metrics).
func (p *ResilientSessionPredictor) Breaker() *Breaker { return p.breaker }

// HasLocalFallback reports whether the §5.3 model was fetched.
func (p *ResilientSessionPredictor) HasLocalFallback() bool { return p.local != nil }

// Stats returns a copy of the resilience counters.
func (p *ResilientSessionPredictor) Stats() ResilienceStats { return p.stats }

// Predict implements predict.Midstream.
func (p *ResilientSessionPredictor) Predict() float64 { return p.lastPred }

// PredictAhead implements predict.Midstream. Horizon queries are
// idempotent, so they retry; when the remote is unavailable the local
// model answers, and the last known prediction is the final fallback.
func (p *ResilientSessionPredictor) PredictAhead(k int) float64 {
	if k <= 1 || !p.started {
		return p.lastPred
	}
	switch {
	case p.desync:
		// The server's filter missed observations; its horizon estimates
		// are stale until the next resync. The local mirror has the full
		// observation stream, so it is the better source.
	case p.breaker.Allow():
		var pred float64
		err := p.retried(func() (err error) { pred, err = p.c.PredictAt(p.id, k); return err })
		if err == nil {
			p.breaker.Success()
			return pred
		}
		p.breaker.Failure()
	default:
		p.stats.BreakerFastFails++
		p.cm.fastFails.Inc()
	}
	if p.local != nil {
		p.localFallback()
		return p.local.PredictAhead(k)
	}
	return p.lastPred
}

// localFallback counts one prediction served by the local §5.3 model.
func (p *ResilientSessionPredictor) localFallback() {
	p.stats.LocalFallbacks++
	p.cm.localFallbacks.Inc()
}

// Observe implements predict.Midstream: report the measured throughput and
// refresh the next-epoch prediction, riding the degradation ladder when
// the remote call fails.
func (p *ResilientSessionPredictor) Observe(w float64) {
	p.stats.Observations++
	p.cm.observations.Inc()
	p.started = true
	if p.local != nil {
		// Mirror every observation into the local filter: it is both the
		// fallback predictor and the exact state a resync pushes.
		p.local.Observe(w)
	}
	if !p.breaker.Allow() {
		p.stats.BreakerFastFails++
		p.cm.fastFails.Inc()
		// The server never sees this sample, so its filter is now behind.
		p.desync = true
		p.fallback()
		return
	}
	if !p.desync {
		pred, err := p.c.ObserveAndPredict(p.id, w, 1)
		if err == nil {
			p.breaker.Success()
			p.stats.RemoteOK++
			p.cm.remoteOK.Inc()
			p.lastPred = pred
			return
		}
		p.stats.RemoteFailures++
		p.cm.remoteFailures.Inc()
		// A 404 means the server lost the session (restart, GC). Any other
		// failure leaves the server's filter in an unknown state: a dropped
		// request never delivered the observation, a truncated response
		// delivered it but lost the answer. Either way its posterior can no
		// longer be trusted to match the observation stream.
		p.desync = true
	}
	if pred, ok := p.resync(w); ok {
		p.desync = false
		p.breaker.Success()
		p.stats.RemoteOK++
		p.cm.remoteOK.Inc()
		p.lastPred = pred
		return
	}
	p.breaker.Failure()
	p.fallback()
}

// resync puts the server-side session back in step with the observation
// stream, w (already mirrored) included, and returns the server's next-epoch
// prediction. The mirror's state is pushed as is: ImportSession replaces
// whatever the server holds, so neither a half-applied observe nor a retried
// push can double-count, and the server continues bit for bit where an
// undisturbed session would be. A refused state (the model moved on) or no
// mirror takes the one cold path: a fresh StartSession, then w sent once.
func (p *ResilientSessionPredictor) resync(w float64) (float64, bool) {
	p.stats.Reregistrations++
	p.cm.rereg.Inc()
	if p.local != nil {
		err := p.retried(func() error {
			return p.c.ImportSession(context.TODO(), p.local.SessionState(p.id, p.features, p.startUnix))
		})
		if err == nil {
			var pred float64
			err = p.retried(func() (err error) { pred, err = p.c.PredictAt(p.id, 1); return err })
			return pred, err == nil
		}
		if !Refused(err) {
			return 0, false
		}
	}
	if p.retried(func() error { _, err := p.c.StartSession(p.id, p.features, p.startUnix); return err }) != nil {
		return 0, false
	}
	// Not blind-retried: the fresh filter absorbs w exactly once, or the
	// session stays desynced and the next resync starts it over.
	pred, err := p.c.ObserveAndPredict(p.id, w, 1)
	return pred, err == nil
}

// fallback serves the prediction from the local §5.3 model, or NaN when
// none is available (the bottom of the ladder: the player's heuristic).
func (p *ResilientSessionPredictor) fallback() {
	if p.local != nil {
		p.localFallback()
		p.lastPred = p.local.Predict()
	} else {
		p.lastPred = math.NaN()
	}
	if math.IsNaN(p.lastPred) {
		p.stats.NaNPredictions++
		p.cm.nanPreds.Inc()
	}
}
