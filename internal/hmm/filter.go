package hmm

import (
	"fmt"
	"math"

	"cs2p/internal/mathx"
)

// PredictionRule selects how the filter turns a state distribution into a
// throughput estimate.
type PredictionRule int

const (
	// PredictMLE is the paper's rule (Eq. 8): report the mean of the most
	// likely state.
	PredictMLE PredictionRule = iota
	// PredictMean reports the posterior-weighted mean, an ablation
	// variant (BenchmarkAblationHMMPredictionRule).
	PredictMean
)

// Filter runs the paper's Algorithm 1 online: it tracks the hidden-state
// posterior pi_{t|t}, predicts the next epoch's throughput before each chunk
// request, and updates on each measured throughput. It is not safe for
// concurrent use; each video session owns one Filter.
type Filter struct {
	model   *Model
	rule    PredictionRule
	post    []float64 // pi_{t|t}: posterior after the last observation
	started bool      // false until the first Observe
	// prior is pi_{t+1|t} = pi_{t|t} P, pushed once at the end of every
	// Observe (and by Restore): the one-step prediction reads it, a k-step
	// one starts from it, and the next Observe takes it as its prior. It
	// means nothing until the filter has started.
	prior []float64
	// logSigma[i] is ln(sigma_i), hoisted out of the per-epoch emission
	// density. It lives per filter, not per model, because training
	// rewrites Model.Emit in place.
	logSigma []float64
	// dist/next are the k-step push buffers PredictAhead works in. They are
	// preallocated once per filter (i.e. once per session) so the serving
	// hot path — one PredictAhead per chunk — allocates nothing. Both are
	// scratch: no state survives in them between calls.
	dist, next []float64
}

// NewFilter creates a filter with the posterior initialized to the model's
// pi_0 (Algorithm 1 line 4). Every vector the filter owns is carved out of
// one backing array, so a filter costs two allocations.
func NewFilter(m *Model) *Filter {
	n := m.N()
	buf := make([]float64, 5*n)
	carve := func() []float64 {
		s := buf[:n:n]
		buf = buf[n:]
		return s
	}
	f := &Filter{model: m, rule: PredictMLE, post: carve(), prior: carve(), logSigma: carve(), dist: carve(), next: carve()}
	copy(f.post, m.Pi)
	for i, g := range m.Emit {
		f.logSigma[i] = math.Log(g.Sigma)
	}
	return f
}

// SetRule switches the prediction rule (default PredictMLE).
func (f *Filter) SetRule(r PredictionRule) { f.rule = r }

// Model returns the underlying model.
func (f *Filter) Model() *Model { return f.model }

// Posterior returns a copy of the current state posterior.
func (f *Filter) Posterior() []float64 { return f.AppendPosterior(nil) }

// AppendPosterior appends the current state posterior to dst — the
// allocation-free copy for callers that recycle a buffer.
func (f *Filter) AppendPosterior(dst []float64) []float64 { return append(dst, f.post...) }

// Started reports whether at least one observation has been absorbed.
func (f *Filter) Started() bool { return f.started }

// PosteriorEntropyBits returns the Shannon entropy of the current state
// posterior in bits: 0 when the filter is certain of the hidden state,
// log2(N) when it knows nothing. The telemetry pipeline tracks it per epoch
// as a confidence signal — entropy spikes flag sessions whose throughput the
// cluster model does not explain (the populations §5.1's clustering missed).
func (f *Filter) PosteriorEntropyBits() float64 {
	var h float64
	for _, p := range f.post {
		if p > 0 {
			h -= p * math.Log2(p)
		}
	}
	return h
}

// Predict estimates the next epoch's throughput. Before any observation the
// state distribution is pi_0 itself; afterwards it is the one-step push
// pi_{t|t-1} = pi_{t-1|t-1} P (Algorithm 1 lines 7-8). Predict never changes
// the posterior (only private scratch), but like every Filter method it is
// not safe for concurrent use.
func (f *Filter) Predict() float64 {
	return f.PredictAhead(1)
}

// PredictAhead estimates the throughput k epochs ahead (k >= 1). Figure 9c
// evaluates horizons up to 10. The one-step prediction reads the next
// epoch's distribution with no matrix work; k-1 extra transition steps run
// in the filter's preallocated scratch, so the per-chunk serving path
// allocates nothing here.
func (f *Filter) PredictAhead(k int) float64 {
	dist := f.nextEpoch()
	if k > 1 {
		cur, next := f.dist, f.next
		copy(cur, dist)
		for s := 1; s < k; s++ {
			f.model.Trans.VecMat(cur, next)
			cur, next = next, cur
		}
		dist = cur
	}
	return f.estimate(dist)
}

// nextEpoch returns the next epoch's state distribution, for reading only:
// pi_0 itself before the first observation, the pushed prior afterwards.
func (f *Filter) nextEpoch() []float64 {
	if f.started {
		return f.prior
	}
	return f.post
}

// estimate applies the prediction rule to a state distribution.
func (f *Filter) estimate(dist []float64) float64 {
	switch f.rule {
	case PredictMean:
		var s float64
		for i, p := range dist {
			s += p * f.model.Emit[i].Mu
		}
		return s
	default:
		return f.model.Emit[mathx.ArgMax(dist)].Mu
	}
}

// Observe absorbs the measured throughput of the epoch that just finished
// (Algorithm 1 lines 11-12): advance the posterior one transition step
// (except for the very first observation, which pi_0 already describes) and
// reweight by the Gaussian emission likelihood e(w). The transition step is
// the prior the previous Observe already pushed; this one ends by pushing
// the next. The density is emissionPDF's, bit for bit, with ln(sigma)
// hoisted (the model must be valid: every sigma > 0).
func (f *Filter) Observe(w float64) {
	if f.started {
		copy(f.post, f.prior)
	}
	f.started = true
	for i := range f.post {
		g := f.model.Emit[i]
		f.post[i] *= floorEmission(math.Exp(mathx.NormalLogDensity((w-g.Mu)/g.Sigma, f.logSigma[i])))
	}
	mathx.Normalize(f.post)
	f.model.Trans.VecMat(f.post, f.prior)
}

// Reset returns the filter to its initial state for reuse across sessions.
// The prior needs no clearing: an unstarted filter never reads it.
func (f *Filter) Reset() {
	copy(f.post, f.model.Pi)
	f.started = false
}

// FilterState is the complete mutable state of a Filter: the posterior
// vector pi_{t|t} and whether any observation has been absorbed. Everything
// else in a Filter (model, rule, scratch buffers) is either immutable, carries
// no state between calls, or — the pushed prior — is a function of the
// posterior that Restore recomputes, so restoring a FilterState into a fresh
// filter over the same model reproduces the original filter exactly — every
// subsequent Predict/Observe is bit-identical. This is what makes warm
// session handoff between replicas exact rather than a replay approximation.
type FilterState struct {
	Posterior []float64 `json:"posterior"`
	Started   bool      `json:"started"`
}

// Snapshot captures the filter's exact state. The returned posterior is a
// copy; the filter can keep running.
func (f *Filter) Snapshot() FilterState {
	return FilterState{
		Posterior: append([]float64(nil), f.post...),
		Started:   f.started,
	}
}

// Restore replaces the filter's state with a snapshot taken from a filter
// over the same model. The posterior is validated (length matches the state
// count, entries finite and non-negative, mass positive) but deliberately
// NOT renormalized: the bytes that come out of Snapshot go back in
// untouched, preserving bit-identity across the transfer.
func (f *Filter) Restore(st FilterState) error {
	if len(st.Posterior) != f.model.N() {
		return fmt.Errorf("hmm: restore: posterior has %d states, model has %d", len(st.Posterior), f.model.N())
	}
	var sum float64
	for i, p := range st.Posterior {
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
			return fmt.Errorf("hmm: restore: posterior[%d] = %v is not a probability", i, p)
		}
		sum += p
	}
	if sum <= 0 {
		return fmt.Errorf("hmm: restore: posterior carries no probability mass")
	}
	copy(f.post, st.Posterior)
	f.started = st.Started
	if f.started {
		f.model.Trans.VecMat(f.post, f.prior)
	}
	return nil
}

// PredictSeries replays an observation sequence through a fresh filter and
// returns the 1-step-ahead prediction made before each observation. The
// first entry corresponds to predicting obs[0] from pi_0 (the engine
// substitutes the cluster median for that initial epoch; callers that want
// the paper's exact pipeline should ignore index 0 or overwrite it).
func (m *Model) PredictSeries(obs []float64) []float64 {
	f := NewFilter(m)
	preds := make([]float64, len(obs))
	for i, w := range obs {
		preds[i] = f.Predict()
		f.Observe(w)
	}
	return preds
}
