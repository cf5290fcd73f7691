// Package hmm implements the Gaussian-emission hidden Markov model at the
// heart of CS2P's midstream throughput predictor (paper §5.2).
//
// The model is exactly the paper's: a discrete hidden state X_t evolving as a
// first-order Markov chain with transition matrix P, and a throughput
// observation W_t | X_t = x ~ N(mu_x, sigma_x^2) (Eq. 5). Training is
// multi-sequence Baum-Welch EM with Rabiner scaling; online prediction is the
// filter of the paper's Algorithm 1.
package hmm

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"cs2p/internal/mathx"
)

// Model is a trained Gaussian HMM. All fields are exported for JSON
// round-tripping; mutate through the training code only.
type Model struct {
	// Pi is the initial state distribution pi_0.
	Pi []float64 `json:"pi"`
	// Trans is the row-stochastic transition matrix P, Trans[i][j] =
	// P(X_t = j | X_{t-1} = i).
	Trans *mathx.Matrix `json:"trans"`
	// Emit holds the per-state Gaussian emission distributions.
	Emit []mathx.Gaussian `json:"emit"`
}

// N returns the number of hidden states.
func (m *Model) N() int { return len(m.Pi) }

// Validate checks the structural invariants: matching dimensions, a
// stochastic Pi and Trans, and strictly positive emission variances.
func (m *Model) Validate() error {
	n := m.N()
	if n == 0 {
		return fmt.Errorf("hmm: model has no states")
	}
	if m.Trans == nil || m.Trans.Rows != n || m.Trans.Cols != n || len(m.Trans.Data) != n*n {
		return fmt.Errorf("hmm: transition matrix shape mismatch")
	}
	if len(m.Emit) != n {
		return fmt.Errorf("hmm: %d emissions for %d states", len(m.Emit), n)
	}
	var sum float64
	for _, p := range m.Pi {
		if p < -1e-9 || math.IsNaN(p) {
			return fmt.Errorf("hmm: invalid pi entry %v", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("hmm: pi sums to %v, want 1", sum)
	}
	if !m.Trans.IsRowStochastic(1e-6) {
		return fmt.Errorf("hmm: transition matrix is not row-stochastic")
	}
	for i, e := range m.Emit {
		if e.Sigma <= 0 || math.IsNaN(e.Sigma) || math.IsNaN(e.Mu) {
			return fmt.Errorf("hmm: state %d has invalid emission N(%v, %v^2)", i, e.Mu, e.Sigma)
		}
	}
	return nil
}

// Clone returns a deep copy of the model.
func (m *Model) Clone() *Model {
	c := &Model{
		Pi:    append([]float64(nil), m.Pi...),
		Trans: m.Trans.Clone(),
		Emit:  append([]mathx.Gaussian(nil), m.Emit...),
	}
	return c
}

// MarshalJSON / UnmarshalJSON use the default struct encoding; they exist so
// the wire format is an explicit, tested contract (the paper ships models to
// players, §5.3, and reports them at <5 KB).
func (m *Model) MarshalJSON() ([]byte, error) {
	type alias Model
	return json.Marshal((*alias)(m))
}

// UnmarshalJSON decodes and validates the model.
func (m *Model) UnmarshalJSON(data []byte) error {
	type alias Model
	if err := json.Unmarshal(data, (*alias)(m)); err != nil {
		return err
	}
	return m.Validate()
}

// SizeBytes returns the length of the model's JSON encoding, the quantity the
// paper bounds at 5 KB per cluster model.
func (m *Model) SizeBytes() int {
	b, err := json.Marshal(m)
	if err != nil {
		return 0
	}
	return len(b)
}

// Sample generates a state path and observation sequence of length T.
// It is used by the synthetic trace generator (the ground-truth clusters own
// HMMs) and by the EM recovery tests.
func (m *Model) Sample(r *rand.Rand, t int) (states []int, obs []float64) {
	states = make([]int, t)
	obs = make([]float64, t)
	if t == 0 {
		return states, obs
	}
	states[0] = sampleCategorical(r, m.Pi)
	obs[0] = m.Emit[states[0]].Sample(r.NormFloat64())
	for i := 1; i < t; i++ {
		states[i] = sampleCategorical(r, m.Trans.Row(states[i-1]))
		obs[i] = m.Emit[states[i]].Sample(r.NormFloat64())
	}
	return states, obs
}

// sampleCategorical draws an index proportional to the (non-negative)
// weights. Falls back to the last index on floating-point shortfall.
func sampleCategorical(r *rand.Rand, weights []float64) int {
	u := r.Float64() * mathx.Sum(weights)
	var acc float64
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// LogLikelihood returns the log probability of the observation sequence
// under the model, computed with the scaled forward recursion.
func (m *Model) LogLikelihood(obs []float64) float64 {
	if len(obs) == 0 {
		return 0
	}
	_, logLik := m.forward(obs, nil)
	return logLik
}

// forward runs the scaled forward pass. alphas, if non-nil, must be a
// len(obs) x N matrix that receives the scaled alpha values; the returned
// scales slice has the per-step normalizers c_t. logLik = sum log c_t.
func (m *Model) forward(obs []float64, alphas *mathx.Matrix) (scales []float64, logLik float64) {
	n := m.N()
	t := len(obs)
	scales = make([]float64, t)
	cur := make([]float64, n)
	// t = 0: alpha_0(i) = pi_i * b_i(o_0).
	for i := 0; i < n; i++ {
		cur[i] = m.Pi[i] * emissionPDF(m.Emit[i], obs[0])
	}
	scales[0] = scaleStep(cur)
	logLik = math.Log(scales[0])
	if alphas != nil {
		copy(alphas.Row(0), cur)
	}
	next := make([]float64, n)
	for k := 1; k < t; k++ {
		m.Trans.VecMat(cur, next)
		for j := 0; j < n; j++ {
			next[j] *= emissionPDF(m.Emit[j], obs[k])
		}
		scales[k] = scaleStep(next)
		logLik += math.Log(scales[k])
		if alphas != nil {
			copy(alphas.Row(k), next)
		}
		cur, next = next, cur
	}
	return scales, logLik
}

// backward runs the scaled backward pass using the forward scales, filling
// betas (len(obs) x N).
func (m *Model) backward(obs []float64, scales []float64, betas *mathx.Matrix) {
	n := m.N()
	t := len(obs)
	last := betas.Row(t - 1)
	for i := range last {
		last[i] = 1 / scales[t-1]
	}
	tmp := make([]float64, n)
	for k := t - 2; k >= 0; k-- {
		nextRow := betas.Row(k + 1)
		for j := 0; j < n; j++ {
			tmp[j] = emissionPDF(m.Emit[j], obs[k+1]) * nextRow[j]
		}
		row := betas.Row(k)
		m.Trans.MatVec(tmp, row)
		for i := range row {
			row[i] /= scales[k]
		}
	}
}

// emissionFloor keeps the scaled recursions away from exact zeros when an
// observation is far outside every state (e.g. a throughput spike the
// training data never saw).
const emissionFloor = 1e-290

// emissionPDF evaluates the state's Gaussian density with the shared floor.
func emissionPDF(g mathx.Gaussian, x float64) float64 { return floorEmission(g.PDF(x)) }

// floorEmission raises a density (NaN included) to emissionFloor.
func floorEmission(p float64) float64 {
	if p < emissionFloor || math.IsNaN(p) {
		return emissionFloor
	}
	return p
}

// scaleStep normalizes xs to sum to 1 and returns the pre-normalization sum
// (the Rabiner scale c_t). A zero-sum vector becomes uniform with a floor
// scale, letting the recursion continue after a pathological observation.
func scaleStep(xs []float64) float64 {
	s := mathx.Sum(xs)
	if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		u := 1 / float64(len(xs))
		for i := range xs {
			xs[i] = u
		}
		return 1e-290
	}
	for i := range xs {
		xs[i] /= s
	}
	return s
}

// Viterbi returns the most likely hidden-state path for the observations.
// Used to segment example sessions into states (paper Figure 4a).
func (m *Model) Viterbi(obs []float64) []int {
	n := m.N()
	t := len(obs)
	if t == 0 {
		return nil
	}
	logTrans := make([][]float64, n)
	for i := 0; i < n; i++ {
		logTrans[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			logTrans[i][j] = safeLog(m.Trans.At(i, j))
		}
	}
	delta := make([]float64, n)
	for i := 0; i < n; i++ {
		delta[i] = safeLog(m.Pi[i]) + m.Emit[i].LogPDF(obs[0])
	}
	back := make([][]int, t)
	next := make([]float64, n)
	for k := 1; k < t; k++ {
		back[k] = make([]int, n)
		for j := 0; j < n; j++ {
			best, bestI := math.Inf(-1), 0
			for i := 0; i < n; i++ {
				v := delta[i] + logTrans[i][j]
				if v > best {
					best, bestI = v, i
				}
			}
			next[j] = best + m.Emit[j].LogPDF(obs[k])
			back[k][j] = bestI
		}
		copy(delta, next)
	}
	path := make([]int, t)
	path[t-1] = mathx.ArgMax(delta)
	for k := t - 1; k > 0; k-- {
		path[k-1] = back[k][path[k]]
	}
	return path
}

func safeLog(x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	return math.Log(x)
}

// StationaryDistribution approximates the chain's stationary distribution by
// power iteration from Pi. Useful for long-horizon prediction analysis.
func (m *Model) StationaryDistribution(iters int) []float64 {
	cur := append([]float64(nil), m.Pi...)
	next := make([]float64, m.N())
	for i := 0; i < iters; i++ {
		m.Trans.VecMat(cur, next)
		cur, next = next, cur
	}
	mathx.Normalize(cur)
	return cur
}
