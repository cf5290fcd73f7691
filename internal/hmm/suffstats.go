package hmm

import (
	"math"

	"cs2p/internal/mathx"
)

// suffStats are the Baum-Welch sufficient statistics of a Gaussian HMM: the
// expected initial-state counts, expected transition counts, and the zeroth/
// first/second emission moments weighted by the state posterior. One EM
// iteration is "accumulate these over sequences, then applyTo the model" —
// which is why offline Train (zero, accumulate over the whole corpus, apply)
// and the OnlineTrainer (decay the running statistics, accumulate a
// minibatch, apply) can share every line of the E- and M-step.
type suffStats struct {
	pi        []float64     // expected count of starting in state i
	trans     *mathx.Matrix // expected i->j transition counts
	gammaSum  []float64     // sum_t gamma_t(i) over all sequences
	gammaObs  []float64     // sum_t gamma_t(i) * o_t
	gammaObs2 []float64     // sum_t gamma_t(i) * o_t^2
}

func newSuffStats(n int) *suffStats {
	return &suffStats{
		pi:        make([]float64, n),
		trans:     mathx.NewMatrix(n, n),
		gammaSum:  make([]float64, n),
		gammaObs:  make([]float64, n),
		gammaObs2: make([]float64, n),
	}
}

func (s *suffStats) reset() {
	zero(s.pi)
	zero(s.trans.Data)
	zero(s.gammaSum)
	zero(s.gammaObs)
	zero(s.gammaObs2)
}

// scale multiplies every statistic by f — the exponential forgetting step of
// incremental EM (f = decay keeps that fraction of the history's weight).
func (s *suffStats) scale(f float64) {
	scaleSlice(s.pi, f)
	scaleSlice(s.trans.Data, f)
	scaleSlice(s.gammaSum, f)
	scaleSlice(s.gammaObs, f)
	scaleSlice(s.gammaObs2, f)
}

// add folds o's statistics into s.
func (s *suffStats) add(o *suffStats) {
	addSlice(s.pi, o.pi)
	addSlice(s.trans.Data, o.trans.Data)
	addSlice(s.gammaSum, o.gammaSum)
	addSlice(s.gammaObs, o.gammaObs)
	addSlice(s.gammaObs2, o.gammaObs2)
}

// applyTo is the M-step: re-estimate m's parameters from the accumulated
// statistics. States with no posterior mass keep their previous parameters
// (a starved state must not collapse to NaN), and emission variances are
// floored at varFloor.
func (s *suffStats) applyTo(m *Model, varFloor float64) {
	n := m.N()
	copy(m.Pi, s.pi)
	mathx.Normalize(m.Pi)
	copy(m.Trans.Data, s.trans.Data)
	m.Trans.NormalizeRows()
	for i := 0; i < n; i++ {
		if s.gammaSum[i] <= 0 {
			continue // keep previous parameters for a starved state
		}
		mu := s.gammaObs[i] / s.gammaSum[i]
		v := s.gammaObs2[i]/s.gammaSum[i] - mu*mu
		if v < varFloor {
			v = varFloor
		}
		m.Emit[i] = mathx.Gaussian{Mu: mu, Sigma: math.Sqrt(v)}
	}
}

func scaleSlice(xs []float64, f float64) {
	for i := range xs {
		xs[i] *= f
	}
}

func addSlice(dst, src []float64) {
	for i := range dst {
		dst[i] += src[i]
	}
}
