package hmm

import (
	"math"

	"cs2p/internal/mathx"
)

// PredictiveDistribution returns the k-step-ahead predictive distribution of
// throughput as a Gaussian mixture: weights are the advanced state
// distribution, components the emission Gaussians. This is richer than the
// paper's point prediction (Eq. 8) and powers the risk-aware controller
// extension (abr.RobustMPC with quantile predictions).
func (f *Filter) PredictiveDistribution(k int) (weights []float64, components []mathx.Gaussian) {
	dist := append([]float64(nil), f.nextEpoch()...)
	next := make([]float64, len(dist))
	for s := 1; s < k; s++ {
		f.model.Trans.VecMat(dist, next)
		dist, next = next, dist
	}
	return dist, append([]mathx.Gaussian(nil), f.model.Emit...)
}

// PredictQuantile returns the q-th quantile (0 < q < 1) of the k-step-ahead
// predictive throughput distribution, found by bisection on the mixture CDF.
// PredictQuantile(1, 0.5) is the predictive median; low q values give
// conservative throughput estimates for stall-averse bitrate control.
func (f *Filter) PredictQuantile(k int, q float64) float64 {
	if q <= 0 || q >= 1 {
		return math.NaN()
	}
	weights, comps := f.PredictiveDistribution(k)
	cdf := func(x float64) float64 {
		var s float64
		for i, w := range weights {
			if w == 0 {
				continue
			}
			s += w * comps[i].CDF(x)
		}
		return s
	}
	// Bracket the quantile across all components' +-10 sigma.
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, w := range weights {
		if w == 0 {
			continue
		}
		if l := comps[i].Mu - 10*comps[i].Sigma; l < lo {
			lo = l
		}
		if h := comps[i].Mu + 10*comps[i].Sigma; h > hi {
			hi = h
		}
	}
	if !(lo < hi) {
		return math.NaN()
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if cdf(mid) < q {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// PredictMeanVariance returns the mean and variance of the k-step-ahead
// predictive mixture (law of total variance).
func (f *Filter) PredictMeanVariance(k int) (mean, variance float64) {
	weights, comps := f.PredictiveDistribution(k)
	for i, w := range weights {
		mean += w * comps[i].Mu
	}
	for i, w := range weights {
		d := comps[i].Mu - mean
		variance += w * (comps[i].Sigma*comps[i].Sigma + d*d)
	}
	return mean, variance
}
