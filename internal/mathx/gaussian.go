package mathx

import "math"

const log2Pi = 1.8378770664093453 // ln(2*pi)

// Gaussian is a univariate normal distribution N(mu, sigma^2). It is the
// emission distribution of the CS2P hidden Markov model (paper Eq. 5).
type Gaussian struct {
	Mu    float64 `json:"mu"`
	Sigma float64 `json:"sigma"` // standard deviation, > 0
}

// PDF returns the probability density of x.
func (g Gaussian) PDF(x float64) float64 {
	return math.Exp(g.LogPDF(x))
}

// LogPDF returns the log probability density of x. A non-positive Sigma
// yields -Inf everywhere except exactly at the mean, where it yields +Inf;
// callers should floor variances before getting here (the HMM does).
func (g Gaussian) LogPDF(x float64) float64 {
	if g.Sigma <= 0 {
		if x == g.Mu {
			return math.Inf(1)
		}
		return math.Inf(-1)
	}
	return NormalLogDensity((x-g.Mu)/g.Sigma, math.Log(g.Sigma))
}

// NormalLogDensity is the log density of a normal distribution at the
// standardized point z = (x-mu)/sigma, given logSigma = ln(sigma). It is the
// one Gaussian density expression LogPDF and the HMM filter share: callers
// that hoist ln(sigma) out of a loop get LogPDF's bits exactly, because the
// terms are always summed in this order.
func NormalLogDensity(z, logSigma float64) float64 {
	return -0.5*z*z - logSigma - 0.5*log2Pi
}

// CDF returns P(X <= x).
func (g Gaussian) CDF(x float64) float64 {
	if g.Sigma <= 0 {
		if x < g.Mu {
			return 0
		}
		return 1
	}
	return 0.5 * math.Erfc(-(x-g.Mu)/(g.Sigma*math.Sqrt2))
}

// Sample draws one value using the provided standard-normal variate z,
// i.e. Mu + Sigma*z. Keeping the variate an argument keeps the type free of
// RNG plumbing and makes sampling trivially testable.
func (g Gaussian) Sample(z float64) float64 {
	return g.Mu + g.Sigma*z
}
