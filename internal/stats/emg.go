package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// EMG is an exponentially modified Gaussian distribution: the sum of a
// Normal(Mu, Sigma²) and an Exponential(Lambda) random variable. The Gillis
// paper observes that serverless function communication delays on AWS
// Lambda follow this distribution (§IV-A); its n-th order statistics
// predict the maximum delay of n concurrent master→worker invocations.
type EMG struct {
	Mu     float64 // Gaussian mean
	Sigma  float64 // Gaussian standard deviation (> 0)
	Lambda float64 // exponential rate (> 0)
}

// Validate reports whether the parameters define a proper distribution.
func (e EMG) Validate() error {
	if !(e.Sigma > 0) || !(e.Lambda > 0) || math.IsNaN(e.Mu) {
		return fmt.Errorf("stats: invalid EMG parameters %+v", e)
	}
	return nil
}

// Mean returns the distribution mean.
func (e EMG) Mean() float64 { return e.Mu + 1/e.Lambda }

// Sample draws one value using rng.
func (e EMG) Sample(rng *rand.Rand) float64 {
	return e.Mu + e.Sigma*rng.NormFloat64() + rng.ExpFloat64()/e.Lambda
}

// stdNormCDF is Φ(z).
func stdNormCDF(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }

// CDF returns P(X <= x).
func (e EMG) CDF(x float64) float64 {
	u := (x - e.Mu) / e.Sigma
	v := e.Lambda * e.Sigma
	// F(x) = Φ(u) - exp(v²/2 - λ(x-μ)) Φ(u - v), evaluated carefully: the
	// exponent can be large positive while Φ(u-v) underflows, so combine in
	// log space when Φ(u-v) is tiny.
	expo := v*v/2 - e.Lambda*(x-e.Mu)
	phiShift := stdNormCDF(u - v)
	var corr float64
	if phiShift > 0 {
		l := expo + math.Log(phiShift)
		if l < -745 {
			corr = 0
		} else if l > 700 {
			corr = math.MaxFloat64 // clipped below
		} else {
			corr = math.Exp(l)
		}
	}
	f := stdNormCDF(u) - corr
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return f
}

// bracket is where every quantile's bisection starts: two ends, and their
// CDFs, none of which depends on p.
type bracket struct{ lo, hi, cdfLo, cdfHi float64 }

func (e EMG) bracket() bracket {
	lo := e.Mu - 12*e.Sigma
	hi := e.Mu + 12*e.Sigma + 40/e.Lambda
	return bracket{lo: lo, hi: hi, cdfLo: e.CDF(lo), cdfHi: e.CDF(hi)}
}

// quantile returns the p-quantile (0 < p < 1) by bisection on the CDF from
// the starting bracket b: widened until it holds p, then halved up to 100
// times.
func (e EMG) quantile(p float64, b bracket) float64 {
	if p <= 0 {
		p = 1e-12
	}
	if p >= 1 {
		p = 1 - 1e-12
	}
	lo, hi := b.lo, b.hi
	for c := b.cdfLo; c > p; c = e.CDF(lo) {
		lo -= 10 * e.Sigma
	}
	for c := b.cdfHi; c < p; c = e.CDF(hi) {
		hi += 20 / e.Lambda
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if e.CDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
		// A step is a function of the bracket alone. Once the next midpoint
		// is the one just tested, every later step tests it again and makes
		// the same assignment, so the remaining steps change nothing.
		if (lo+hi)/2 == mid {
			break
		}
	}
	return (lo + hi) / 2
}

// ExpectedMax returns E[max of n i.i.d. draws], the n-th order statistic
// mean, computed by numerically integrating the quantile function:
// E[max_n] = ∫₀¹ Q(t^(1/n)) dt.
func (e EMG) ExpectedMax(n int) float64 {
	if n <= 1 {
		return e.Mean()
	}
	const steps = 512
	inv := 1 / float64(n)
	// Composite Simpson on [eps, 1-eps].
	const eps = 1e-9
	a, b := eps, 1-eps
	h := (b - a) / steps
	start := e.bracket()
	sum := e.quantile(math.Pow(a, inv), start) + e.quantile(math.Pow(b, inv), start)
	for i := 1; i < steps; i++ {
		f := e.quantile(math.Pow(a+float64(i)*h, inv), start)
		if i%2 == 1 {
			sum += 4 * f
		} else {
			sum += 2 * f
		}
	}
	return sum * h / 3
}

// FitEMG estimates EMG parameters from samples by the method of moments.
// At least 8 samples are required.
func FitEMG(samples []float64) (EMG, error) {
	if len(samples) < 8 {
		return EMG{}, fmt.Errorf("stats: need >= 8 samples to fit EMG, got %d", len(samples))
	}
	m := Mean(samples)
	s := Std(samples)
	if s <= 0 {
		return EMG{}, fmt.Errorf("stats: degenerate samples (zero variance)")
	}
	g := Skewness(samples)
	// EMG skewness lies in (0, 2); clamp so the moment inversion stays real.
	if g < 1e-3 {
		g = 1e-3
	}
	if g > 1.95 {
		g = 1.95
	}
	c := math.Pow(g/2, 1.0/3.0)
	tau := s * c
	sigma2 := s * s * (1 - c*c)
	if sigma2 < 1e-12 {
		sigma2 = 1e-12
	}
	fit := EMG{Mu: m - tau, Sigma: math.Sqrt(sigma2), Lambda: 1 / tau}
	return fit, fit.Validate()
}
