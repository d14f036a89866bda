package stats

// Quantile returns the p-quantile (0 < p < 1) by bisection on the CDF: the
// quantile ExpectedMax integrates, which the tests check against the CDF and
// against the full-100-step reference.
func (e EMG) Quantile(p float64) float64 { return e.quantile(p, e.bracket()) }
