package runtime

// deployOpts collects the optional configuration of a fork-join deployment.
type deployOpts struct {
	// Resilience options (see resilience.go). All zero values mean
	// "naive": the original fail-on-first-error fork-join behavior.
	retries   int     // retry budget per worker call (and per query)
	backoffMs float64 // initial retry backoff, doubled per attempt
	hedgePctl float64 // hedge past this observed latency percentile; 0 = off
	fallback  bool    // master-local fallback for failed DimNone groups
}

// resilient reports whether any resilience option deviates from the naive
// fork-join path.
func (o deployOpts) resilient() bool {
	return o.retries > 0 || o.hedgePctl > 0 || o.fallback
}

// backoff returns the sleep before retry attempt a (a >= 1), doubling per
// attempt from the configured initial backoff.
func (o deployOpts) backoff(a int) float64 {
	if o.backoffMs <= 0 || a <= 0 {
		return 0
	}
	return o.backoffMs * float64(int64(1)<<uint(a-1))
}

// WithRetries grants every worker call (and the client's master invocation)
// a budget of n retries with exponential backoff starting at initialBackoffMs
// and doubling per attempt. Retried work is recomputed from the same inputs,
// so Real-mode outputs stay bitwise identical to the fault-free run.
func WithRetries(n int, initialBackoffMs float64) DeployOption {
	return func(o *deployOpts) {
		if n > 0 {
			o.retries = n
			o.backoffMs = initialBackoffMs
		}
	}
}

// WithHedging launches a backup invocation for a worker whose attempt
// exceeds the pctl-th percentile of that group's observed latencies
// (first response wins; the loser's billing is reported as ExtraBilledMs).
// Hedging activates only after a group has accumulated enough latency
// samples (see minHedgeSamples).
func WithHedging(pctl float64) DeployOption {
	return func(o *deployOpts) {
		if pctl > 0 && pctl < 100 {
			o.hedgePctl = pctl
		}
	}
}

// WithMasterFallback enables graceful degradation for DimNone groups served
// by a remote worker: if the worker call fails past the retry budget, the
// master fetches the group's weights from object storage and executes the
// group locally instead of failing the query.
func WithMasterFallback() DeployOption {
	return func(o *deployOpts) { o.fallback = true }
}

// DeployOption configures a deployment.
type DeployOption func(*deployOpts)
