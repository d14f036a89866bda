package runtime

// deployOpts collects optional deployment configuration shared by the
// fork-join and pipeline deployments.
type deployOpts struct {
	// parallelism is the modeled vCPU count per function instance; 0 means
	// "unspecified": simulated compute time is not rescaled.
	parallelism int

	// Resilience options (see resilience.go). All zero values mean
	// "naive": the original fail-on-first-error fork-join behavior.
	deadlineMs float64 // per-attempt worker deadline; 0 = none
	retries    int     // retry budget per worker call (and per query)
	backoffMs  float64 // initial retry backoff, doubled per attempt
	hedgePctl  float64 // hedge past this observed latency percentile; 0 = off
	fallback   bool    // master-local fallback for failed DimNone groups
}

// resilient reports whether any resilience option deviates from the naive
// fork-join path.
func (o deployOpts) resilient() bool {
	return o.deadlineMs > 0 || o.retries > 0 || o.hedgePctl > 0 || o.fallback
}

// backoff returns the sleep before retry attempt a (a >= 1), doubling per
// attempt from the configured initial backoff.
func (o deployOpts) backoff(a int) float64 {
	if o.backoffMs <= 0 || a <= 0 {
		return 0
	}
	return o.backoffMs * float64(int64(1)<<uint(a-1))
}

// WithDeadline bounds every worker invocation attempt to ms milliseconds of
// master-observed latency. An attempt that misses the deadline is abandoned
// (its billing still accrues and is reported as ExtraBilledMs) and counts as
// a failure for the retry budget.
func WithDeadline(ms float64) DeployOption {
	return func(o *deployOpts) {
		if ms > 0 {
			o.deadlineMs = ms
		}
	}
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

// WithParallelism models function instances with n vCPUs (e.g. a 1769 MB
// Lambda has 1, a 10 GB Lambda has 6): simulated compute time, in both
// execution modes, is divided by an Amdahl speedup with parallel fraction
// 0.9, approximating how much of an operator's FLOP time multi-core
// execution actually recovers. It is a statement about the virtual clock
// only. How many cores the Real-mode kernels of this process run on is a
// property of the process, like GOMAXPROCS (par.SetParallelism, set at
// start-up), and outputs are bitwise identical at any width.
func WithParallelism(n int) DeployOption {
	return func(o *deployOpts) {
		if n > 0 {
			o.parallelism = n
		}
	}
}

// parallelFraction is the Amdahl parallel fraction of kernel work used to
// scale simulated compute time: im2col, GEMM and gate matmuls parallelize,
// while padding, reassembly and dispatch do not.
const parallelFraction = 0.9

// speedup returns the modeled compute speedup of a function instance with
// the options' vCPU count (1.0 when unspecified).
func (o deployOpts) speedup() float64 {
	if o.parallelism <= 1 {
		return 1
	}
	n := float64(o.parallelism)
	return 1 / ((1 - parallelFraction) + parallelFraction/n)
}
