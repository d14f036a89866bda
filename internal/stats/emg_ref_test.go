package stats_test

import (
	"math"
	"math/rand"
	"testing"

	"gillis/internal/par"
	"gillis/internal/platform"
	"gillis/internal/stats"
)

// refQuantile and refExpectedMax state EMG.Quantile and EMG.ExpectedMax
// without their shortcuts: every quantile brackets p from scratch and runs
// all 100 bisection steps, and the nodes are computed one after another.
// The planner's prices, and through them the pinned plans and replays,
// depend on the exact float64 these return.
func refQuantile(e stats.EMG, p float64) float64 {
	if p <= 0 {
		p = 1e-12
	}
	if p >= 1 {
		p = 1 - 1e-12
	}
	lo := e.Mu - 12*e.Sigma
	hi := e.Mu + 12*e.Sigma + 40/e.Lambda
	for e.CDF(lo) > p {
		lo -= 10 * e.Sigma
	}
	for e.CDF(hi) < p {
		hi += 20 / e.Lambda
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if e.CDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

func refExpectedMax(e stats.EMG, n int) float64 {
	if n <= 1 {
		return e.Mean()
	}
	const steps = 512
	inv := 1 / float64(n)
	f := func(t float64) float64 { return refQuantile(e, math.Pow(t, inv)) }
	// Composite Simpson on [eps, 1-eps].
	const eps = 1e-9
	a, b := eps, 1-eps
	h := (b - a) / steps
	sum := f(a) + f(b)
	for i := 1; i < steps; i++ {
		x := a + float64(i)*h
		if i%2 == 1 {
			sum += 4 * f(x)
		} else {
			sum += 2 * f(x)
		}
	}
	return sum * h / 3
}

// referenceFits are the distributions the planner integrates: each
// platform's true overhead, and seeded method-of-moments fits to 16–256 of
// its draws (what profile.ProfileComm fits), rescaled as perf.WithPriors
// rescales a model by a factor from 0.25 to 4.
func referenceFits(t *testing.T, fits int) []stats.EMG {
	profiles := []stats.EMG{
		platform.AWSLambda().InvokeOverhead,
		platform.GoogleCloudFunctions().InvokeOverhead,
		platform.KNIX().InvokeOverhead,
	}
	out := append([]stats.EMG(nil), profiles...)
	rng := rand.New(rand.NewSource(37))
	for len(out) < fits {
		truth := profiles[rng.Intn(len(profiles))]
		xs := make([]float64, 16+rng.Intn(241))
		for i := range xs {
			xs[i] = truth.Sample(rng)
		}
		fit, err := stats.FitEMG(xs)
		if err != nil {
			t.Fatal(err)
		}
		s := 0.25 * math.Pow(16, rng.Float64())
		out = append(out, stats.EMG{Mu: fit.Mu * s, Sigma: fit.Sigma * s, Lambda: fit.Lambda / s})
	}
	return out
}

// TestExpectedMaxMatchesReference pins EMG.ExpectedMax and EMG.Quantile to
// the float64 bits of refExpectedMax and refQuantile: ExpectedMax on every
// fit at the fan-outs a plan prices, at parallelism 1 to 4; Quantile at
// random p, at the clamps, at p so small that the bracket widens, and at the
// p whose quantile is near zero, where the bisection needs all 100 steps.
func TestExpectedMaxMatchesReference(t *testing.T) {
	fits := referenceFits(t, 24)
	for k, e := range fits {
		for _, n := range []int{2, 3, 4, 7, 8, 15, 16, 32} {
			want := refExpectedMax(e, n)
			// Every fit runs at one parallelism level, the platform profiles
			// at all four.
			levels := []int{1 + k%4}
			if k < 3 {
				levels = []int{1, 2, 3, 4}
			}
			for _, p := range levels {
				restore := par.SetParallelism(p)
				got := e.ExpectedMax(n)
				restore()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%+v ExpectedMax(%d) at parallelism %d = %v (%#x), reference %v (%#x)",
						e, n, p, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(41))
	checks := 0
	check := func(e stats.EMG, p float64) {
		checks++
		got, want := e.Quantile(p), refQuantile(e, p)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%+v Quantile(%v) = %v (%#x), reference %v (%#x)",
				e, p, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, e := range fits {
		for _, p := range []float64{math.Inf(-1), -1, 0, 1e-12, 0.5, 1 - 1e-12, 1 - 1e-16, 1, 2, math.Inf(1), math.NaN()} {
			check(e, p)
		}
		for _, p := range []float64{1e-40, 1e-100, 1e-300, 5e-324} {
			check(e, p)
		}
		if p0 := e.CDF(0); p0 > 0 && p0 < 1 {
			for _, p := range []float64{p0, math.Nextafter(p0, 0), math.Nextafter(p0, 1)} {
				check(e, p)
			}
		}
		for i := 0; i < 400; i++ {
			check(e, rng.Float64())
			check(e, 1-math.Pow(10, -16*rng.Float64()))
			check(e, math.Pow(10, -320*rng.Float64()))
		}
	}
	t.Logf("%d fits, %d quantiles", len(fits), checks)
}
