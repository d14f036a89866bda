// Package bayesopt implements Bayesian optimization with a Gaussian-process
// surrogate and the expected-improvement acquisition function, following
// the Cherrypick design the paper uses as its black-box baseline (§V-C):
// the objective is modeled as a GP with an RBF kernel, iteratively refined
// by sampling the point with maximal expected improvement from a random
// candidate pool.
package bayesopt

import (
	"fmt"
	"math"
	"math/rand"
)

// Objective evaluates one configuration point (lower is better).
type Objective func(x []float64) float64

// The search's fixed settings.
const (
	// initRandom is how many points are sampled uniformly before the GP
	// takes over.
	initRandom = 8
	// candidates is the size of the random candidate pool scored by EI per
	// iteration.
	candidates = 400
	// noise is the observation noise standard deviation (normalized y).
	noise = 1e-3
)

// Result is the optimization outcome.
type Result struct {
	X     []float64
	Value float64
	Evals int
	// History records every evaluated (point, value) pair in order.
	HistoryX [][]float64
	HistoryY []float64
}

// Minimize searches the unit hypercube [0,1]^dims for the objective's
// minimum, spending iters evaluations.
func Minimize(obj Objective, dims, iters int, rng *rand.Rand) (Result, error) {
	if dims <= 0 {
		return Result{}, fmt.Errorf("bayesopt: dims must be positive")
	}
	if iters <= 0 {
		return Result{}, fmt.Errorf("bayesopt: iters must be positive")
	}
	if obj == nil {
		return Result{}, fmt.Errorf("bayesopt: nil objective")
	}
	// The RBF kernel's length scale, in normalized units.
	ls := 0.25 * math.Sqrt(float64(dims))

	var res Result
	res.Value = math.Inf(1)
	evaluate := func(x []float64) {
		y := obj(x)
		res.HistoryX = append(res.HistoryX, x)
		res.HistoryY = append(res.HistoryY, y)
		res.Evals++
		if y < res.Value {
			res.Value = y
			res.X = append([]float64(nil), x...)
		}
	}
	randPoint := func() []float64 {
		x := make([]float64, dims)
		for i := range x {
			x[i] = rng.Float64()
		}
		return x
	}

	for i := 0; i < initRandom && res.Evals < iters; i++ {
		evaluate(randPoint())
	}
	for res.Evals < iters {
		gp, err := fitGP(res.HistoryX, res.HistoryY, ls, noise)
		if err != nil {
			// Degenerate surrogate (e.g. constant objective): fall back to
			// random search for this step.
			evaluate(randPoint())
			continue
		}
		best := res.normalizedBest(gp)
		var cand []float64
		bestEI := -1.0
		for c := 0; c < candidates; c++ {
			x := randPoint()
			mu, sigma := gp.predict(x)
			ei := expectedImprovement(best, mu, sigma)
			if ei > bestEI {
				bestEI = ei
				cand = x
			}
		}
		evaluate(cand)
	}
	return res, nil
}

func (r *Result) normalizedBest(gp *gp) float64 {
	return (r.Value - gp.yMean) / gp.yStd
}

// gp is a fitted Gaussian-process surrogate over normalized targets.
type gp struct {
	x           [][]float64
	alpha       []float64
	chol        [][]float64
	ls          float64
	yMean, yStd float64
	noise       float64
}

func fitGP(xs [][]float64, ys []float64, ls, noise float64) (*gp, error) {
	n := len(xs)
	if n == 0 {
		return nil, fmt.Errorf("bayesopt: no observations")
	}
	var mean float64
	for _, y := range ys {
		mean += y
	}
	mean /= float64(n)
	var variance float64
	for _, y := range ys {
		variance += (y - mean) * (y - mean)
	}
	variance /= float64(n)
	std := math.Sqrt(variance)
	if std < 1e-12 {
		return nil, fmt.Errorf("bayesopt: degenerate observations")
	}
	g := &gp{x: xs, ls: ls, yMean: mean, yStd: std, noise: noise}

	k := make([][]float64, n)
	for i := range k {
		k[i] = make([]float64, n)
		for j := range k[i] {
			k[i][j] = rbf(xs[i], xs[j], g.ls)
		}
		k[i][i] += g.noise * g.noise
	}
	chol, err := cholesky(k)
	if err != nil {
		return nil, err
	}
	g.chol = chol
	yn := make([]float64, n)
	for i, y := range ys {
		yn[i] = (y - mean) / std
	}
	g.alpha = cholSolve(chol, yn)
	return g, nil
}

// predict returns the GP posterior mean and standard deviation at x
// (normalized target units).
func (g *gp) predict(x []float64) (mu, sigma float64) {
	n := len(g.x)
	ks := make([]float64, n)
	for i := range ks {
		ks[i] = rbf(x, g.x[i], g.ls)
	}
	for i := range ks {
		mu += ks[i] * g.alpha[i]
	}
	v := forwardSolve(g.chol, ks)
	var kss float64 = 1 // rbf(x,x)
	var vv float64
	for _, t := range v {
		vv += t * t
	}
	s2 := kss - vv
	if s2 < 1e-12 {
		s2 = 1e-12
	}
	return mu, math.Sqrt(s2)
}

// expectedImprovement for minimization with incumbent best (normalized).
func expectedImprovement(best, mu, sigma float64) float64 {
	if sigma <= 0 {
		return 0
	}
	z := (best - mu) / sigma
	return (best-mu)*stdNormCDF(z) + sigma*stdNormPDF(z)
}

func stdNormCDF(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }

func stdNormPDF(z float64) float64 { return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi) }

func rbf(a, b []float64, ls float64) float64 {
	var d2 float64
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	return math.Exp(-d2 / (2 * ls * ls))
}

// cholesky computes the lower-triangular factor of a symmetric
// positive-definite matrix.
func cholesky(a [][]float64) ([][]float64, error) {
	n := len(a)
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a[i][j]
			for k := 0; k < j; k++ {
				sum -= l[i][k] * l[j][k]
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("bayesopt: matrix not positive definite at %d", i)
				}
				l[i][i] = math.Sqrt(sum)
			} else {
				l[i][j] = sum / l[j][j]
			}
		}
	}
	return l, nil
}

// forwardSolve solves L v = b.
func forwardSolve(l [][]float64, b []float64) []float64 {
	n := len(l)
	v := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l[i][k] * v[k]
		}
		v[i] = sum / l[i][i]
	}
	return v
}

// cholSolve solves (L Lᵀ) x = b.
func cholSolve(l [][]float64, b []float64) []float64 {
	n := len(l)
	v := forwardSolve(l, b)
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := v[i]
		for k := i + 1; k < n; k++ {
			sum -= l[k][i] * x[k]
		}
		x[i] = sum / l[i][i]
	}
	return x
}
