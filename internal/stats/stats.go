// Package stats provides the statistical machinery behind Gillis's
// performance model (§IV-A of the paper): descriptive statistics, linear
// least-squares regression for layer-runtime prediction, and the
// exponentially modified Gaussian (EMG) distribution with n-th order
// statistics for predicting the maximum of n concurrent function
// communication delays.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Skewness returns the sample skewness of xs (0 if degenerate).
func Skewness(xs []float64) float64 {
	if len(xs) < 3 {
		return 0
	}
	m := Mean(xs)
	var m2, m3 float64
	for _, x := range xs {
		d := x - m
		m2 += d * d
		m3 += d * d * d
	}
	n := float64(len(xs))
	m2 /= n
	m3 /= n
	if m2 <= 0 {
		return 0
	}
	return m3 / math.Pow(m2, 1.5)
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between order statistics. xs is left as it is: a sorted xs
// is read in place, any other is sorted in a copy.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := xs
	if !slices.IsSorted(xs) {
		sorted = make([]float64, len(xs))
		copy(sorted, xs)
		sort.Float64s(sorted)
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// FitLinear solves the least-squares problem min ||Xw - y||² via the normal
// equations with partial pivoting. Rows of x are feature vectors.
func FitLinear(x [][]float64, y []float64) ([]float64, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("stats: need equal non-zero rows, got %d features and %d targets", len(x), len(y))
	}
	d := len(x[0])
	if d == 0 {
		return nil, fmt.Errorf("stats: empty feature vectors")
	}
	// A = XᵀX (d×d), b = Xᵀy.
	a := make([][]float64, d)
	for i := range a {
		a[i] = make([]float64, d+1)
	}
	for r, row := range x {
		if len(row) != d {
			return nil, fmt.Errorf("stats: ragged feature row %d", r)
		}
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				a[i][j] += row[i] * row[j]
			}
			a[i][d] += row[i] * y[r]
		}
	}
	// Tikhonov damping keeps near-collinear profiles solvable.
	for i := 0; i < d; i++ {
		a[i][i] += 1e-9 * (a[i][i] + 1)
	}
	return solveGauss(a, d)
}

// solveGauss solves the augmented system a (d×(d+1)) in place.
func solveGauss(a [][]float64, d int) ([]float64, error) {
	for col := 0; col < d; col++ {
		pivot := col
		for r := col + 1; r < d; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-300 {
			return nil, fmt.Errorf("stats: singular system at column %d", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		inv := 1 / a[col][col]
		for r := 0; r < d; r++ {
			if r == col {
				continue
			}
			f := a[r][col] * inv
			for c := col; c <= d; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	w := make([]float64, d)
	for i := 0; i < d; i++ {
		w[i] = a[i][d] / a[i][i]
	}
	return w, nil
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
