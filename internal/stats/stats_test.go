package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDescriptive(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Fatalf("mean %v", Mean(xs))
	}
	if Variance(xs) != 1.25 {
		t.Fatalf("variance %v", Variance(xs))
	}
	if math.Abs(Std(xs)-math.Sqrt(1.25)) > 1e-12 {
		t.Fatalf("std %v", Std(xs))
	}
	if Mean(nil) != 0 || Percentile(nil, 50) != 0 {
		t.Fatal("empty-input conventions broken")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	if p := Percentile(xs, 50); p != 30 {
		t.Fatalf("p50 %v", p)
	}
	if p := Percentile(xs, 0); p != 10 {
		t.Fatalf("p0 %v", p)
	}
	if p := Percentile(xs, 100); p != 50 {
		t.Fatalf("p100 %v", p)
	}
	if p := Percentile(xs, 25); p != 20 {
		t.Fatalf("p25 %v", p)
	}
	// Must not mutate input order.
	ys := []float64{3, 1, 2}
	Percentile(ys, 50)
	if ys[0] != 3 {
		t.Fatal("Percentile must not sort its input in place")
	}
}

func TestSkewness(t *testing.T) {
	sym := []float64{-2, -1, 0, 1, 2}
	if s := Skewness(sym); math.Abs(s) > 1e-12 {
		t.Fatalf("symmetric data skew %v", s)
	}
	right := []float64{0, 0, 0, 0, 10}
	if Skewness(right) <= 0 {
		t.Fatal("right-tailed data must have positive skew")
	}
}

func TestFitLinearRecoversExactModel(t *testing.T) {
	// y = 3 + 2a - b
	var x [][]float64
	var y []float64
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		a, b := rng.Float64()*10, rng.Float64()*10
		x = append(x, []float64{1, a, b})
		y = append(y, 3+2*a-b)
	}
	w, err := FitLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, -1}
	for i := range want {
		if math.Abs(w[i]-want[i]) > 1e-6 {
			t.Fatalf("w = %v, want %v", w, want)
		}
	}
}

func TestFitLinearNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var x [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		a := rng.Float64() * 100
		x = append(x, []float64{1, a})
		y = append(y, 5+0.7*a+rng.NormFloat64())
	}
	w, err := FitLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w[1]-0.7) > 0.02 {
		t.Fatalf("slope %v, want ~0.7", w[1])
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear(nil, nil); err == nil {
		t.Fatal("expected empty-input error")
	}
	if _, err := FitLinear([][]float64{{1, 2}}, []float64{1, 2}); err == nil {
		t.Fatal("expected row-count mismatch error")
	}
	if _, err := FitLinear([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Fatal("expected ragged-row error")
	}
}

func TestEMGMoments(t *testing.T) {
	e := EMG{Mu: 10, Sigma: 2, Lambda: 0.5}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if m := e.Mean(); m != 12 {
		t.Fatalf("mean %v", m)
	}
	if err := (EMG{Mu: 1, Sigma: 0, Lambda: 1}).Validate(); err == nil {
		t.Fatal("expected invalid sigma error")
	}
}

func TestEMGSampleMatchesMoments(t *testing.T) {
	e := EMG{Mu: 15, Sigma: 3, Lambda: 0.25}
	rng := rand.New(rand.NewSource(7))
	n := 200000
	var xs []float64
	for i := 0; i < n; i++ {
		xs = append(xs, e.Sample(rng))
	}
	if math.Abs(Mean(xs)-e.Mean()) > 0.1 {
		t.Fatalf("sample mean %v vs %v", Mean(xs), e.Mean())
	}
	want := e.Sigma*e.Sigma + 1/(e.Lambda*e.Lambda)
	if math.Abs(Variance(xs)-want)/want > 0.03 {
		t.Fatalf("sample variance %v vs %v", Variance(xs), want)
	}
}

func TestEMGCDFQuantileInverse(t *testing.T) {
	e := EMG{Mu: 20, Sigma: 4, Lambda: 0.1}
	for _, p := range []float64{0.01, 0.1, 0.5, 0.9, 0.99, 0.999} {
		x := e.Quantile(p)
		if got := e.CDF(x); math.Abs(got-p) > 1e-6 {
			t.Fatalf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

func TestEMGCDFMonotoneAndBounded(t *testing.T) {
	f := func(mu, sigRaw, lamRaw, x1, x2 float64) bool {
		sig := 0.1 + math.Abs(sigRaw)
		lam := 0.01 + math.Abs(lamRaw)
		if sig > 1e6 || lam > 1e6 || math.Abs(mu) > 1e6 || math.Abs(x1) > 1e6 || math.Abs(x2) > 1e6 {
			return true // outside realistic parameter space
		}
		e := EMG{Mu: mu, Sigma: sig, Lambda: lam}
		a, b := x1, x2
		if a > b {
			a, b = b, a
		}
		fa, fb := e.CDF(a), e.CDF(b)
		return fa >= 0 && fb <= 1 && fa <= fb+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestExpectedMaxAgainstMonteCarlo(t *testing.T) {
	e := EMG{Mu: 15, Sigma: 3, Lambda: 0.2} // Lambda-like comm overhead (ms)
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 4, 8, 16} {
		analytic := e.ExpectedMax(n)
		const trials = 20000
		var sum float64
		for i := 0; i < trials; i++ {
			m := math.Inf(-1)
			for j := 0; j < n; j++ {
				if v := e.Sample(rng); v > m {
					m = v
				}
			}
			sum += m
		}
		mc := sum / trials
		if math.Abs(analytic-mc)/mc > 0.02 {
			t.Fatalf("n=%d: analytic %v vs monte-carlo %v", n, analytic, mc)
		}
	}
}

func TestExpectedMaxMonotoneInN(t *testing.T) {
	e := EMG{Mu: 10, Sigma: 2, Lambda: 0.5}
	prev := math.Inf(-1)
	for n := 1; n <= 16; n *= 2 {
		m := e.ExpectedMax(n)
		if m <= prev {
			t.Fatalf("ExpectedMax not increasing at n=%d: %v <= %v", n, m, prev)
		}
		prev = m
	}
}

func TestFitEMGRecoversParameters(t *testing.T) {
	truth := EMG{Mu: 18, Sigma: 3, Lambda: 0.125}
	rng := rand.New(rand.NewSource(11))
	var xs []float64
	for i := 0; i < 100000; i++ {
		xs = append(xs, truth.Sample(rng))
	}
	fit, err := FitEMG(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Mean()-truth.Mean())/truth.Mean() > 0.02 {
		t.Fatalf("fit mean %v vs %v", fit.Mean(), truth.Mean())
	}
	if math.Abs(fit.Mu-truth.Mu)/truth.Mu > 0.1 {
		t.Fatalf("fit mu %v vs %v", fit.Mu, truth.Mu)
	}
	if math.Abs(1/fit.Lambda-1/truth.Lambda)/(1/truth.Lambda) > 0.1 {
		t.Fatalf("fit tau %v vs %v", 1/fit.Lambda, 1/truth.Lambda)
	}
}

func TestFitEMGErrors(t *testing.T) {
	if _, err := FitEMG([]float64{1, 2, 3}); err == nil {
		t.Fatal("expected too-few-samples error")
	}
	same := make([]float64, 20)
	if _, err := FitEMG(same); err == nil {
		t.Fatal("expected zero-variance error")
	}
}

func TestDot(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("dot product wrong")
	}
}
