package bayesopt

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestGPInterpolatesTrainingPoints: with (almost) no observation noise the
// posterior passes through every training point — mean equal to the
// observation, standard deviation collapsing to zero — and is uncertain
// again far from all of them.
func TestGPInterpolatesTrainingPoints(t *testing.T) {
	xs := [][]float64{{0.1, 0.2}, {0.5, 0.9}, {0.8, 0.3}, {0.3, 0.6}}
	ys := []float64{3, -1, 7, 2}
	g, err := fitGP(xs, ys, 0.3, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		mu, sigma := g.predict(x)
		if got := mu*g.yStd + g.yMean; math.Abs(got-ys[i]) > 1e-4 {
			t.Errorf("posterior mean at training point %d = %v, want %v", i, got, ys[i])
		}
		if sigma > 1e-3 {
			t.Errorf("posterior sigma at training point %d = %v, want ~0", i, sigma)
		}
	}
	if _, sigma := g.predict([]float64{5, 5}); sigma < 0.99 {
		t.Errorf("posterior sigma far from the data = %v, want the prior's 1", sigma)
	}
}

func TestFitGPRejectsDegenerateObservations(t *testing.T) {
	if _, err := fitGP(nil, nil, 1, 1e-3); err == nil {
		t.Error("no observations must not fit")
	}
	if _, err := fitGP([][]float64{{0}, {1}}, []float64{4, 4}, 1, 1e-3); err == nil {
		t.Error("a constant objective has no scale to normalise by and must not fit")
	}
}

// TestExpectedImprovement: no uncertainty, no expected improvement; at fixed
// uncertainty a lower predicted mean is worth strictly more; and a point
// predicted worse than the incumbent still has some.
func TestExpectedImprovement(t *testing.T) {
	for _, mu := range []float64{-2, 0, 2} {
		if ei := expectedImprovement(0, mu, 0); ei != 0 {
			t.Errorf("EI(mu=%v, sigma=0) = %v, want 0", mu, ei)
		}
	}
	prev := math.Inf(1)
	for mu := -3.0; mu <= 3; mu += 0.25 {
		ei := expectedImprovement(0, mu, 0.5)
		if ei <= 0 || ei >= prev {
			t.Fatalf("EI(mu=%v) = %v after %v: want positive and strictly decreasing in mu", mu, ei, prev)
		}
		prev = ei
	}
}

func TestCholesky(t *testing.T) {
	a := [][]float64{{4, 2, 0.6}, {2, 5, 1}, {0.6, 1, 3}}
	l, err := cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for j := range a {
			var got float64
			for k := range a {
				got += l[i][k] * l[j][k]
			}
			if math.Abs(got-a[i][j]) > 1e-12 {
				t.Errorf("(L Lᵀ)[%d][%d] = %v, want %v", i, j, got, a[i][j])
			}
		}
	}
	b := []float64{1, -2, 3}
	x := cholSolve(l, b)
	for i := range a {
		var got float64
		for j := range a {
			got += a[i][j] * x[j]
		}
		if math.Abs(got-b[i]) > 1e-12 {
			t.Errorf("(A x)[%d] = %v, want %v", i, got, b[i])
		}
	}
	if _, err := cholesky([][]float64{{1, 2}, {2, 1}}); err == nil {
		t.Error("an indefinite matrix must be rejected")
	}
}

// TestMinimize: the search is a function of its seed, spends exactly its
// budget, reports the best point of its history, and finds the minimum of a
// 1-D quadratic far more closely than its random initial points do.
func TestMinimize(t *testing.T) {
	obj := func(x []float64) float64 { return (x[0] - 0.3) * (x[0] - 0.3) }
	const iters = 30
	run := func(seed int64) Result {
		res, err := Minimize(obj, 1, iters, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run(7)
	if again := run(7); !reflect.DeepEqual(res, again) {
		t.Error("two runs from one seed differ")
	}
	if res.Evals != iters || len(res.HistoryX) != iters || len(res.HistoryY) != iters {
		t.Errorf("spent %d evaluations (%d recorded), want %d", res.Evals, len(res.HistoryY), iters)
	}
	bestInit := math.Inf(1)
	for i, y := range res.HistoryY {
		if y < res.Value {
			t.Errorf("evaluation %d = %v is better than the reported best %v", i, y, res.Value)
		}
		if i < initRandom {
			bestInit = math.Min(bestInit, y)
		}
	}
	if math.Abs(res.X[0]-0.3) > 0.02 || res.Value > 4e-4 {
		t.Errorf("minimum of (x-0.3)² found at %v (value %v)", res.X, res.Value)
	}
	if res.Value >= bestInit {
		t.Errorf("the surrogate never improved on the random start: %v vs %v", res.Value, bestInit)
	}

	// A constant objective never yields a surrogate; the search degrades to
	// random sampling and still spends its budget.
	flat, err := Minimize(func([]float64) float64 { return 1 }, 2, 12, rand.New(rand.NewSource(1)))
	if err != nil || flat.Evals != 12 || flat.Value != 1 {
		t.Errorf("constant objective: %+v, %v", flat, err)
	}
	if _, err := Minimize(obj, 0, iters, rand.New(rand.NewSource(1))); err == nil {
		t.Error("zero dimensions must be rejected")
	}
	if _, err := Minimize(obj, 1, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("a zero budget must be rejected")
	}
	if _, err := Minimize(nil, 1, iters, rand.New(rand.NewSource(1))); err == nil {
		t.Error("a nil objective must be rejected")
	}
}
