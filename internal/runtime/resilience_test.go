package runtime

import (
	"math/rand"
	"testing"

	"gillis/internal/partition"
	"gillis/internal/platform"
	"gillis/internal/simnet"
	"gillis/internal/tensor"
)

// resilPlan covers every resilient code path: a pure fork (channel), a
// mixed master+worker fork (spatial), and a remote DimNone group (the
// fallback target).
func resilPlan(t *testing.T, units []*partition.Unit) *partition.Plan {
	t.Helper()
	plan := &partition.Plan{Model: "tinycnn", Groups: []partition.GroupPlan{
		{First: 0, Last: 0, Option: partition.Option{Dim: partition.DimChannel, Parts: 2}},
		{First: 1, Last: 2, Option: partition.Option{Dim: partition.DimSpatial, Parts: 2}, OnMaster: true},
		{First: 3, Last: 3, Option: partition.Option{Dim: partition.DimNone, Parts: 1}},
	}}
	if err := plan.Validate(units); err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestResilientServes1000Through5pctFailures is the PR's acceptance
// criterion: with a 5% injected invocation-failure rate and retries
// enabled, a residual-CNN fork-join deployment completes 1000/1000 queries
// in Real mode — one per pass, or in batches of four — with outputs bitwise
// identical to the fault-free run.
func TestResilientServes1000Through5pctFailures(t *testing.T) {
	units := tinyCNN(t)
	plan := resilPlan(t, units)
	cfg := platform.AWSLambda()
	cfg.Faults = platform.FaultProfile{FailureProb: 0.05}
	const queries = 1000
	for _, n := range []int{1, 4} {
		xs, want := inputsAndWant(t, units, 7, n)
		var totalRetries, survived int
		runClient(t, cfg, 42, func(p *platform.Platform, proc *simnet.Proc) {
			d, err := Deploy(p, units, plan, Real, WithRetries(3, 5), WithMasterFallback())
			if err != nil {
				t.Error(err)
				return
			}
			if err := d.Prewarm(); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < queries/n; i++ {
				res, _, err := d.ServeBatch(proc, xs, n, false)
				if err != nil {
					t.Errorf("batch size %d: pass %d failed despite retries: %v", n, i, err)
					return
				}
				for e := range want {
					if !tensor.Equal(res.Outputs[e], want[e]) {
						t.Errorf("batch size %d: pass %d output %d differs from fault-free run", n, i, e)
						return
					}
				}
				totalRetries += res.Resilience.Retries
				survived += res.Resilience.FaultsSurvived
			}
		})
		if t.Failed() {
			return
		}
		// At 5% per-invocation failure over ~6 invocations per pass, faults
		// must actually have been absorbed — otherwise the test proves nothing.
		if totalRetries == 0 || survived == 0 {
			t.Fatalf("batch size %d: no faults encountered (retries=%d survived=%d); fault injection inactive?", n, totalRetries, survived)
		}
		t.Logf("batch size %d: %d/%d queries, %d retries, %d faults survived", n, queries, queries, totalRetries, survived)
	}
}

// TestNaiveFailsUnderFaults shows the counterpart: the no-retry
// configuration demonstrably fails queries at the same fault rate.
func TestNaiveFailsUnderFaults(t *testing.T) {
	units := tinyCNN(t)
	plan := resilPlan(t, units)
	x := tensor.Rand(rand.New(rand.NewSource(7)), 1, 3, 24, 24)
	cfg := platform.AWSLambda()
	cfg.Faults = platform.FaultProfile{FailureProb: 0.05}
	failures := 0
	runClient(t, cfg, 42, func(p *platform.Platform, proc *simnet.Proc) {
		d, err := Deploy(p, units, plan, Real)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 200; i++ {
			if _, err := d.Serve(proc, x); err != nil {
				failures++
			}
		}
	})
	if failures == 0 {
		t.Fatal("naive deployment survived 200 queries at 5% fault rate; faults not reaching the runtime")
	}
	t.Logf("naive config: %d/200 queries failed", failures)
}

// TestResilientFaultScheduleReproducible asserts same platform seed ⇒ same
// fault schedule, observed end to end through the serving runtime.
func TestResilientFaultScheduleReproducible(t *testing.T) {
	type obs struct {
		failed  bool
		retries int
		latency float64
	}
	run := func(seed int64) []obs {
		units := tinyCNN(t)
		plan := resilPlan(t, units)
		cfg := platform.AWSLambda()
		cfg.Faults = platform.FaultProfile{FailureProb: 0.1, StragglerProb: 0.1, StragglerFactor: 4, EvictionProb: 0.05}
		var out []obs
		runClient(t, cfg, seed, func(p *platform.Platform, proc *simnet.Proc) {
			d, err := Deploy(p, units, plan, ShapeOnly, WithRetries(2, 10), WithMasterFallback())
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 150; i++ {
				res, err := d.Serve(proc, nil)
				out = append(out, obs{failed: err != nil, retries: res.Resilience.Retries, latency: res.LatencyMs})
			}
		})
		return out
	}
	a, b := run(123), run(123)
	if len(a) != len(b) {
		t.Fatalf("query counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at query %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := run(124)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestHedgingAgainstStragglers exercises the hedge race: frequent 10×
// stragglers, hedging past the 80th percentile. Backups must launch and
// win races, and every query must still produce the exact output.
func TestHedgingAgainstStragglers(t *testing.T) {
	units := tinyCNN(t)
	plan := resilPlan(t, units)
	x := tensor.Rand(rand.New(rand.NewSource(9)), 1, 3, 24, 24)
	want, err := partition.ForwardChain(units, x)
	if err != nil {
		t.Fatal(err)
	}
	cfg := platform.AWSLambda()
	cfg.Faults = platform.FaultProfile{StragglerProb: 0.3, StragglerFactor: 10}
	var hedges, won int
	runClient(t, cfg, 11, func(p *platform.Platform, proc *simnet.Proc) {
		d, err := Deploy(p, units, plan, Real, WithHedging(80), WithRetries(2, 5))
		if err != nil {
			t.Error(err)
			return
		}
		if err := d.Prewarm(); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 80; i++ {
			res, err := d.Serve(proc, x)
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			if !tensor.Equal(res.Outputs[0], want) {
				t.Errorf("query %d: hedged output differs", i)
				return
			}
			hedges += res.Resilience.Hedges
			won += res.Resilience.HedgesWon
		}
	})
	if t.Failed() {
		return
	}
	if hedges == 0 {
		t.Fatal("no hedges launched under 30% 10x stragglers")
	}
	if won == 0 {
		t.Fatal("no hedge race won; backups should beat 10x stragglers")
	}
	t.Logf("%d hedges launched, %d won", hedges, won)
}

// TestMasterFallbackServesCorrectOutput drives the DimNone worker to fail
// nearly always: the master must degrade to local execution and still
// produce the bitwise-exact output, for a single query and for a batch of
// four riding the same fallback round.
func TestMasterFallbackServesCorrectOutput(t *testing.T) {
	units := tinyCNN(t)
	plan := resilPlan(t, units)
	// At 70% per-invocation failure even the master exhausts its retry
	// budget sometimes, so client-level failures are tolerated here; the
	// point is that whenever a pass does complete, worker outages on the
	// DimNone group were absorbed by the fallback with exact outputs.
	cfg := platform.AWSLambda()
	cfg.Faults = platform.FaultProfile{FailureProb: 0.7}
	for _, n := range []int{1, 4} {
		xs, want := inputsAndWant(t, units, 13, n)
		var fallbacks, served int
		runClient(t, cfg, 21, func(p *platform.Platform, proc *simnet.Proc) {
			d, err := Deploy(p, units, plan, Real, WithRetries(4, 2), WithMasterFallback())
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 60; i++ {
				res, _, err := d.ServeBatch(proc, xs, n, false)
				if err != nil {
					continue // master itself out of luck this pass
				}
				for e := range want {
					if !tensor.Equal(res.Outputs[e], want[e]) {
						t.Errorf("batch size %d: pass %d: degraded output %d differs", n, i, e)
						return
					}
				}
				served++
				fallbacks += res.Resilience.Fallbacks
			}
		})
		if t.Failed() {
			return
		}
		if served == 0 {
			t.Fatalf("batch size %d: no pass completed at all", n)
		}
		if fallbacks == 0 {
			t.Fatalf("batch size %d: 0 fallbacks in %d served passes at 70%% failure; 0.7^5 per call should exhaust retries often", n, served)
		}
		t.Logf("batch size %d: %d fallbacks across %d served passes", n, fallbacks, served)
	}
}

// TestNaivePathUnchangedByResilienceLayer pins that a deployment with no
// resilience options behaves exactly as before the layer existed: same
// latency and billing as the pre-refactor direct path, zero telemetry.
func TestNaivePathUnchangedByResilienceLayer(t *testing.T) {
	units := tinyCNN(t)
	plan := mixedPlan(t, units)
	runClient(t, platform.AWSLambda(), 3, func(p *platform.Platform, proc *simnet.Proc) {
		d, err := Deploy(p, units, plan, ShapeOnly)
		if err != nil {
			t.Error(err)
			return
		}
		res, err := d.Serve(proc, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if res.Resilience != (Resilience{}) {
			t.Errorf("naive fault-free query reported telemetry: %+v", res.Resilience)
		}
	})
}

// TestResilienceCountersCombined is the table-driven satellite: with retries
// AND hedging enabled together, each fault regime must surface through the
// right Result.Resilience counters, and the cross-counter invariants must
// hold in every regime.
func TestResilienceCountersCombined(t *testing.T) {
	cases := []struct {
		name   string
		faults platform.FaultProfile
		seed   int64
		extra  []DeployOption
		check  func(t *testing.T, agg Resilience, served int)
	}{
		{
			// Crashed invocations are re-tried and absorbed; the hedge
			// trigger stays armed but crashes, not stragglers, dominate.
			name:   "retry-win",
			faults: platform.FaultProfile{FailureProb: 0.25},
			seed:   31,
			check: func(t *testing.T, agg Resilience, served int) {
				if agg.Retries == 0 {
					t.Error("25% crashes with a retry budget must record retries")
				}
				if agg.FaultsSurvived == 0 {
					t.Error("absorbed crashes must count as faults survived")
				}
				if agg.Fallbacks != 0 {
					t.Errorf("no fallback configured, got %d", agg.Fallbacks)
				}
				if agg.ExtraBilledMs == 0 {
					t.Error("failed attempts bill partial work; ExtraBilledMs must be positive")
				}
			},
		},
		{
			// 10x stragglers: backups fire past the latency percentile and
			// win races; retries stay rare.
			name:   "hedge-win",
			faults: platform.FaultProfile{StragglerProb: 0.3, StragglerFactor: 10},
			seed:   11,
			check: func(t *testing.T, agg Resilience, served int) {
				if agg.Hedges == 0 {
					t.Error("30% 10x stragglers must trigger hedges")
				}
				if agg.HedgesWon == 0 {
					t.Error("backups must win races against 10x stragglers")
				}
				if agg.Fallbacks != 0 {
					t.Errorf("no fallback configured, got %d", agg.Fallbacks)
				}
				if agg.ExtraBilledMs == 0 {
					t.Error("hedge losers must surface as ExtraBilledMs")
				}
			},
		},
		{
			// Past-budget failures on the DimNone group degrade to the
			// master-local fallback.
			name:   "fallback",
			faults: platform.FaultProfile{FailureProb: 0.6},
			seed:   21,
			extra:  []DeployOption{WithMasterFallback()},
			check: func(t *testing.T, agg Resilience, served int) {
				if served == 0 {
					t.Fatal("no query completed at all")
				}
				if agg.Fallbacks == 0 {
					t.Errorf("0 fallbacks in %d served queries at 60%% failure", served)
				}
				if agg.Retries == 0 || agg.FaultsSurvived == 0 {
					t.Errorf("retries=%d survived=%d; fallback regime must also retry", agg.Retries, agg.FaultsSurvived)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			units := tinyCNN(t)
			plan := resilPlan(t, units)
			cfg := platform.AWSLambda()
			cfg.Faults = tc.faults
			var agg Resilience
			served := 0
			runClient(t, cfg, tc.seed, func(p *platform.Platform, proc *simnet.Proc) {
				opts := append([]DeployOption{WithRetries(3, 5), WithHedging(80)}, tc.extra...)
				d, err := Deploy(p, units, plan, ShapeOnly, opts...)
				if err != nil {
					t.Error(err)
					return
				}
				if err := d.Prewarm(); err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < 80; i++ {
					res, err := d.Serve(proc, nil)
					if err != nil {
						continue // budget exhausted this query; counters still meaningful
					}
					served++
					agg.add(res.Resilience)
				}
			})
			if t.Failed() {
				return
			}
			if agg.HedgesWon > agg.Hedges {
				t.Errorf("HedgesWon %d > Hedges %d", agg.HedgesWon, agg.Hedges)
			}
			if agg.FaultsSurvived < agg.Fallbacks {
				t.Errorf("FaultsSurvived %d < Fallbacks %d (every fallback is a survived fault)", agg.FaultsSurvived, agg.Fallbacks)
			}
			tc.check(t, agg, served)
			t.Logf("%s: served=%d %+v", tc.name, served, agg)
		})
	}
}
