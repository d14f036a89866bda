package core

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"gillis/internal/bayesopt"
	"gillis/internal/models"
	"gillis/internal/partition"
	"gillis/internal/perf"
	"gillis/internal/platform"
)

var (
	modelOnce   sync.Once
	sharedModel *perf.Model
	modelErr    error
)

func lambdaModel(t *testing.T) *perf.Model {
	t.Helper()
	modelOnce.Do(func() {
		sharedModel, modelErr = perf.Build(platform.AWSLambda(), 1, 2, 300)
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return sharedModel
}

func unitsOf(t *testing.T, name string) []*partition.Unit {
	t.Helper()
	g, err := models.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	units, err := partition.Linearize(g)
	if err != nil {
		t.Fatal(err)
	}
	return units
}

func TestLatencyOptimalBeatsDefaultVGG16(t *testing.T) {
	m := lambdaModel(t)
	units := unitsOf(t, "vgg16")
	plan, pred, err := LatencyOptimal(m, units, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(units); err != nil {
		t.Fatal(err)
	}
	if pred.OOM {
		t.Fatalf("vgg16 plan OOM: %s", pred.OOMReason)
	}
	def, err := m.PredictPlan(units, partition.DefaultPlan("default", units))
	if err != nil {
		t.Fatal(err)
	}
	speedup := def.LatencyMs / pred.LatencyMs
	// Fig. 9: VGG-16 on Lambda speeds up ~1.9×; accept a reasonable band.
	if speedup < 1.3 || speedup > 4 {
		t.Fatalf("vgg16 speedup %.2f (default %.0f ms, gillis %.0f ms) outside [1.3,4]",
			speedup, def.LatencyMs, pred.LatencyMs)
	}
}

func TestLatencyOptimalNeverWorseThanDefault(t *testing.T) {
	m := lambdaModel(t)
	for _, name := range []string{"vgg11", "resnet50", "rnn3"} {
		units := unitsOf(t, name)
		plan, pred, err := LatencyOptimal(m, units, Config{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := plan.Validate(units); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		def, err := m.PredictPlan(units, partition.DefaultPlan("default", units))
		if err != nil {
			t.Fatal(err)
		}
		if !def.OOM && pred.LatencyMs > def.LatencyMs*1.001 {
			t.Errorf("%s: DP latency %.1f worse than default %.1f", name, pred.LatencyMs, def.LatencyMs)
		}
	}
}

func TestLatencyOptimalHandlesTooBigModels(t *testing.T) {
	m := lambdaModel(t)
	t.Parallel()
	for _, name := range []string{"wrn34-5", "rnn12"} {
		units := unitsOf(t, name)
		plan, pred, err := LatencyOptimal(m, units, Config{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pred.OOM {
			t.Fatalf("%s: plan must avoid OOM, got %s", name, pred.OOMReason)
		}
		// Default serving is infeasible; the plan must shard weights.
		def, err := m.PredictPlan(units, partition.DefaultPlan("default", units))
		if err != nil {
			t.Fatal(err)
		}
		if !def.OOM {
			t.Fatalf("%s should not fit a single function", name)
		}
		if len(plan.Groups) < 2 {
			t.Fatalf("%s: expected multiple groups, got %d", name, len(plan.Groups))
		}
	}
}

func TestLatencyOptimalRNNLinearScaling(t *testing.T) {
	// Fig. 12: RNN latency grows roughly linearly with layer count once the
	// model spans multiple functions.
	m := lambdaModel(t)
	var lat10, lat12 float64
	for _, tc := range []struct {
		name string
		dst  *float64
	}{{"rnn10", &lat10}, {"rnn12", &lat12}} {
		units := unitsOf(t, tc.name)
		_, pred, err := LatencyOptimal(m, units, Config{})
		if err != nil {
			t.Fatal(err)
		}
		*tc.dst = pred.LatencyMs
	}
	growth := (lat12 - lat10) / lat10
	if growth <= 0 || growth > 0.45 {
		t.Fatalf("rnn10→rnn12 latency growth %.2f not consistent with linear scaling (lat10=%.0f, lat12=%.0f)",
			growth, lat10, lat12)
	}
}

func TestLatencyOptimalGroupingShape(t *testing.T) {
	// Fig. 14's qualitative observations on WRN-34-5: low conv layers are
	// parallelized across more functions than the top groups, and the
	// master computes partitions of low (small-weight) groups.
	m := lambdaModel(t)
	units := unitsOf(t, "wrn34-5")
	plan, _, err := LatencyOptimal(m, units, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(plan)
	var lowParts, highParts, masterGroups int
	mid := len(plan.Groups) / 2
	for gi, gp := range plan.Groups {
		if gp.Option.Dim != partition.DimNone {
			if gi < mid {
				if gp.Option.Parts > lowParts {
					lowParts = gp.Option.Parts
				}
			} else if gp.Option.Parts > highParts {
				highParts = gp.Option.Parts
			}
		}
		if gp.OnMaster {
			masterGroups++
		}
	}
	if lowParts < highParts {
		t.Errorf("low groups should be parallelized at least as wide as high groups: %d vs %d", lowParts, highParts)
	}
	if masterGroups == 0 {
		t.Error("master should compute some group partitions")
	}
}

func TestSLOAwareMeetsSLO(t *testing.T) {
	m := lambdaModel(t)
	t.Parallel()
	units := unitsOf(t, "vgg11")
	// A loose SLO (~default latency) must always be met.
	def, err := m.PredictPlan(units, partition.DefaultPlan("default", units))
	if err != nil {
		t.Fatal(err)
	}
	tmax := def.LatencyMs * 1.2
	res, err := SLOAware(m, units, tmax, SLOConfig{Episodes: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatalf("loose SLO %.0f ms not met: latency %.0f", tmax, res.Pred.LatencyMs)
	}
	if err := res.Plan.Validate(units); err != nil {
		t.Fatal(err)
	}
	if res.Pred.BilledMs <= 0 {
		t.Fatal("billed cost must be positive")
	}
}

func TestSLOAwareRestrictiveSLO(t *testing.T) {
	m := lambdaModel(t)
	t.Parallel()
	units := unitsOf(t, "vgg11")
	_, lo, err := LatencyOptimal(m, units, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Restrictive: 15% above the best achievable latency.
	tmax := lo.LatencyMs * 1.15
	res, err := SLOAware(m, units, tmax, SLOConfig{Episodes: 2500, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatalf("restrictive SLO %.0f ms not met: best latency %.0f", tmax, res.Pred.LatencyMs)
	}
}

func TestSLOAwareCheaperWithLooserSLO(t *testing.T) {
	m := lambdaModel(t)
	t.Parallel()
	units := unitsOf(t, "vgg16")
	_, lo, err := LatencyOptimal(m, units, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Both searches are stochastic; take the best of two seeds each, as the
	// paper reports the best of multiple runs (§V-C).
	run := func(tmax float64) (int64, bool) {
		bestCost, met := int64(1<<62), false
		for seed := int64(3); seed <= 4; seed++ {
			res, err := SLOAware(m, units, tmax, SLOConfig{Episodes: 1200, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if res.Met && res.Pred.BilledMs < bestCost {
				bestCost, met = res.Pred.BilledMs, true
			}
		}
		return bestCost, met
	}
	tightCost, tightMet := run(lo.LatencyMs * 1.2)
	looseCost, looseMet := run(lo.LatencyMs * 3)
	if !tightMet || !looseMet {
		t.Fatalf("SLOs should be met: tight=%v loose=%v", tightMet, looseMet)
	}
	if float64(looseCost) > 1.05*float64(tightCost) {
		t.Fatalf("looser SLO should not cost appreciably more: loose %d vs tight %d", looseCost, tightCost)
	}
}

func TestSLOAwareRejectsBadTmax(t *testing.T) {
	m := lambdaModel(t)
	units := unitsOf(t, "vgg11")
	if _, err := SLOAware(m, units, 0, SLOConfig{}); err == nil {
		t.Fatal("expected bad-Tmax error")
	}
	if _, err := SLOAware(nil, units, 100, SLOConfig{}); err == nil {
		t.Fatal("expected nil-model error")
	}
}

func TestBruteForceOptimalOnSmallModel(t *testing.T) {
	m := lambdaModel(t)
	t.Parallel()
	// A small RNN keeps the BF space tiny (no spatial/channel options).
	units := unitsOf(t, "rnn3")
	def, err := m.PredictPlan(units, partition.DefaultPlan("default", units))
	if err != nil {
		t.Fatal(err)
	}
	tmax := def.LatencyMs * 1.5
	bf, err := BruteForce(m, units, tmax, BFConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !bf.Met || !bf.Exhausted {
		t.Fatalf("BF should exhaust and meet SLO: met=%v exhausted=%v nodes=%d", bf.Met, bf.Exhausted, bf.Nodes)
	}
	// RL should approach BF's optimal cost (paper: learns the same strategy
	// for VGG-11).
	rl, err := SLOAware(m, units, tmax, SLOConfig{Episodes: 1000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !rl.Met {
		t.Fatal("RL should meet the SLO")
	}
	if float64(rl.Pred.BilledMs) > 1.15*float64(bf.Pred.BilledMs) {
		t.Fatalf("RL cost %d too far above BF optimum %d", rl.Pred.BilledMs, bf.Pred.BilledMs)
	}
	if float64(bf.Pred.BilledMs) > float64(rl.Pred.BilledMs)+1 {
		t.Fatalf("BF %d cannot be worse than RL %d", bf.Pred.BilledMs, rl.Pred.BilledMs)
	}
}

func TestBruteForceInfeasibleSLO(t *testing.T) {
	m := lambdaModel(t)
	units := unitsOf(t, "rnn3")
	if _, err := BruteForce(m, units, 1, BFConfig{}); err == nil {
		t.Fatal("expected no-compliant-plan error for 1 ms SLO")
	}
}

func TestBayesOptFindsFeasiblePlan(t *testing.T) {
	m := lambdaModel(t)
	t.Parallel()
	units := unitsOf(t, "vgg11")
	def, err := m.PredictPlan(units, partition.DefaultPlan("default", units))
	if err != nil {
		t.Fatal(err)
	}
	res, err := BayesOpt(m, units, def.LatencyMs*1.4, BOConfig{Iters: 80, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatalf("BO should meet a loose SLO; got latency %.0f", res.Pred.LatencyMs)
	}
	if err := res.Plan.Validate(units); err != nil {
		t.Fatal(err)
	}
}

func TestRLBeatsOrMatchesBOOnCost(t *testing.T) {
	// The paper's headline SLO-aware claim: RL meets SLOs with lower cost
	// than BO (up to 1.8×). Compare best-of-3 for both, as in §V-C.
	m := lambdaModel(t)
	units := unitsOf(t, "vgg16")
	_, lo, err := LatencyOptimal(m, units, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tmax := lo.LatencyMs * 1.5

	bestRL := int64(1 << 62)
	rlMet := false
	for seed := int64(1); seed <= 2; seed++ {
		res, err := SLOAware(m, units, tmax, SLOConfig{Episodes: 700, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.Met && res.Pred.BilledMs < bestRL {
			bestRL, rlMet = res.Pred.BilledMs, true
		}
	}
	bestBO := int64(1 << 62)
	boMet := false
	for seed := int64(1); seed <= 3; seed++ {
		res, err := BayesOpt(m, units, tmax, BOConfig{Iters: 60, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.Met && res.Pred.BilledMs < bestBO {
			bestBO, boMet = res.Pred.BilledMs, true
		}
	}
	if !rlMet {
		t.Fatal("RL must meet the SLO")
	}
	if boMet && bestRL > bestBO*11/10 {
		t.Fatalf("RL cost %d should be within 10%% of or better than BO %d", bestRL, bestBO)
	}
}

func TestBayesOptGenericQuadratic(t *testing.T) {
	// Sanity-check the GP/EI machinery on a smooth function.
	obj := func(x []float64) float64 {
		d0 := x[0] - 0.7
		d1 := x[1] - 0.3
		return d0*d0 + d1*d1
	}
	res, err := bayesopt.Minimize(obj, 2, 50, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Value > 0.02 {
		t.Fatalf("BO failed to approach optimum: best %v at %v", res.Value, res.X)
	}
	random := rand.New(rand.NewSource(1))
	bestRand := 1e9
	for i := 0; i < 50; i++ {
		x := []float64{random.Float64(), random.Float64()}
		if v := obj(x); v < bestRand {
			bestRand = v
		}
	}
	if res.Value > bestRand*2 {
		t.Fatalf("BO (%.4f) much worse than random search (%.4f)", res.Value, bestRand)
	}
}

func TestDPDeterministic(t *testing.T) {
	m := lambdaModel(t)
	units := unitsOf(t, "vgg11")
	p1, pred1, err := LatencyOptimal(m, units, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p2, pred2, err := LatencyOptimal(m, units, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if pred1.LatencyMs != pred2.LatencyMs || p1.String() != p2.String() {
		t.Fatal("DP must be deterministic")
	}
}

func TestExplainBreakdown(t *testing.T) {
	m := lambdaModel(t)
	units := unitsOf(t, "vgg11")
	plan, _, err := LatencyOptimal(m, units, Config{})
	if err != nil {
		t.Fatal(err)
	}
	text, err := Explain(m, units, plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"plan breakdown", "group", "p99", "MB"} {
		if !strings.Contains(text, want) {
			t.Errorf("explain output missing %q:\n%s", want, text)
		}
	}
	if _, err := Explain(nil, units, plan); err == nil {
		t.Fatal("expected nil-model error")
	}
}
