package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gillis/internal/graph"
	"gillis/internal/nn"
	"gillis/internal/partition"
	"gillis/internal/perf"
)

// randomValidPlan samples an arbitrary feasible strategy.
func randomValidPlan(rng *rand.Rand, units []*partition.Unit, tab *perf.Table, budget int64) (*partition.Plan, bool) {
	plan := &partition.Plan{Model: partition.ModelName(units)}
	remaining := budget
	i := 0
	for i < len(units) {
		// Random group length.
		last := i + rng.Intn(4)
		if last >= len(units) {
			last = len(units) - 1
		}
		// Shrink until an option is feasible.
		var chosen *partition.Option
		for {
			feasible, err := partition.FeasibleOptions(units, i, last, nil)
			if err != nil {
				return nil, false
			}
			var ok []partition.Option
			for _, o := range feasible {
				ext, err := tab.Extent(i, last, o)
				if err != nil {
					continue
				}
				if ext.WeightBytes+ext.ActBytes <= budget {
					ok = append(ok, o)
				}
			}
			if len(ok) > 0 {
				o := ok[rng.Intn(len(ok))]
				chosen = &o
				break
			}
			if last == i {
				return nil, false
			}
			last--
		}
		gp := partition.GroupPlan{First: i, Last: last, Option: *chosen}
		ext, err := tab.Extent(i, last, *chosen)
		if err != nil {
			return nil, false
		}
		if rng.Intn(2) == 0 && ext.WeightBytes <= remaining {
			gp.OnMaster = true
			remaining -= ext.WeightBytes
		}
		plan.Groups = append(plan.Groups, gp)
		i = last + 1
	}
	return plan, true
}

// Property: no random valid strategy beats the DP's predicted latency.
func TestLatencyOptimalDominatesRandomPlans(t *testing.T) {
	m := lambdaModel(t)
	t.Parallel()
	for _, name := range []string{"vgg11", "resnet50"} {
		units := unitsOf(t, name)
		_, best, err := LatencyOptimal(m, units, Config{})
		if err != nil {
			t.Fatal(err)
		}
		tab := m.Table(units, 1)
		budget := int64(m.Platform().WeightBudgetMB) * 1e6
		rng := rand.New(rand.NewSource(99))
		tried := 0
		for tried < 60 {
			plan, ok := randomValidPlan(rng, units, tab, budget)
			if !ok {
				continue
			}
			if err := plan.Validate(units); err != nil {
				t.Fatalf("%s: random plan invalid: %v", name, err)
			}
			pred, err := tab.Plan(plan)
			if err != nil {
				t.Fatal(err)
			}
			tried++
			if pred.OOM {
				continue
			}
			if pred.LatencyMs < best.LatencyMs*0.999 {
				t.Fatalf("%s: random plan (%.1f ms) beats DP (%.1f ms):\n%s",
					name, pred.LatencyMs, best.LatencyMs, plan)
			}
		}
	}
}

// Property: one long-lived table answers every plan bit for bit as a fresh
// table does, whatever it priced before. A cache key that dropped part of a
// group plan, such as its placement, would hand one group's price to another.
func TestTableMatchesFreshTable(t *testing.T) {
	m := lambdaModel(t)
	t.Parallel()
	units := unitsOf(t, "vgg11")
	budget := int64(m.Platform().WeightBudgetMB) * 1e6
	rng := rand.New(rand.NewSource(7))
	var plan *partition.Plan
	for _, batch := range []int{1, 4} {
		tab := m.Table(units, batch)
		for priced := 0; priced < 150; {
			var ok bool
			if plan, ok = randomValidPlan(rng, units, tab, budget); !ok {
				continue
			}
			priced++
			got, err := tab.Plan(plan)
			if err != nil {
				t.Fatal(err)
			}
			want, err := m.Table(units, batch).Plan(plan)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("batch %d, plan %d: long-lived table %+v, fresh table %+v\n%s", batch, priced, got, want, plan)
			}
		}
	}
	for _, batch := range []int{0, -1} {
		if _, err := m.Table(units, batch).Plan(plan); err == nil {
			t.Errorf("batch %d: plan priced, want an error", batch)
		}
		if _, err := m.Table(units, batch).Group(plan.Groups[0]); err == nil {
			t.Errorf("batch %d: group priced, want an error", batch)
		}
	}
}

// randomChain builds a small random CNN for seed: conv+ReLU and 2×2
// max-pool layers on a 16–32 px input, then global-average-pool and dense.
func randomChain(t *testing.T, seed int64) []*partition.Unit {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c, h := 1+rng.Intn(3), 16+rng.Intn(17)
	g := graph.New(fmt.Sprintf("chain%d", seed), []int{c, h, h})
	for i, n := 0, 3+rng.Intn(4); i < n; i++ {
		if rng.Intn(3) == 0 {
			g.MustAdd(nn.NewMaxPool2D(fmt.Sprintf("pool%d", i), 2, 2, 0))
			continue
		}
		out := 4 + rng.Intn(29)
		g.MustAdd(nn.NewConv2D(fmt.Sprintf("conv%d", i), c, out, 3, 1, 1))
		g.MustAdd(nn.NewReLU(fmt.Sprintf("relu%d", i)))
		c = out
	}
	g.MustAdd(nn.NewGlobalAvgPool("gap"))
	g.MustAdd(nn.NewDense("fc", c, 10))
	units, err := partition.Linearize(g)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return units
}

// Differential test: on 40 random chains no plan brute force can reach is
// faster than the DP's. At the fitted compute speed such small chains run
// whole on the master, so each chain is planned again under a 100× compute
// prior, where about a third of the DP's groups go parallel. The two search
// the same space here. The DP charges a master group its weights in 100 MB
// levels, rounded up, where brute force counts bytes; but these chains weigh
// a few hundred kilobytes, so a group charges at most one level, and eight
// groups never use up the fourteen levels of Lambda's 1.4 GB budget, nor the
// bytes.
func TestLatencyOptimalMatchesBruteForce(t *testing.T) {
	fitted := lambdaModel(t)
	t.Parallel()
	slow, err := fitted.WithPriors(perf.Priors{ComputeScale: 100, CommScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 40; seed++ {
		units := randomChain(t, seed)
		if len(units) < 5 || len(units) > 8 {
			t.Fatalf("seed %d: %d units, want 5 to 8", seed, len(units))
		}
		for mi, m := range []*perf.Model{fitted, slow} {
			_, dp, err := LatencyOptimal(m, units, Config{})
			if err != nil {
				t.Fatalf("seed %d model %d: %v", seed, mi, err)
			}
			bf, err := BruteForce(m, units, dp.LatencyMs, BFConfig{})
			if err != nil || !bf.Exhausted || bf.Pred.LatencyMs > dp.LatencyMs {
				t.Fatalf("seed %d model %d: brute force at the DP's %v ms: exhausted %v, latency %v, %v",
					seed, mi, dp.LatencyMs, bf.Exhausted, bf.Pred.LatencyMs, err)
			}
			below, err := BruteForce(m, units, dp.LatencyMs*(1-1e-12), BFConfig{})
			if err == nil || !below.Exhausted || below.Plan != nil {
				t.Fatalf("seed %d model %d: brute force beat the DP's %v ms:\n%v", seed, mi, dp.LatencyMs, below.Plan)
			}
		}
	}
}

// The DP must also dominate the two degenerate strategies it generalizes.
func TestLatencyOptimalDominatesDegenerate(t *testing.T) {
	m := lambdaModel(t)
	t.Parallel()
	units := unitsOf(t, "vgg16")
	_, best, err := LatencyOptimal(m, units, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{DisableGrouping: true},
		{DisableMaster: true},
	} {
		_, pred, err := LatencyOptimal(m, units, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if pred.LatencyMs < best.LatencyMs*0.999 {
			t.Fatalf("restricted DP (%+v) beat the full DP: %.1f vs %.1f", cfg, pred.LatencyMs, best.LatencyMs)
		}
	}
}

// Every ablation of the DP (no master, no grouping, a fixed fan-out) still
// yields a valid, fitting plan that honours the ablation.
func TestAblationConfigsProduceValidPlans(t *testing.T) {
	m := lambdaModel(t)
	units := unitsOf(t, "vgg16")
	for _, cfg := range []Config{
		{DisableMaster: true},
		{DisableGrouping: true},
		{DisableMaster: true, DisableGrouping: true},
		{PartCounts: []int{8}},
	} {
		plan, pred, err := LatencyOptimal(m, units, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if err := plan.Validate(units); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if pred.OOM {
			t.Fatalf("%+v: OOM", cfg)
		}
		if cfg.DisableMaster {
			for _, gp := range plan.Groups {
				if gp.OnMaster {
					t.Fatalf("%+v: plan uses master", cfg)
				}
			}
		}
		if cfg.DisableGrouping {
			for _, gp := range plan.Groups {
				if gp.Last != gp.First {
					t.Fatalf("%+v: plan groups units", cfg)
				}
			}
		}
	}
}

// The planner refuses a chain holding a layer kind the model was not fitted
// for, with the model's error, and the table prices units lazily: a group
// before the first unpriced unit still has a price, and a group that reaches
// it fails with the same error, every time it is asked.
func TestLatencyOptimalUnpricedKind(t *testing.T) {
	m := lambdaModel(t)
	for _, c := range []struct{ model, want string }{
		{"mobilenet-mini", "perf: no model for layer kind DepthwiseConv2D"},
		{"inception-mini", "perf: no model for layer kind Concat"},
	} {
		units := unitsOf(t, c.model)
		if _, _, err := LatencyOptimal(m, units, Config{}); err == nil || err.Error() != c.want {
			t.Errorf("%s: LatencyOptimal error %v, want %q", c.model, err, c.want)
		}
		first := slices.IndexFunc(units, func(u *partition.Unit) bool {
			_, err := m.UnitTimeMs(u)
			return err != nil
		})
		if first < 1 {
			t.Fatalf("%s: first unpriced unit %d, want one after a priced unit", c.model, first)
		}
		tab := m.Table(units, 1)
		whole := partition.Option{Dim: partition.DimNone, Parts: 1}
		if _, err := tab.Group(partition.GroupPlan{First: 0, Last: first - 1, Option: whole, OnMaster: true}); err != nil {
			t.Errorf("%s: units 0..%d: %v", c.model, first-1, err)
		}
		for i := 0; i < 2; i++ {
			_, err := tab.Group(partition.GroupPlan{First: 0, Last: first, Option: whole, OnMaster: true})
			if err == nil || err.Error() != c.want {
				t.Errorf("%s: units 0..%d, ask %d: error %v, want %q", c.model, first, i, err, c.want)
			}
		}
	}
}
