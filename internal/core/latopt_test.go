package core

import (
	"math/rand"
	"testing"

	"gillis/internal/partition"
)

// randomValidPlan samples an arbitrary feasible strategy.
func randomValidPlan(rng *rand.Rand, units []*partition.Unit, pc *predCache, budget int64) (*partition.Plan, bool) {
	plan := &partition.Plan{Model: modelName(units)}
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
				ext, err := pc.extent(i, last, o)
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
		ext, err := pc.extent(i, last, *chosen)
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
		pc := newPredCache(m, units, 1)
		budget := int64(m.Platform().WeightBudgetMB) * 1e6
		rng := rand.New(rand.NewSource(99))
		tried := 0
		for tried < 60 {
			plan, ok := randomValidPlan(rng, units, pc, budget)
			if !ok {
				continue
			}
			if err := plan.Validate(units); err != nil {
				t.Fatalf("%s: random plan invalid: %v", name, err)
			}
			pred, err := m.PredictPlan(units, plan)
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
