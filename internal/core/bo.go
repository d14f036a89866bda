package core

import (
	"fmt"
	"math"
	"math/rand"

	"gillis/internal/bayesopt"
	"gillis/internal/partition"
	"gillis/internal/perf"
)

// BOConfig tunes the Bayesian-optimization baseline. Like the RL planner it
// searches single-query plans over partition.DefaultPartCounts.
type BOConfig struct {
	// Iters is the number of strategies evaluated (default 80).
	Iters int
	// Seed makes the search reproducible.
	Seed int64
}

// BOResult reports the Bayesian-optimization outcome.
type BOResult struct {
	Plan  *partition.Plan
	Pred  perf.PlanPrediction
	Met   bool
	Evals int
}

// BayesOpt searches for a cost-minimal SLO-compliant strategy with the
// Cherrypick-style black-box baseline (§V-C): strategies are encoded as
// points of a hypercube, the billed cost (with an SLO-violation penalty) is
// modeled as a Gaussian process, and expected improvement drives sampling.
// Unlike the RL planner it cannot exploit the performance model's structure
// — it only observes point evaluations — which is exactly the disadvantage
// the paper demonstrates.
func BayesOpt(m *perf.Model, units []*partition.Unit, tmaxMs float64, cfg BOConfig) (BOResult, error) {
	if err := validateInputs(m, units); err != nil {
		return BOResult{}, err
	}
	if tmaxMs <= 0 {
		return BOResult{}, fmt.Errorf("core: SLO T_max must be positive, got %v", tmaxMs)
	}
	iters := cfg.Iters
	if iters <= 0 {
		iters = 80
	}
	t := m.Table(units, 1)
	budget := int64(m.Platform().WeightBudgetMB) * 1e6
	opts := newGroupOptions()
	dims := 2 * len(units)

	var best BOResult
	bestScore := math.Inf(1)
	objective := func(x []float64) float64 {
		plan, err := decodePlan(x, units, opts, t, budget)
		if err != nil {
			return 1e9
		}
		bp, err := t.Plan(plan)
		if err != nil {
			return 1e9
		}
		pred := bp.PlanPrediction
		met := !pred.OOM && pred.LatencyMs <= tmaxMs
		score := float64(pred.BilledMs)
		if pred.OOM {
			score = 5e6
		} else if pred.LatencyMs > tmaxMs {
			score = float64(pred.BilledMs) + 50*(pred.LatencyMs-tmaxMs)
		}
		record := false
		switch {
		case best.Plan == nil:
			record = true
		case met != best.Met:
			record = met
		default:
			record = score < bestScore
		}
		if record {
			best.Plan, best.Pred, best.Met = plan, pred, met
			bestScore = score
		}
		return score
	}
	res, err := bayesopt.Minimize(objective, dims, iters, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return BOResult{}, err
	}
	best.Evals = res.Evals
	if best.Plan == nil {
		return BOResult{}, fmt.Errorf("core: BO found no valid plan in %d evaluations", res.Evals)
	}
	return best, nil
}

// decodePlan maps a point of [0,1]^(2n) to a strategy: coordinate 2i picks
// unit i's action (join the open group, or start a new group with an
// option), with infeasible choices snapped to the nearest feasible one;
// coordinate 2i+1 at a group's first unit decides master participation,
// within the master's weight budget.
func decodePlan(x []float64, units []*partition.Unit, opts *groupOptions, t *perf.Table, budget int64) (*partition.Plan, error) {
	n := len(units)
	type rawGroup struct {
		first, last int
		opt         partition.Option
		masterBit   float64
	}
	var groups []rawGroup
	k := len(opts.options)
	for i := 0; i < n; i++ {
		// Action 0 = join (given a wide slot so random points favor fused,
		// low-communication strategies), 1..K = new group with an option.
		var a int
		if x[2*i] < 0.35 {
			a = 0
		} else {
			a = 1 + int((x[2*i]-0.35)/0.65*float64(k))
			if a > k {
				a = k
			}
		}
		feasible := func(a int) bool {
			if a == 0 {
				if len(groups) == 0 {
					return false
				}
				g := groups[len(groups)-1]
				return partition.Feasible(units, g.first, i, g.opt)
			}
			return partition.Feasible(units, i, i, opts.options[a-1])
		}
		if !feasible(a) {
			found := false
			for d := 1; d <= k && !found; d++ {
				for _, c := range []int{a - d, a + d} {
					if c >= 0 && c <= k && feasible(c) {
						a = c
						found = true
						break
					}
				}
			}
			if !found {
				return nil, fmt.Errorf("core: no feasible action for unit %d", i)
			}
		}
		if a == 0 {
			groups[len(groups)-1].last = i
		} else {
			groups = append(groups, rawGroup{first: i, last: i, opt: opts.options[a-1], masterBit: x[2*i+1]})
		}
	}
	remaining := budget
	plan := &partition.Plan{Model: partition.ModelName(units)}
	for _, g := range groups {
		ext, err := t.Extent(g.first, g.last, g.opt)
		if err != nil {
			return nil, err
		}
		onMaster := g.masterBit > 0.5 && ext.WeightBytes <= remaining
		if onMaster {
			remaining -= ext.WeightBytes
		}
		plan.Groups = append(plan.Groups, partition.GroupPlan{First: g.first, Last: g.last, Option: g.opt, OnMaster: onMaster})
	}
	return plan, nil
}
