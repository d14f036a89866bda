package core

import (
	"fmt"
	"math"

	"gillis/internal/partition"
	"gillis/internal/perf"
)

// LatencyOptimal computes the latency-minimal layer grouping and
// parallelization strategy via the paper's dynamic program (§IV-B):
//
//	L(j, m) = min over k ≤ j, budget b:  L(k, m−b) + t(group k..j, b)
//
// where t(·, b) is Algorithm 1 ("FindOptLatency"): the best latency over
// all feasible parallelization options of the group, running the group
// worker-only when its partition does not fit the master's budget b and on
// master + workers when it does. Memory is discretized in 100 MB steps.
func LatencyOptimal(m *perf.Model, units []*partition.Unit, cfg Config) (*partition.Plan, perf.PlanPrediction, error) {
	if err := validateInputs(m, units); err != nil {
		return nil, perf.PlanPrediction{}, err
	}
	cfg = cfg.withDefaults()
	t := m.Table(units, cfg.Batch)
	plan, err := dpSearch(m, units, cfg, t, latencyScore)
	if err != nil {
		return nil, perf.PlanPrediction{}, err
	}
	pred, err := t.Plan(plan)
	if err != nil {
		return nil, perf.PlanPrediction{}, err
	}
	return plan, pred.PlanPrediction, nil
}

// latencyScore is the latency-optimal DP's per-group objective.
func latencyScore(p perf.GroupPrediction) float64 { return p.LatencyMs }

// dpSearch runs the grouping dynamic program against an arbitrary additive
// per-group objective: LatencyOptimal scores a group by its predicted
// latency, the throughput planner's cost candidate by its billed-time
// proxy. Group predictions (and hence scores) come from t, a table at
// cfg.Batch. cfg must already have defaults applied.
func dpSearch(m *perf.Model, units []*partition.Unit, cfg Config, t *perf.Table, score func(perf.GroupPrediction) float64) (*partition.Plan, error) {
	n := len(units)
	levels := int(int64(m.Platform().WeightBudgetMB) * 1e6 / memStepBytes)
	budgetBytes := int64(m.Platform().WeightBudgetMB) * 1e6

	// best[j][l]: optimal latency covering units [0, j) with l memory levels
	// available on the master.
	best := make([][]float64, n+1)
	type choice struct {
		k        int
		opt      partition.Option
		onMaster bool
		levels   int // master levels charged by this group
	}
	back := make([][]choice, n+1)
	for j := 0; j <= n; j++ {
		best[j] = make([]float64, levels+1)
		back[j] = make([]choice, levels+1)
		for l := range best[j] {
			if j > 0 {
				best[j][l] = math.Inf(1)
			}
		}
	}

	for j := 1; j <= n; j++ {
		kMin := 0
		if cfg.DisableGrouping {
			kMin = j - 1 // ablation: single-unit groups only
		}
		for k := kMin; k < j; k++ {
			opts, err := partition.FeasibleOptions(units, k, j-1, cfg.PartCounts)
			if err != nil {
				return nil, err
			}
			for _, opt := range opts {
				ext, err := t.Extent(k, j-1, opt)
				if err != nil {
					return nil, err
				}
				// Partition too large to fit into any function (Algorithm 1
				// line 7); activations scale with the batch.
				if ext.ResidentBytes(cfg.Batch) > budgetBytes {
					continue
				}
				charge := int((ext.WeightBytes + memStepBytes - 1) / memStepBytes)

				// Worker-only execution: consumes no master memory.
				pred, err := t.Group(partition.GroupPlan{First: k, Last: j - 1, Option: opt})
				if err != nil {
					return nil, err
				}
				for l := 0; l <= levels; l++ {
					if cand := best[k][l] + score(pred); cand < best[j][l] {
						best[j][l] = cand
						back[j][l] = choice{k: k, opt: opt, onMaster: false}
					}
				}
				// Master participation: charge the master's resident weights
				// against the budget (Algorithm 1 lines 9-12).
				if charge <= levels && !cfg.DisableMaster {
					mpred, err := t.Group(partition.GroupPlan{First: k, Last: j - 1, Option: opt, OnMaster: true})
					if err != nil {
						return nil, err
					}
					for l := charge; l <= levels; l++ {
						if cand := best[k][l-charge] + score(mpred); cand < best[j][l] {
							best[j][l] = cand
							back[j][l] = choice{k: k, opt: opt, onMaster: true, levels: charge}
						}
					}
				}
			}
		}
	}

	if math.IsInf(best[n][levels], 1) {
		return nil, fmt.Errorf("core: no feasible plan for %d units within %d MB functions",
			n, m.Platform().WeightBudgetMB)
	}

	// Backtrack.
	var rev []partition.GroupPlan
	j, l := n, levels
	for j > 0 {
		ch := back[j][l]
		rev = append(rev, partition.GroupPlan{First: ch.k, Last: j - 1, Option: ch.opt, OnMaster: ch.onMaster})
		j = ch.k
		if ch.onMaster {
			l -= ch.levels
		}
	}
	plan := &partition.Plan{Model: modelName(units), Groups: reverseGroups(rev)}
	if err := plan.Validate(units); err != nil {
		return nil, fmt.Errorf("core: DP produced invalid plan: %w", err)
	}
	return plan, nil
}

// memStepBytes discretizes the master memory budget in the DP.
const memStepBytes int64 = 100e6

func reverseGroups(rev []partition.GroupPlan) []partition.GroupPlan {
	out := make([]partition.GroupPlan, len(rev))
	for i, g := range rev {
		out[len(rev)-1-i] = g
	}
	return out
}
