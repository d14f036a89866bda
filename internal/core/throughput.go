package core

import (
	"fmt"

	"gillis/internal/partition"
	"gillis/internal/perf"
	"gillis/internal/platform"
)

// ThroughputOptimal chooses the plan that maximizes modeled throughput per
// cost — queries per thousand billed milliseconds — at cfg.Batch queries
// per round (DESIGN.md §13). It scores a small candidate set: the
// latency-optimal plan at that batch size, a cost-minimizing run of the
// same dynamic program (scoring each group by its billed-time proxy
// instead of its latency), and the single-function Default. Ties on the
// objective break toward lower latency. Because the latency-optimal plan
// is always a candidate, the winner is never worse than it on the
// objective; at batch 1 with a cheap Default, batching buys nothing and
// the planner degrades gracefully to the cheapest feasible plan.
func ThroughputOptimal(m *perf.Model, units []*partition.Unit, cfg Config) (*partition.Plan, perf.BatchPrediction, error) {
	if err := validateInputs(m, units); err != nil {
		return nil, perf.BatchPrediction{}, err
	}
	cfg = cfg.withDefaults()
	t := m.Table(units, cfg.Batch)
	latPlan, err := dpSearch(m, units, cfg, t, latencyScore)
	if err != nil {
		return nil, perf.BatchPrediction{}, err
	}

	// Cost-minimizing DP: same search space, scored by each group's billed
	// time — worker durations rounded up to the billing granule plus the
	// master-side latency the group adds to the master's own bill.
	gran := m.Platform().BillingGranMs
	costPlan, err := dpSearch(m, units, cfg, t, func(p perf.GroupPrediction) float64 {
		c := p.LatencyMs
		for _, w := range p.WorkerMs {
			c += float64(platform.Billed(w, gran))
		}
		return c
	})
	if err != nil {
		return nil, perf.BatchPrediction{}, err
	}

	var bestPlan *partition.Plan
	var best perf.BatchPrediction
	for _, plan := range []*partition.Plan{latPlan, costPlan, partition.DefaultPlan(modelName(units), units)} {
		bp, err := t.Plan(plan)
		if err != nil || bp.OOM {
			continue // e.g. Default for a model that outgrows one function
		}
		better := bestPlan == nil ||
			bp.QueriesPer1KBilledMs > best.QueriesPer1KBilledMs ||
			(bp.QueriesPer1KBilledMs == best.QueriesPer1KBilledMs && bp.LatencyMs < best.LatencyMs)
		if better {
			bestPlan, best = plan, bp
		}
	}
	if bestPlan == nil {
		return nil, perf.BatchPrediction{}, fmt.Errorf("core: no feasible throughput plan at batch %d", cfg.Batch)
	}
	return bestPlan, best, nil
}
