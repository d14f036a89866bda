package core

import (
	"fmt"
	"math"

	"gillis/internal/partition"
	"gillis/internal/perf"
	"gillis/internal/platform"
)

// BFConfig tunes the brute-force baseline. It enumerates single-query plans
// over partition.DefaultPartCounts.
type BFConfig struct {
	// MaxNodes caps the search-tree size (default 2,000,000); the search
	// reports Exhausted = false when the cap is hit (the paper notes full
	// enumeration takes over 24 hours even for VGG-11).
	MaxNodes int64
}

// BFResult reports the brute-force search outcome.
type BFResult struct {
	Plan      *partition.Plan
	Pred      perf.PlanPrediction
	Met       bool
	Nodes     int64
	Exhausted bool // true if the whole space was enumerated
}

// BruteForce enumerates all grouping / parallelization / placement
// strategies that satisfy the latency SLO and returns the cheapest (§V-C
// baseline 1). Branch-and-bound pruning on accumulated latency and cost
// keeps it tractable for small models; MaxNodes bounds the worst case.
func BruteForce(m *perf.Model, units []*partition.Unit, tmaxMs float64, cfg BFConfig) (BFResult, error) {
	if err := validateInputs(m, units); err != nil {
		return BFResult{}, err
	}
	if tmaxMs <= 0 {
		return BFResult{}, fmt.Errorf("core: SLO T_max must be positive, got %v", tmaxMs)
	}
	maxNodes := cfg.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 2_000_000
	}
	t := m.Table(units, 1)
	budget := int64(m.Platform().WeightBudgetMB) * 1e6

	res := BFResult{Exhausted: true}
	bestCost := int64(math.MaxInt64)
	var cur []partition.GroupPlan
	gran := m.Platform().BillingGranMs

	var dfs func(at int, latMs float64, workerBilled int64, masterBytes int64) error
	dfs = func(at int, latMs float64, workerBilled int64, masterBytes int64) error {
		if res.Nodes >= maxNodes {
			res.Exhausted = false
			return nil
		}
		res.Nodes++
		if at == len(units) {
			total := workerBilled + platform.Billed(latMs, gran)
			if latMs <= tmaxMs && total < bestCost {
				bestCost = total
				groups := make([]partition.GroupPlan, len(cur))
				copy(groups, cur)
				res.Plan = &partition.Plan{Model: partition.ModelName(units), Groups: groups}
			}
			return nil
		}
		for last := at; last < len(units); last++ {
			opts, err := partition.FeasibleOptions(units, at, last, partition.DefaultPartCounts)
			if err != nil {
				return err
			}
			for _, opt := range opts {
				ext, err := t.Extent(at, last, opt)
				if err != nil {
					return err
				}
				if ext.ResidentBytes(1) > budget {
					continue
				}
				for _, onMaster := range []bool{false, true} {
					nextMaster := masterBytes
					if onMaster {
						nextMaster += ext.WeightBytes
						if nextMaster > budget {
							continue
						}
					}
					pred, err := t.Group(partition.GroupPlan{First: at, Last: last, Option: opt, OnMaster: onMaster})
					if err != nil {
						return err
					}
					nextLat := latMs + pred.LatencyMs
					if nextLat > tmaxMs {
						continue // latency only grows; prune
					}
					nextBilled := workerBilled
					for _, w := range pred.WorkerMs {
						nextBilled += platform.Billed(w, gran)
					}
					// Lower bound on final cost prunes dominated branches.
					if nextBilled+platform.Billed(nextLat, gran) >= bestCost {
						continue
					}
					cur = append(cur, partition.GroupPlan{First: at, Last: last, Option: opt, OnMaster: onMaster})
					err = dfs(last+1, nextLat, nextBilled, nextMaster)
					cur = cur[:len(cur)-1]
					if err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	if err := dfs(0, 0, 0, 0); err != nil {
		return BFResult{}, err
	}
	if res.Plan == nil {
		return res, fmt.Errorf("core: brute force found no SLO-compliant plan (T_max=%v ms, %d nodes)", tmaxMs, res.Nodes)
	}
	pred, err := t.Plan(res.Plan)
	if err != nil {
		return BFResult{}, err
	}
	res.Pred = pred.PlanPrediction
	res.Met = !pred.OOM && pred.LatencyMs <= tmaxMs
	return res, nil
}
