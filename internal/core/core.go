// Package core implements Gillis's model-partitioning algorithms — the
// paper's primary contribution: the latency-optimal dynamic program with
// master memory budgeting (§IV-B, Algorithm 1), the SLO-aware hierarchical
// reinforcement learner that minimizes billed cost subject to a latency SLO
// (§IV-C), and the brute-force baseline used to validate optimality on
// small models (§V-C).
package core

import (
	"fmt"

	"gillis/internal/partition"
	"gillis/internal/perf"
)

// Config tunes the planners.
type Config struct {
	// PartCounts is the worker fan-out grid (default {2,4,8,16}).
	PartCounts []int
	// DisableMaster forbids master participation (ablation of the design
	// choice in Fig. 4: "the master can also help to compute a partition").
	DisableMaster bool
	// DisableGrouping forces every unit into its own group (ablation of the
	// coarse-grained parallelization of §III-C: layer-wise parallelization
	// with no fusion).
	DisableGrouping bool
	// Batch is the queries-per-round the plan is chosen for: group
	// predictions, feasibility checks, and the returned prediction all use
	// this batch size. Zero or one plans for single-query serving and
	// reproduces the unbatched planners bit-for-bit.
	Batch int
}

func (c Config) withDefaults() Config {
	if len(c.PartCounts) == 0 {
		c.PartCounts = partition.DefaultPartCounts
	}
	if c.Batch < 1 {
		c.Batch = 1
	}
	return c
}

// validateInputs checks planner preconditions shared by all algorithms.
func validateInputs(m *perf.Model, units []*partition.Unit) error {
	if m == nil {
		return fmt.Errorf("core: nil performance model")
	}
	if len(units) == 0 {
		return fmt.Errorf("core: no units to plan")
	}
	return nil
}
