package core

import (
	"fmt"
	"strings"
	"testing"

	"gillis/internal/partition"
	"gillis/internal/perf"
)

// TestPlannersPinned pins what the three SLO-aware planners choose on VGG-11
// at fixed seeds, at a restrictive and a loose SLO (1.2× and 2.5× the
// latency-optimal plan's prediction, Fig 13's two columns): the REINFORCE
// learner, the Bayesian-optimization baseline and brute force. Each plan is
// recorded with the float bits of its predicted latency, its predicted bill
// and the planner's own counters. The throughput planner's choice on VGG-11
// and ResNet-34 at batch 1, 4 and 8 follows, with its objective's bits.
// Anything that reorganises a planner's
// configuration, its defaults or its use of the performance model must leave
// this file unchanged.
func TestPlannersPinned(t *testing.T) {
	m := lambdaModel(t)
	units := unitsOf(t, "vgg11")
	_, lo, err := LatencyOptimal(m, units, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for si, slo := range []float64{lo.LatencyMs * 1.2, lo.LatencyMs * 2.5} {
		fmt.Fprintf(&sb, "slo %s\n", bits(slo))
		seed := int64(42 + si)

		sa, err := SLOAware(m, units, slo, SLOConfig{Episodes: 200, Seed: seed})
		if err != nil {
			t.Fatalf("SLOAware at %.0f ms: %v", slo, err)
		}
		pinPlanner(&sb, fmt.Sprintf("SLOAware met %v episodes %d", sa.Met, sa.Episodes), sa.Plan, sa.Pred)

		bo, err := BayesOpt(m, units, slo, BOConfig{Iters: 30, Seed: seed})
		if err != nil {
			t.Fatalf("BayesOpt at %.0f ms: %v", slo, err)
		}
		pinPlanner(&sb, fmt.Sprintf("BayesOpt met %v evals %d", bo.Met, bo.Evals), bo.Plan, bo.Pred)

		bf, err := BruteForce(m, units, slo, BFConfig{MaxNodes: 200_000})
		if err != nil {
			t.Fatalf("BruteForce at %.0f ms: %v", slo, err)
		}
		pinPlanner(&sb, fmt.Sprintf("BruteForce met %v nodes %d exhausted %v", bf.Met, bf.Nodes, bf.Exhausted), bf.Plan, bf.Pred)
	}
	for _, name := range []string{"vgg11", "resnet34"} {
		units := unitsOf(t, name)
		for _, batch := range []int{1, 4, 8} {
			plan, bp, err := ThroughputOptimal(m, units, Config{Batch: batch})
			if err != nil {
				t.Fatalf("ThroughputOptimal %s batch %d: %v", name, batch, err)
			}
			fmt.Fprintf(&sb, "ThroughputOptimal %s batch %d\n%s  predicted latency %s billed %d queries/1k-billed-ms %s\n",
				name, batch, plan, bits(bp.LatencyMs), bp.BilledMs, bits(bp.QueriesPer1KBilledMs))
		}
	}
	checkPin(t, "testdata/planners.golden", sb.String())
}

func pinPlanner(sb *strings.Builder, head string, plan *partition.Plan, pred perf.PlanPrediction) {
	fmt.Fprintf(sb, "%s\n%s  predicted latency %s billed %d oom %v\n", head, plan, bits(pred.LatencyMs), pred.BilledMs, pred.OOM)
}
