// SLO-aware serving: train the hierarchical RL planner (§IV-C) to serve
// VGG-16 under a latency SLO at minimum billed cost, then compare against
// the latency-optimal plan's cost — demonstrating the latency/cost
// trade-off Gillis's two modes expose.
package main

import (
	"fmt"
	"log"

	"gillis/internal/core"
	"gillis/internal/models"
	"gillis/internal/partition"
	"gillis/internal/perf"
	"gillis/internal/platform"
	"gillis/internal/runtime"
	"gillis/internal/simnet"
	"gillis/internal/stats"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	g, err := models.VGG(16)
	if err != nil {
		return err
	}
	units, err := partition.Linearize(g)
	if err != nil {
		return err
	}
	cfg := platform.AWSLambda()
	model, err := perf.Build(cfg, 1, 2, 300)
	if err != nil {
		return err
	}

	// Latency-optimal mode: as fast as possible, cost ignored.
	loPlan, loPred, err := core.LatencyOptimal(model, units, core.Config{})
	if err != nil {
		return err
	}
	fmt.Printf("latency-optimal: predicted %.0f ms at %d billed ms/query\n", loPred.LatencyMs, loPred.BilledMs)

	// SLO-aware mode: the user tolerates 2x the optimal latency; the RL
	// planner finds a cheaper strategy within that budget.
	tmax := loPred.LatencyMs * 2
	fmt.Printf("training RL planner for SLO T_max = %.0f ms...\n", tmax)
	res, err := core.SLOAware(model, units, tmax, core.SLOConfig{Episodes: 1500, Seed: 1})
	if err != nil {
		return err
	}
	if !res.Met {
		return fmt.Errorf("SLO not met (best latency %.0f ms)", res.Pred.LatencyMs)
	}
	fmt.Print(res.Plan)
	fmt.Printf("slo-aware: predicted %.0f ms at %d billed ms/query\n", res.Pred.LatencyMs, res.Pred.BilledMs)
	fmt.Printf("predicted cost saving vs latency-optimal: %.2fx\n\n",
		float64(loPred.BilledMs)/float64(res.Pred.BilledMs))

	// Serve both plans and compare measured cost.
	measure := func(plan *partition.Plan, seed int64) (float64, float64, error) {
		var lats, costs []float64
		_, err := platform.Run(cfg, seed, func(p *platform.Platform, proc *simnet.Proc) error {
			d, err := runtime.Deploy(p, units, plan, runtime.ShapeOnly)
			if err != nil {
				return err
			}
			if err := d.Prewarm(); err != nil {
				return err
			}
			for i := 0; i < 100; i++ {
				r, err := d.Serve(proc, nil)
				if err != nil {
					return err
				}
				lats = append(lats, r.LatencyMs)
				costs = append(costs, float64(r.BilledMs))
			}
			return nil
		})
		return stats.Mean(lats), stats.Mean(costs), err
	}
	loLat, loCost, err := measure(loPlan, 10)
	if err != nil {
		return err
	}
	saLat, saCost, err := measure(res.Plan, 11)
	if err != nil {
		return err
	}
	fmt.Printf("measured latency-optimal: %.0f ms, %.0f billed ms/query\n", loLat, loCost)
	fmt.Printf("measured slo-aware:       %.0f ms, %.0f billed ms/query (SLO %.0f ms: met=%v)\n",
		saLat, saCost, tmax, saLat <= tmax)
	fmt.Printf("measured cost saving: %.2fx\n", loCost/saCost)
	return nil
}
