// Platform comparison: serve the same model on all three platforms the
// paper evaluates (AWS Lambda, Google Cloud Functions, KNIX) and show how
// platform characteristics — billing granularity, network bandwidth,
// invocation overhead — change both the optimal plan and the achieved
// latency (§V-B, Figs. 9-10).
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
	fmt.Println("serving VGG-16 on three serverless platforms")
	fmt.Println("platform | default ms | gillis ms | speedup | widest group | billed ms/query")

	for i, name := range []string{"lambda", "gcf", "knix"} {
		cfg, err := platform.ByName(name)
		if err != nil {
			return err
		}
		model, err := perf.Build(cfg, int64(i+1), 2, 300)
		if err != nil {
			return err
		}
		plan, _, err := core.LatencyOptimal(model, units, core.Config{})
		if err != nil {
			return err
		}
		widest := 1
		for _, gp := range plan.Groups {
			if gp.Option.Parts > widest {
				widest = gp.Option.Parts
			}
		}
		defaultMs, _, err := serve(cfg, int64(100+i), units, nil)
		if err != nil {
			return err
		}
		gillisMs, cost, err := serve(cfg, int64(200+i), units, plan)
		if err != nil {
			return err
		}
		fmt.Printf("%8s | %10.0f | %9.0f | %6.2fx | %12d | %.0f\n",
			name, defaultMs, gillisMs, defaultMs/gillisMs, widest, cost)
	}
	return nil
}

// serve measures a plan (or Default when plan is nil) with 60 warm queries.
func serve(cfg platform.Config, seed int64, units []*partition.Unit, plan *partition.Plan) (float64, float64, error) {
	var lats, costs []float64
	_, err := platform.Run(cfg, seed, func(p *platform.Platform, proc *simnet.Proc) error {
		var d *runtime.Deployment
		var err error
		if plan == nil {
			d, err = runtime.DeployDefault(p, units, runtime.ShapeOnly)
		} else {
			d, err = runtime.Deploy(p, units, plan, runtime.ShapeOnly)
		}
		if err != nil {
			return err
		}
		if err := d.Prewarm(); err != nil {
			return err
		}
		for i := 0; i < 60; i++ {
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
