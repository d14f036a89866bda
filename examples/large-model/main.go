// Large-model serving: WRN-50-5 has ~2.4 GB of weights — far beyond a
// single 1.4 GB serverless function. This example shows the three serving
// strategies from the paper's §V-B side by side: Default (fails with OOM),
// Pipeline (a single function streaming weights from S3), and Gillis
// (fork-join model parallelism), reproducing the Fig. 11 comparison.
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
	g, err := models.WideResNet(50, 5)
	if err != nil {
		return err
	}
	units, err := partition.Linearize(g)
	if err != nil {
		return err
	}
	fmt.Printf("WRN-50-5: %.1f GFLOPs per query, %.0f MB of weights, %d units\n",
		gflops(units), float64(g.ParamBytes())/1e6, len(units))

	cfg := platform.AWSLambda()
	fmt.Printf("platform: %s (%d MB weight budget per function)\n\n", cfg.Name, cfg.WeightBudgetMB)

	// Strategy 1: Default single-function serving — OOM.
	_, err = platform.Run(cfg, 1, func(p *platform.Platform, _ *simnet.Proc) error {
		_, err := runtime.DeployDefault(p, units, runtime.ShapeOnly)
		return err
	})
	if err == nil {
		return fmt.Errorf("default deployment unexpectedly succeeded")
	}
	fmt.Printf("default serving: %v\n\n", err)

	// Strategy 2: Pipeline over object storage.
	const queries = 20
	var pipeLat, pipeLoad, pipeComp []float64
	_, err = platform.Run(cfg, 2, func(p *platform.Platform, proc *simnet.Proc) error {
		d, err := runtime.DeployPipeline(p, units, runtime.ShapeOnly)
		if err != nil {
			return err
		}
		fmt.Printf("pipeline: staged into %d storage chunks\n", d.Chunks())
		if err := d.Prewarm(); err != nil {
			return err
		}
		for i := 0; i < queries; i++ {
			r, err := d.Serve(proc, nil)
			if err != nil {
				return err
			}
			pipeLat = append(pipeLat, r.LatencyMs)
			pipeLoad = append(pipeLoad, r.LoadMs)
			pipeComp = append(pipeComp, r.ComputeMs)
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("pipeline latency: %.0f ms/query (%.0f ms loading weights, %.0f ms computing)\n\n",
		stats.Mean(pipeLat), stats.Mean(pipeLoad), stats.Mean(pipeComp))

	// Strategy 3: Gillis fork-join parallelism with the latency-optimal
	// plan.
	model, err := perf.Build(cfg, 3, 2, 300)
	if err != nil {
		return err
	}
	plan, pred, err := core.LatencyOptimal(model, units, core.Config{})
	if err != nil {
		return err
	}
	fmt.Print(plan)

	var lat []float64
	_, err = platform.Run(cfg, 4, func(p *platform.Platform, proc *simnet.Proc) error {
		d, err := runtime.Deploy(p, units, plan, runtime.ShapeOnly)
		if err != nil {
			return err
		}
		if err := d.Prewarm(); err != nil {
			return err
		}
		for i := 0; i < queries; i++ {
			r, err := d.Serve(proc, nil)
			if err != nil {
				return err
			}
			lat = append(lat, r.LatencyMs)
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("gillis latency: %.0f ms/query (predicted %.0f ms)\n", stats.Mean(lat), pred.LatencyMs)
	fmt.Printf("speedup over pipeline: %.1fx\n", stats.Mean(pipeLat)/stats.Mean(lat))
	return nil
}

func gflops(units []*partition.Unit) float64 {
	var total int64
	for _, u := range units {
		total += u.FLOPs
	}
	return float64(total) / 1e9
}
