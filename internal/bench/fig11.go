package bench

import (
	"fmt"
	"strings"

	"gillis/internal/core"
	"gillis/internal/partition"
	"gillis/internal/platform"
	"gillis/internal/runtime"
	"gillis/internal/simnet"
	"gillis/internal/stats"
)

// Fig11Row compares Gillis against the Pipeline baseline for one model too
// large to serve from a single function.
type Fig11Row struct {
	Model string
	// PipelineMs is the end-to-end pipelined latency, decomposed into
	// computation and network (weight-loading) time as in the paper's bars.
	PipelineMs, PipelineComputeMs, PipelineLoadMs float64
	GillisMs                                      float64
	Speedup                                       float64
}

// Fig11Result reproduces Fig. 11 (§V-B): for WRN-34-5 and WRN-50-4/5 —
// models that OOM a single function — Gillis's parallel execution beats the
// S3-staged Pipeline by ~8-9×, whose latency is dominated by weight
// loading.
type Fig11Result struct {
	Rows []Fig11Row
}

// Fig11 runs the experiment on Lambda.
func Fig11(ctx *Context) (*Fig11Result, error) {
	names := []string{"wrn34-5", "wrn50-4", "wrn50-5"}
	if ctx.Quick {
		names = []string{"wrn34-5"}
	}
	m, err := ctx.Model("lambda")
	if err != nil {
		return nil, err
	}
	cfg := m.Platform()
	res := &Fig11Result{}
	for i, name := range names {
		units, err := ctx.Units(name)
		if err != nil {
			return nil, err
		}
		plan, _, err := core.LatencyOptimal(m, units, core.Config{})
		if err != nil {
			return nil, err
		}
		seed := ctx.Seed + int64(i)*13
		pipe, err := measurePipeline(cfg, seed, units, ctx.queries())
		if err != nil {
			return nil, err
		}
		gillis := measurePlan(cfg, seed+1, units, plan, ctx.queries())
		if gillis.Err != "" {
			return nil, fmt.Errorf("bench: gillis %s: %s", name, gillis.Err)
		}
		row := Fig11Row{
			Model:             name,
			PipelineMs:        pipe.meanMs,
			PipelineComputeMs: pipe.computeMs,
			PipelineLoadMs:    pipe.loadMs,
			GillisMs:          gillis.MeanMs,
			Speedup:           pipe.meanMs / gillis.MeanMs,
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

type pipelineMeasurement struct {
	meanMs, computeMs, loadMs float64
}

// measurePipeline deploys the Pipeline baseline and serves warm queries.
func measurePipeline(cfg platform.Config, seed int64, units []*partition.Unit, n int) (pipelineMeasurement, error) {
	var lats, comps, loads []float64
	_, err := platform.Run(cfg, seed, func(p *platform.Platform, proc *simnet.Proc) error {
		d, err := runtime.DeployPipeline(p, units, runtime.ShapeOnly)
		if err != nil {
			return err
		}
		if err := d.Prewarm(); err != nil {
			return err
		}
		for i := -1; i < n; i++ { // i = -1 is the warm-up query
			r, err := d.Serve(proc, nil)
			if err != nil {
				return err
			}
			if i >= 0 {
				lats = append(lats, r.LatencyMs)
				comps = append(comps, r.ComputeMs)
				loads = append(loads, r.LoadMs)
			}
		}
		return nil
	})
	if err != nil {
		return pipelineMeasurement{}, err
	}
	return pipelineMeasurement{
		meanMs:    stats.Mean(lats),
		computeMs: stats.Mean(comps),
		loadMs:    stats.Mean(loads),
	}, nil
}

// Table renders the figure as text.
func (r *Fig11Result) Table() string {
	var sb strings.Builder
	sb.WriteString("Fig 11. Serving large models: Pipeline vs Gillis on Lambda (ms)\n")
	sb.WriteString("  model  | pipeline | pipe-comp | pipe-net |  gillis | speedup\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%8s | %8.0f | %9.0f | %8.0f | %7.0f | %.1fx\n",
			row.Model, row.PipelineMs, row.PipelineComputeMs, row.PipelineLoadMs, row.GillisMs, row.Speedup)
	}
	return sb.String()
}
