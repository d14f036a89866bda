package bench

import (
	"fmt"
	"strings"

	"gillis/internal/core"
	"gillis/internal/partition"
	"gillis/internal/platform"
	"gillis/internal/runtime"
	"gillis/internal/stats"
	"gillis/internal/trace"
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
		pipeMs, compMs, loadMs, err := measurePipeline(cfg, seed, units, ctx.queries())
		if err != nil {
			return nil, err
		}
		gillis := measurePlan(cfg, seed+1, units, plan, ctx.queries())
		if gillis.Err != "" {
			return nil, fmt.Errorf("bench: gillis %s: %s", name, gillis.Err)
		}
		res.Rows = append(res.Rows, Fig11Row{
			Model:             name,
			PipelineMs:        pipeMs,
			PipelineComputeMs: compMs,
			PipelineLoadMs:    loadMs,
			GillisMs:          gillis.MeanMs,
			Speedup:           pipeMs / gillis.MeanMs,
		})
	}
	return res, nil
}

// measurePipeline serves the Pipeline baseline traced, one warm-up and n
// warm queries, and returns their mean latency and its split off the trace:
// compute spans, and fetches of weights from object storage.
func measurePipeline(cfg platform.Config, seed int64, units []*partition.Unit, n int) (meanMs, computeMs, loadMs float64, err error) {
	var lats, comps, loads []float64
	deploy := func(p *platform.Platform) (*runtime.Deployment, error) {
		return runtime.DeployPipeline(p, units, runtime.ShapeOnly)
	}
	_, err = serveWarm(cfg, seed, deploy, true, 1, n, func(r runtime.Result, tr *trace.Trace, _ float64, err error) error {
		if err != nil {
			return err
		}
		lats = append(lats, r.LatencyMs)
		comps = append(comps, tr.KindMs(trace.KindCompute))
		loads = append(loads, tr.KindMs(trace.KindFetch))
		return nil
	})
	return stats.Mean(lats), stats.Mean(comps), stats.Mean(loads), err
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
