package main

import (
	"fmt"
	"runtime"

	"gillis/internal/bench"
	"gillis/internal/core"
	"gillis/internal/graph"
	"gillis/internal/models"
	"gillis/internal/partition"
	"gillis/internal/perf"
	"gillis/internal/platform"
)

// The planner figure times a cold plan, what every server boot, replay
// set-up and adaptive replan pays: profiling a fresh performance model
// (perf.Build) and the latency-optimal dynamic program on it
// (core.LatencyOptimal, §IV-B), on a fresh prediction table. Its JSON form
// is the checked-in BENCH_planner.json, in the kernel report's format: one
// row per model at parallelism 1, as the planner runs on one goroutine.

// plannerModels are the chains the planner figure plans: the model the
// http_resnet34 and sim_replay workloads serve, the paper's two larger
// CNNs, and gillis-server's built-in model.
func plannerModels() ([]*graph.Graph, error) {
	var gs []*graph.Graph
	for _, name := range []string{"resnet34", "vgg16", "wrn50-5"} {
		g, err := models.ByName(name)
		if err != nil {
			return nil, err
		}
		gs = append(gs, g)
	}
	return append(gs, models.DemoCNN()), nil
}

// planner times a cold plan of every plannerModels chain, each the median
// of several passes.
func planner(c *bench.Context) (*KernelReport, error) {
	gs, err := plannerModels()
	if err != nil {
		return nil, err
	}
	report := &KernelReport{title: "Cold plans: perf.Build + core.LatencyOptimal", GoMaxProcs: runtime.GOMAXPROCS(0), Levels: []int{1}}
	for _, g := range gs {
		units, err := partition.Linearize(g)
		if err != nil {
			return nil, err
		}
		plan := func() error {
			m, err := perf.Build(platform.AWSLambda(), 1, 2, 300)
			if err != nil {
				return err
			}
			_, _, err = core.LatencyOptimal(m, units, core.Config{})
			return err
		}
		nsOp, allocs, bytes, err := measureMedian(c, plan)
		if err != nil {
			return nil, fmt.Errorf("planner %s: %w", g.Name, err)
		}
		report.Results = append(report.Results, KernelResult{
			Kernel:      g.Name,
			Parallelism: 1,
			NsPerOp:     nsOp,
			AllocsPerOp: allocs,
			BytesPerOp:  bytes,
			Speedup:     1,
		})
	}
	return report, nil
}
