package bench

import (
	"errors"
	"fmt"
	"strings"

	"gillis/internal/core"
	"gillis/internal/partition"
	"gillis/internal/platform"
	"gillis/internal/runtime"
	"gillis/internal/simnet"
	"gillis/internal/stats"
)

// AblationRow reports one (model, variant) latency measurement.
type AblationRow struct {
	Model   string
	Variant string
	MeanMs  float64
	Groups  int
}

// AblationResult quantifies the design choices DESIGN.md calls out, beyond
// the paper's figures: coarse-grained layer grouping (§III-C) and master
// participation (§III-B) are each switched off in the latency-optimal
// planner to measure their contribution.
type AblationResult struct {
	Rows []AblationRow
}

// Ablations runs the study on Lambda.
func Ablations(ctx *Context) (*AblationResult, error) {
	names := []string{"vgg16", "wrn34-5"}
	if ctx.Quick {
		names = []string{"vgg16"}
	}
	m, err := ctx.Model("lambda")
	if err != nil {
		return nil, err
	}
	cfg := m.Platform()
	variants := []struct {
		name string
		conf core.Config
	}{
		{"full gillis", core.Config{}},
		{"no grouping", core.Config{DisableGrouping: true}},
		{"no master part.", core.Config{DisableMaster: true}},
		{"fixed fan-out 8", core.Config{PartCounts: []int{8}}},
	}
	res := &AblationResult{}
	for mi, name := range names {
		units, err := ctx.Units(name)
		if err != nil {
			return nil, err
		}
		for vi, v := range variants {
			plan, _, err := core.LatencyOptimal(m, units, v.conf)
			if err != nil {
				return nil, fmt.Errorf("bench: ablation %s/%s: %w", name, v.name, err)
			}
			meas := measurePlan(cfg, ctx.Seed+int64(mi*10+vi), units, plan, ctx.queries())
			if meas.Err != "" {
				return nil, fmt.Errorf("bench: ablation %s/%s: %s", name, v.name, meas.Err)
			}
			res.Rows = append(res.Rows, AblationRow{
				Model: name, Variant: v.name, MeanMs: meas.MeanMs, Groups: len(plan.Groups),
			})
		}
	}
	return res, nil
}

// Table renders the study as text.
func (r *AblationResult) Table() string {
	var sb strings.Builder
	sb.WriteString("Ablations. Latency-optimal serving with design choices disabled (Lambda, ms)\n")
	sb.WriteString("  model  |         variant | groups | latency\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%8s | %15s | %6d | %7.0f\n", row.Model, row.Variant, row.Groups, row.MeanMs)
	}
	return sb.String()
}

// BurstRow reports one (concurrency, prewarm) configuration.
type BurstRow struct {
	Concurrency int
	Prewarmed   bool
	MeanMs      float64
	P99Ms       float64
	ColdStarts  int
}

// BurstResult is an extension study: serverless elasticity under query
// bursts. N clients fire simultaneously at a Gillis deployment; with warm
// pools sized for the burst the tail stays flat, while cold pools pay
// instance start-up on the tail — the motivation for Gillis's warm-up
// pings (§III-A).
type BurstResult struct {
	Model string
	Rows  []BurstRow
}

// Burst runs the study for ResNet-50 on Lambda.
func Burst(ctx *Context) (*BurstResult, error) {
	m, err := ctx.Model("lambda")
	if err != nil {
		return nil, err
	}
	units, err := ctx.Units("resnet50")
	if err != nil {
		return nil, err
	}
	plan, _, err := core.LatencyOptimal(m, units, core.Config{})
	if err != nil {
		return nil, err
	}
	concurrencies := []int{1, 4, 16}
	if ctx.Quick {
		concurrencies = []int{1, 8}
	}
	res := &BurstResult{Model: "resnet50"}
	for _, n := range concurrencies {
		for _, warm := range []bool{false, true} {
			row, err := measureBurst(m.Platform(), ctx.Seed+int64(n), units, plan, n, warm)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// measureBurst fires n concurrent queries at one deployment.
func measureBurst(cfg platform.Config, seed int64, units []*partition.Unit, plan *partition.Plan, n int, warm bool) (BurstRow, error) {
	lats := make([]float64, 0, n)
	cold := 0
	errs := make([]error, n)
	_, err := platform.Run(cfg, seed, func(p *platform.Platform, proc *simnet.Proc) error {
		d, err := runtime.Deploy(p, units, plan, runtime.ShapeOnly)
		if err != nil {
			return err
		}
		if warm {
			// Warm pools sized for the whole burst.
			for i := 0; i < n; i++ {
				if err := d.Prewarm(); err != nil {
					return err
				}
			}
		}
		for i := 0; i < n; i++ {
			proc.Env().Go(fmt.Sprintf("client%d", i), func(proc *simnet.Proc) {
				r, err := d.Serve(proc, nil)
				if err != nil {
					errs[i] = err
					return
				}
				lats = append(lats, r.LatencyMs)
				if r.ColdStart {
					cold++
				}
			})
		}
		return nil
	})
	if err = errors.Join(append(errs, err)...); err != nil {
		return BurstRow{}, err
	}
	return BurstRow{
		Concurrency: n,
		Prewarmed:   warm,
		MeanMs:      stats.Mean(lats),
		P99Ms:       stats.Percentile(lats, 99),
		ColdStarts:  cold,
	}, nil
}

// Table renders the study as text.
func (r *BurstResult) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Burst study. %s under concurrent queries (Lambda)\n", r.Model)
	sb.WriteString("concurrency | prewarmed | mean ms | p99 ms | cold starts\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%11d | %9v | %7.0f | %6.0f | %d\n",
			row.Concurrency, row.Prewarmed, row.MeanMs, row.P99Ms, row.ColdStarts)
	}
	return sb.String()
}
