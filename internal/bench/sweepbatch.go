package bench

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"gillis/internal/batching"
	"gillis/internal/core"
	"gillis/internal/gateway"
	"gillis/internal/partition"
	"gillis/internal/workload"
)

// The SweepBatch figure measures cross-query batching end to end: Poisson
// arrival traces replay through the batching gateway at batch size × rate ×
// planner, comparing the latency-optimal plan against the throughput-optimal
// plan chosen *for* that batch size (DESIGN.md §13). The axes are modeled
// throughput (queries/s), tail latency, and serving cost per query — billed
// milliseconds standing in for dollars. The JSON output is the checked-in
// BENCH_batch.json baseline.

// sweepBatchModel is the served model.
const sweepBatchModel = "resnet50"

// sweepBatchDelay bounds how long a forming batch may hold its oldest query.
const sweepBatchDelay = 250 * time.Millisecond

// SweepBatchRow is one (batch size, arrival rate, planner) gateway replay.
type SweepBatchRow struct {
	Batch   int     `json:"batch"`
	RateQPS float64 `json:"rate_qps"`
	// Planner is the plan-selection policy: "latency-opt" or "throughput-opt".
	Planner string `json:"planner"`
	// PredictedQP1K is the perf model's queries-per-1k-billed-ms objective
	// for the chosen plan at this batch size.
	PredictedQP1K float64 `json:"predicted_qp1k"`
	// Report is the gateway's full deterministic load report.
	Report *gateway.LoadReport `json:"report"`
	// ThroughputQPS is served queries per second of makespan.
	ThroughputQPS float64 `json:"throughput_qps"`
	// CostPerQueryMs is billed milliseconds (prewarming included) per
	// served query; QueriesPer1KBilledMs is its reciprocal scaled to a
	// thousand billed milliseconds — the throughput-per-cost axis.
	CostPerQueryMs       float64 `json:"cost_per_query_ms"`
	QueriesPer1KBilledMs float64 `json:"queries_per_1k_billed_ms"`
}

// SweepBatchReport is the full sweep.
type SweepBatchReport struct {
	Model    string          `json:"model"`
	Platform string          `json:"platform"`
	SLOMs    float64         `json:"slo_ms"`
	Rows     []SweepBatchRow `json:"rows"`
}

// SweepBatch runs the sweep on Lambda: batch size × arrival rate × planner.
// Quick mode trims to the highest rate over a short horizon.
func SweepBatch(ctx *Context) (*SweepBatchReport, error) {
	batches := []int{1, 4, 8}
	rates := []float64{4, 8}
	horizon := 30 * time.Second
	if ctx.Quick {
		rates = rates[1:]
		horizon = 12 * time.Second
	}
	units, err := ctx.Units(sweepBatchModel)
	if err != nil {
		return nil, err
	}
	pm, err := ctx.Model("lambda")
	if err != nil {
		return nil, err
	}
	cfg := pm.Platform()

	// Calibrate the SLO from warm single-query serving on the batch-1
	// latency-optimal plan, with headroom for batch forming (the delay
	// bound) and batched rounds.
	calPlan, _, err := core.LatencyOptimal(pm, units, core.Config{})
	if err != nil {
		return nil, err
	}
	warmMs, err := calibrateWarmMs(cfg, ctx.Seed, units, calPlan)
	if err != nil {
		return nil, fmt.Errorf("bench: batch calibration: %w", err)
	}
	maxBatch := batches[len(batches)-1]
	sloMs := round3(float64(maxBatch)*warmMs + float64(sweepBatchDelay)/1e6 + 0.6*cfg.ColdStartMs)

	report := &SweepBatchReport{Model: sweepBatchModel, Platform: "lambda", SLOMs: sloMs}
	for _, batch := range batches {
		pcfg := core.Config{Batch: batch}
		latPlan, _, err := core.LatencyOptimal(pm, units, pcfg)
		if err != nil {
			return nil, err
		}
		thrPlan, _, err := core.ThroughputOptimal(pm, units, pcfg)
		if err != nil {
			return nil, err
		}
		for _, pl := range []struct {
			name string
			plan *partition.Plan
		}{
			{"latency-opt", latPlan},
			{"throughput-opt", thrPlan},
		} {
			pred, err := pm.Table(units, batch).Plan(pl.plan)
			if err != nil {
				return nil, err
			}
			for ri, rate := range rates {
				arrivals, err := workload.Poisson(rand.New(rand.NewSource(ctx.Seed+int64(ri)*13)), rate, horizon)
				if err != nil {
					return nil, err
				}
				maxInFlight := 2*int(math.Ceil(rate*warmMs/1000)) + 2
				gcfg := gateway.Config{
					MaxInFlight: maxInFlight,
					QueueCap:    2 * maxInFlight,
					SLOMs:       sloMs,
				}
				if batch > 1 {
					gcfg.Batch = batching.Config{
						MaxBatch:   batch,
						MaxDelay:   sweepBatchDelay,
						EstServeMs: float64(batch) * warmMs,
					}
				}
				rep, _, err := replay(cfg, ctx.Seed+int64(ri)*13, deployPlan(units, pl.plan), arrivals, gcfg)
				if err != nil {
					return nil, fmt.Errorf("bench: batch %d@%g/%s: %w", batch, rate, pl.name, err)
				}
				row := SweepBatchRow{
					Batch: batch, RateQPS: rate, Planner: pl.name,
					PredictedQP1K: round3(pred.QueriesPer1KBilledMs),
					Report:        rep,
				}
				if rep.MakespanMs > 0 {
					row.ThroughputQPS = round3(float64(rep.Served) / (rep.MakespanMs / 1000))
				}
				if billed := rep.BilledMs + rep.PrewarmBilledMs; billed > 0 && rep.Served > 0 {
					row.CostPerQueryMs = round3(float64(billed) / float64(rep.Served))
					row.QueriesPer1KBilledMs = round3(float64(rep.Served) * 1000 / float64(billed))
				}
				report.Rows = append(report.Rows, row)
			}
		}
	}
	return report, nil
}

// At returns the row for one (batch, rate, planner) combination.
func (r *SweepBatchReport) At(batch int, rate float64, planner string) *SweepBatchRow {
	for i := range r.Rows {
		row := &r.Rows[i]
		if row.Batch == batch && row.RateQPS == rate && row.Planner == planner {
			return row
		}
	}
	return nil
}

// MaxBatch returns the largest batch size in the sweep.
func (r *SweepBatchReport) MaxBatch() int {
	max := 0
	for _, row := range r.Rows {
		if row.Batch > max {
			max = row.Batch
		}
	}
	return max
}

// Table renders the sweep in the figure runners' tabular style.
func (r *SweepBatchReport) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Batch sweep: %s on %s behind the batching gateway (SLO %.0f ms)\n", r.Model, r.Platform, r.SLOMs)
	fmt.Fprintf(&sb, "%5s %5s %-15s │ %6s %8s %7s %7s %5s │ %9s %8s %8s\n",
		"batch", "rate", "planner", "slo%", "thruput", "p50", "p99", "shed", "cost/qry", "q/1kbms", "pred")
	for _, row := range r.Rows {
		rep := row.Report
		fmt.Fprintf(&sb, "%5d %5.0f %-15s │ %6.1f %8.2f %7.0f %7.0f %5d │ %9.0f %8.3f %8.3f\n",
			row.Batch, row.RateQPS, row.Planner,
			rep.SLOPct, row.ThroughputQPS, rep.P50Ms, rep.P99Ms, rep.Shed,
			row.CostPerQueryMs, row.QueriesPer1KBilledMs, row.PredictedQP1K)
	}
	return strings.TrimRight(sb.String(), "\n")
}

// JSON renders the report as the BENCH_batch.json baseline format.
func (r *SweepBatchReport) JSON() ([]byte, error) { return baselineJSON(r) }
