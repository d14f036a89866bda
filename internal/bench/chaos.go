package bench

import (
	"fmt"
	"math"
	"strings"

	"gillis/internal/core"
	"gillis/internal/partition"
	"gillis/internal/platform"
	"gillis/internal/runtime"
	"gillis/internal/stats"
	"gillis/internal/trace"
)

// The chaos experiment stresses Gillis's fork-join serving on an imperfect
// platform: invocation failures, stragglers and warm-instance evictions are
// injected at increasing rates, and naive serving (fail on first error) is
// compared against resilient serving (retries + hedging + master fallback).
// The JSON output is the checked-in BENCH_chaos.json baseline; a later PR
// that regresses goodput or inflates cost under faults shows up as a diff.

// chaosRates is the default fault-rate sweep.
var chaosRates = []float64{0.02, 0.05, 0.10}

// chaosModel is the served model (the paper's main VGG workload).
const chaosModel = "vgg16"

// ChaosMeasurement summarizes one serving configuration under one fault
// profile.
type ChaosMeasurement struct {
	// Goodput is the fraction of queries that completed.
	Goodput float64 `json:"goodput"`
	// P50Ms / P99Ms are latency percentiles over completed queries.
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	// BilledMsPerQuery is the platform-level billed time divided by
	// attempted queries. It is authoritative: abandoned stragglers and
	// failed attempts are included.
	BilledMsPerQuery float64 `json:"billed_ms_per_query"`
	// CostInflation is BilledMsPerQuery over the fault-free naive baseline
	// on the same platform.
	CostInflation float64 `json:"cost_inflation"`
	// Resilience activity (zero for naive serving).
	Retries   int `json:"retries"`
	Hedges    int `json:"hedges"`
	Fallbacks int `json:"fallbacks"`
}

// ChaosRow is one (platform, fault rate) comparison.
type ChaosRow struct {
	Platform  string           `json:"platform"`
	FaultRate float64          `json:"fault_rate"`
	Naive     ChaosMeasurement `json:"naive"`
	Resilient ChaosMeasurement `json:"resilient"`
}

// ChaosReport is the full sweep plus the fault-free cost baselines the
// inflation figures are relative to.
type ChaosReport struct {
	Model     string             `json:"model"`
	Queries   int                `json:"queries"`
	Baselines map[string]float64 `json:"baseline_billed_ms_per_query"`
	Rows      []ChaosRow         `json:"rows"`
}

// chaosProfile maps a scalar fault rate onto a full profile: failures and
// 4x stragglers at the rate, evictions at half of it.
func chaosProfile(rate float64) platform.FaultProfile {
	return platform.FaultProfile{
		FailureProb:     rate,
		StragglerProb:   rate,
		StragglerFactor: 4,
		EvictionProb:    rate / 2,
	}
}

// resilientOpts is the resilient serving configuration under test.
func resilientOpts() []runtime.DeployOption {
	return []runtime.DeployOption{
		runtime.WithRetries(3, 25),
		runtime.WithHedging(95),
		runtime.WithMasterFallback(),
	}
}

// measureChaos serves n queries on a fresh faulty platform, with no warm-up
// query, and reports goodput, latency percentiles over survivors, and
// authoritative cost. A query that fails costs goodput; it does not end the run.
func measureChaos(cfg platform.Config, seed int64, units []*partition.Unit, plan *partition.Plan, n int, faults platform.FaultProfile, opts ...runtime.DeployOption) (ChaosMeasurement, error) {
	cfg.Faults = faults
	var (
		lats []float64
		m    ChaosMeasurement
	)
	p, err := serveWarm(cfg, seed, planOn(units, plan, opts...), false, 0, n, func(r runtime.Result, _ *trace.Trace, _ float64, err error) error {
		if err != nil {
			return nil
		}
		lats = append(lats, r.LatencyMs)
		m.Retries += r.Resilience.Retries
		m.Hedges += r.Resilience.Hedges
		m.Fallbacks += r.Resilience.Fallbacks
		return nil
	})
	if err != nil {
		return m, err
	}
	m.Goodput = round3(float64(len(lats)) / float64(n))
	m.P50Ms = round3(stats.Percentile(lats, 50))
	m.P99Ms = round3(stats.Percentile(lats, 99))
	m.BilledMsPerQuery = round3(float64(p.BilledMsTotal()) / float64(n))
	return m, nil
}

// Chaos runs the fault sweep. Rates come from ctx.FaultRates when set (the
// gillis-bench -faults flag); Quick mode trims to Lambda at one rate.
func Chaos(ctx *Context) (*ChaosReport, error) {
	platforms := []string{"lambda", "gcf", "knix"}
	rates := ctx.FaultRates
	if len(rates) == 0 {
		rates = chaosRates
	}
	if ctx.Quick {
		platforms = platforms[:1]
		if len(rates) > 1 {
			rates = rates[1:2]
		}
	}
	units, err := ctx.Units(chaosModel)
	if err != nil {
		return nil, err
	}
	n := ctx.queries()
	report := &ChaosReport{Model: chaosModel, Queries: n, Baselines: make(map[string]float64)}
	for pi, pname := range platforms {
		pm, err := ctx.Model(pname)
		if err != nil {
			return nil, err
		}
		plan, _, err := core.LatencyOptimal(pm, units, core.Config{})
		if err != nil {
			return nil, err
		}
		cfg := pm.Platform()
		seed := ctx.Seed + int64(pi)*101

		// Fault-free naive baseline: the cost denominator.
		base, err := measureChaos(cfg, seed, units, plan, n, platform.FaultProfile{})
		if err != nil {
			return nil, fmt.Errorf("bench: chaos baseline on %s: %w", pname, err)
		}
		report.Baselines[pname] = base.BilledMsPerQuery

		for _, rate := range rates {
			faults := chaosProfile(rate)
			naive, err := measureChaos(cfg, seed+1, units, plan, n, faults)
			if err != nil {
				return nil, fmt.Errorf("bench: chaos naive on %s: %w", pname, err)
			}
			resil, err := measureChaos(cfg, seed+2, units, plan, n, faults, resilientOpts()...)
			if err != nil {
				return nil, fmt.Errorf("bench: chaos resilient on %s: %w", pname, err)
			}
			if base.BilledMsPerQuery > 0 {
				naive.CostInflation = round3(naive.BilledMsPerQuery / base.BilledMsPerQuery)
				resil.CostInflation = round3(resil.BilledMsPerQuery / base.BilledMsPerQuery)
			}
			report.Rows = append(report.Rows, ChaosRow{
				Platform:  pname,
				FaultRate: rate,
				Naive:     naive,
				Resilient: resil,
			})
		}
	}
	return report, nil
}

// Table renders the sweep in the figure runners' tabular style.
func (r *ChaosReport) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Chaos sweep: %s, %d queries (naive vs resilient serving)\n", r.Model, r.Queries)
	fmt.Fprintf(&sb, "%-8s %6s │ %8s %8s %8s %7s │ %8s %8s %8s %7s %5s %5s %4s\n",
		"platform", "rate", "n.good", "n.p99", "n.cost", "n.infl", "r.good", "r.p99", "r.cost", "r.infl", "retry", "hedge", "fb")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-8s %6.2f │ %8.2f %8.0f %8.0f %7.2f │ %8.2f %8.0f %8.0f %7.2f %5d %5d %4d\n",
			row.Platform, row.FaultRate,
			row.Naive.Goodput, row.Naive.P99Ms, row.Naive.BilledMsPerQuery, row.Naive.CostInflation,
			row.Resilient.Goodput, row.Resilient.P99Ms, row.Resilient.BilledMsPerQuery, row.Resilient.CostInflation,
			row.Resilient.Retries, row.Resilient.Hedges, row.Resilient.Fallbacks)
	}
	return strings.TrimRight(sb.String(), "\n")
}

// JSON renders the report as the BENCH_chaos.json baseline format.
func (r *ChaosReport) JSON() ([]byte, error) { return BaselineJSON(r) }

func round3(x float64) float64 { return math.Round(x*1000) / 1000 }
