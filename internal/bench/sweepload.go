package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"gillis/internal/core"
	"gillis/internal/gateway"
	"gillis/internal/partition"
	"gillis/internal/platform"
	"gillis/internal/runtime"
	"gillis/internal/workload"
)

// The SweepLoad figure drives the serving gateway with bursty arrival
// traces at increasing burst rates and compares autoscaling policies on the
// two axes the gateway exposes: SLO attainment and cost. Prewarming is
// charged (Config.PrewarmMs = the platform's cold-start time), so a policy
// that keeps pools warm buys its SLO attainment with real billed
// milliseconds — the cost-inflation column. The JSON output is the
// checked-in BENCH_load.json baseline.

// sweepLoadModel is the served model.
const sweepLoadModel = "resnet50"

// SweepLoadRow is one (platform, burst rate, policy) gateway replay.
type SweepLoadRow struct {
	Platform string  `json:"platform"`
	BurstQPS float64 `json:"burst_qps"`
	Policy   string  `json:"policy"`
	// Report is the gateway's full deterministic load report.
	Report *gateway.LoadReport `json:"report"`
	// CostInflation is this policy's cost-per-1k over NonePolicy's on the
	// same platform and trace (1.0 for NonePolicy itself).
	CostInflation float64 `json:"cost_inflation"`
}

// SweepLoadReport is the full sweep plus the per-platform SLO deadlines
// (calibrated from warm serving latency) the attainment numbers are
// against.
type SweepLoadReport struct {
	Model string `json:"model"`
	// SLOMs maps platform name to the calibrated per-query deadline.
	SLOMs map[string]float64 `json:"slo_ms"`
	Rows  []SweepLoadRow     `json:"rows"`
}

// sweepSpec builds the arrival process for one burst rate: steady 2 qps
// background with four-second bursts at the swept rate every 20 s.
func sweepSpec(burstQPS float64) workload.BurstSpec {
	return workload.BurstSpec{
		BaseRate:  2,
		BurstRate: burstQPS,
		Period:    20 * time.Second,
		BurstLen:  4 * time.Second,
	}
}

// sweepPolicies returns the three policies under comparison for one spec.
func sweepPolicies(spec workload.BurstSpec, estServeMs float64) []gateway.Policy {
	return []gateway.Policy{
		gateway.NonePolicy{},
		gateway.TargetConcurrency{Headroom: 1},
		gateway.BurstAware{Spec: spec, EstServeMs: estServeMs, LeadMs: 500},
	}
}

// calibrateWarmMs measures the end-to-end client latency of warm serving
// (the max of three warm queries) on a fresh platform — the gateway sweep
// derives its SLO deadline and the burst-aware policy's service-time
// estimate from it.
func calibrateWarmMs(cfg platform.Config, seed int64, units []*partition.Unit, plan *partition.Plan) (float64, error) {
	var warmMs float64
	_, err := serveWarm(cfg, seed, units, plan, nil, 0, 3, func(_ runtime.Result, ms float64, err error) error {
		warmMs = math.Max(warmMs, ms)
		return err
	})
	return warmMs, err
}

// SweepLoad runs the sweep: burst rate × policy on each platform. Quick
// mode trims to Lambda at the highest burst rate over a 20 s horizon.
func SweepLoad(ctx *Context) (*SweepLoadReport, error) {
	platforms := []string{"lambda", "gcf", "knix"}
	burstRates := []float64{5, 10, 20}
	horizon := 60 * time.Second
	if ctx.Quick {
		platforms = platforms[:1]
		burstRates = burstRates[2:]
		horizon = 20 * time.Second
	}
	units, err := ctx.Units(sweepLoadModel)
	if err != nil {
		return nil, err
	}
	report := &SweepLoadReport{Model: sweepLoadModel, SLOMs: make(map[string]float64)}
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
		// The gateway's serving economics: pools drain between bursts, and
		// warmth costs a cold-start's worth of billed time per instance.
		cfg.WarmIdleMs = 8000
		cfg.PrewarmMs = cfg.ColdStartMs
		seed := ctx.Seed + int64(pi)*101

		warmMs, err := calibrateWarmMs(cfg, seed, units, plan)
		if err != nil {
			return nil, fmt.Errorf("bench: load calibration on %s: %w", pname, err)
		}
		// Warm queries attain with ~60%-of-a-cold-start headroom for
		// queueing; a query that pays a cold start (or queues behind one)
		// violates.
		sloMs := round3(warmMs + 0.6*cfg.ColdStartMs)
		report.SLOMs[pname] = sloMs

		for ri, rate := range burstRates {
			spec := sweepSpec(rate)
			arrivals, err := workload.Bursty(rand.New(rand.NewSource(seed+int64(ri)*7)), spec, horizon)
			if err != nil {
				return nil, err
			}
			// Enough slots to absorb the burst with warm service times;
			// queueing and shedding beyond that is the study's signal.
			maxInFlight := 2*int(math.Ceil(rate*warmMs/1000)) + 2
			var nonePer1K float64
			for _, pol := range sweepPolicies(spec, warmMs) {
				rep, _, err := replay(cfg, seed+int64(ri)*7, deployPlan(units, plan), arrivals, gateway.Config{
					MaxInFlight: maxInFlight,
					QueueCap:    2 * maxInFlight,
					SLOMs:       sloMs,
					Policy:      pol,
				})
				if err != nil {
					return nil, fmt.Errorf("bench: load %s@%g/%s: %w", pname, rate, pol.Name(), err)
				}
				row := SweepLoadRow{Platform: pname, BurstQPS: rate, Policy: rep.Policy, Report: rep}
				if _, ok := pol.(gateway.NonePolicy); ok {
					nonePer1K = rep.CostPer1K
				}
				if nonePer1K > 0 {
					row.CostInflation = round3(rep.CostPer1K / nonePer1K)
				}
				report.Rows = append(report.Rows, row)
			}
		}
	}
	return report, nil
}

// AtRate returns the sweep's rows for one platform and burst rate, in
// policy order.
func (r *SweepLoadReport) AtRate(pname string, burstQPS float64) []SweepLoadRow {
	var rows []SweepLoadRow
	for _, row := range r.Rows {
		if row.Platform == pname && row.BurstQPS == burstQPS {
			rows = append(rows, row)
		}
	}
	return rows
}

// Table renders the sweep in the figure runners' tabular style.
func (r *SweepLoadReport) Table() string {
	var sb strings.Builder
	names := make([]string, 0, len(r.SLOMs))
	for n := range r.SLOMs {
		names = append(names, n)
	}
	sort.Strings(names)
	var slos []string
	for _, n := range names {
		slos = append(slos, fmt.Sprintf("%s %.0f ms", n, r.SLOMs[n]))
	}
	fmt.Fprintf(&sb, "Load sweep: %s behind the serving gateway (SLO: %s)\n", r.Model, strings.Join(slos, ", "))
	fmt.Fprintf(&sb, "%-8s %6s %-19s │ %6s %8s %7s %7s %5s %6s │ %9s %6s\n",
		"platform", "burst", "policy", "slo%", "goodput", "p50", "p99", "shed", "cold%", "cost/1k", "infl")
	for _, row := range r.Rows {
		rep := row.Report
		fmt.Fprintf(&sb, "%-8s %6.0f %-19s │ %6.1f %8.2f %7.0f %7.0f %5d %6.1f │ %9.0f %6.2f\n",
			row.Platform, row.BurstQPS, row.Policy,
			rep.SLOPct, rep.GoodputQPS, rep.P50Ms, rep.P99Ms, rep.Shed, rep.ColdStartPct,
			rep.CostPer1K, row.CostInflation)
	}
	return strings.TrimRight(sb.String(), "\n")
}

// JSON renders the report as the BENCH_load.json baseline format.
func (r *SweepLoadReport) JSON() ([]byte, error) { return BaselineJSON(r) }
