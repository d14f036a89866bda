package bench

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"time"

	"gillis/internal/adapt"
	"gillis/internal/core"
	"gillis/internal/gateway"
	"gillis/internal/partition"
	"gillis/internal/platform"
	"gillis/internal/runtime"
	"gillis/internal/stats"
	"gillis/internal/workload"
)

// The Adaptive figure studies closed-loop re-planning across two live
// regime shifts no single static plan survives: the platform serves
// healthily, then degrades (evictions, stragglers, crashes) through the
// middle of the replay, recovers, and finally takes a traffic surge. The
// latency-optimal plan rides out the surge on its headroom but its wide
// fan-out faults constantly while degraded; the conservative low-fan-out
// plan shrugs off the fault regime with retries, hedging, and fallback,
// but its thinner latency headroom queues past the SLO under the surge.
// Each static deployment is replayed unchanged, then the adapt controller
// replays the same trace hot-swapping between them. The headline the
// baseline pins: the adaptive controller attains strictly more SLO than
// the best static plan at bounded cost inflation, and with adaptation
// disabled the harness reproduces the static baseline bit-exactly.

// adaptModel is the served model.
const adaptModel = "resnet50"

// adaptPlatform is the serving platform profile.
const adaptPlatform = "lambda"

// AdaptRow is one strategy's replay of the shared fault-schedule trace.
type AdaptRow struct {
	// Strategy is "static-<candidate>" or "adaptive".
	Strategy string `json:"strategy"`
	// Report is the gateway's deterministic load report.
	Report *gateway.LoadReport `json:"report"`
	// Digest fingerprints every outcome of the replay bit-for-bit.
	Digest string `json:"digest"`
	// CostInflation is this strategy's cost-per-1k over static-latency's.
	CostInflation float64 `json:"cost_inflation"`
}

// AdaptHeadline is the pinned comparison: adaptive versus the best static
// plan by SLO attainment.
type AdaptHeadline struct {
	AdaptiveSLOPct      float64 `json:"adaptive_slo_pct"`
	BestStatic          string  `json:"best_static"`
	BestStaticSLOPct    float64 `json:"best_static_slo_pct"`
	AdaptiveCostPer1K   float64 `json:"adaptive_cost_per_1k"`
	BestStaticCostPer1K float64 `json:"best_static_cost_per_1k"`
	// CostRatio is adaptive cost over best-static cost (the ≤1.5× bound).
	CostRatio float64 `json:"cost_ratio"`
}

// AdaptReport is the full scenario: per-strategy rows plus the adaptive
// controller's decision log and the baseline-equivalence check.
type AdaptReport struct {
	Model    string  `json:"model"`
	Platform string  `json:"platform"`
	SLOMs    float64 `json:"slo_ms"`
	// DegradeAtMs and RecoverAtMs are the fault-schedule transition times;
	// SurgeAtMs is when the arrival rate steps up from BaseRate to
	// SurgeRate.
	DegradeAtMs float64    `json:"degrade_at_ms"`
	RecoverAtMs float64    `json:"recover_at_ms"`
	SurgeAtMs   float64    `json:"surge_at_ms"`
	BaseRate    float64    `json:"base_rate_qps"`
	SurgeRate   float64    `json:"surge_rate_qps"`
	Rows        []AdaptRow `json:"rows"`
	// BaselineBitExact records that the switcher harness with a nil
	// controller reproduced the plain single-deployment replay exactly
	// (same report JSON and outcome digest).
	BaselineBitExact bool `json:"baseline_bit_exact"`
	// DecisionLog is the adaptive controller's full decision sequence.
	DecisionLog string        `json:"decision_log"`
	Headline    AdaptHeadline `json:"headline"`
}

// adaptCandidate pairs a named plan with its deploy options.
type adaptCandidate struct {
	name      string
	plan      *partition.Plan
	resilient bool
	opts      []runtime.DeployOption
}

// adaptFaults is the degraded-regime fault profile. Evictions dominate:
// they are detected at dispatch, so a resilient plan recovers them with a
// cheap backoff-retry that still fits the SLO, while plain plans fault.
// Crashes (detected only after the work is done) and stragglers add an
// expensive tail that caps even the resilient plan's attainment.
func adaptFaults() platform.FaultProfile {
	return platform.FaultProfile{
		FailureProb:     0.04,
		StragglerProb:   0.08,
		StragglerFactor: 4,
		EvictionProb:    0.12,
	}
}

// adaptOutcomeDigest fingerprints a replay's outcomes. Function-name
// prefixes are per-platform deploy-sequence numbers, so error strings are
// replay-stable and safe to hash.
func adaptOutcomeDigest(outs []gateway.Outcome) string {
	h := fnv.New64a()
	for _, o := range outs {
		fmt.Fprintf(h, "%d|%.6f|%.6f|%.6f|%.6f|%d|%v|%v|%v|%q|%q\n",
			o.ID, o.ArrivalMs, o.QueueMs, o.LatencyMs, o.TotalMs,
			o.BilledMs, o.ColdStart, o.Shed, o.SLOOK, o.Err, o.FaultKind)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// calibrateLatencyDist measures the warm serving-latency distribution of a
// plan on a fresh platform: mean and 95th percentile over n warm queries.
// The scenario's SLO derives from the p95 so that healthy-phase attainment
// is structurally high and degradation, not baseline variance, drives
// violations.
func calibrateLatencyDist(cfg platform.Config, seed int64, units []*partition.Unit,
	plan *partition.Plan, n int) (meanMs, p95Ms float64, err error) {
	var lats []float64
	_, err = serveWarm(cfg, seed, units, plan, nil, 1, n, func(_ runtime.Result, ms float64, err error) error {
		lats = append(lats, ms)
		return err
	})
	return stats.Mean(lats), stats.Percentile(lats, 95), err
}

// adaptReplayResult is one replay's full observable output.
type adaptReplayResult struct {
	rep  *gateway.LoadReport
	outs []gateway.Outcome
	ctl  *adapt.Controller
}

// adaptReplay runs one replay of the shared trace on a fresh platform. With
// ctlCfg nil the switcher is pinned to initialActive with no controller —
// the static baselines. With useSwitcher false only the initial candidate
// is deployed at all: the plain-deployment control for the bit-exactness
// check.
func adaptReplay(ctx *Context, cfg platform.Config, seed int64, units []*partition.Unit,
	cands []adaptCandidate, initialActive int, arrivals []time.Duration,
	sloMs float64, maxInFlight int, useSwitcher bool, ctlCfg *adapt.Config) (*adaptReplayResult, error) {
	res := &adaptReplayResult{}
	deploy := func(p *platform.Platform, gcfg *gateway.Config) (gateway.Backend, error) {
		deployOrder := cands
		if !useSwitcher {
			deployOrder = cands[initialActive : initialActive+1]
		}
		deps := make([]*runtime.Deployment, 0, len(deployOrder))
		for _, cand := range deployOrder {
			d, err := runtime.Deploy(p, units, cand.plan, runtime.ShapeOnly, cand.opts...)
			if err != nil {
				return nil, fmt.Errorf("bench: deploying %s: %w", cand.name, err)
			}
			deps = append(deps, d)
		}
		// Only the initially-active plan is prewarmed — exactly what the plain
		// control replay does, so the bit-exactness comparison sees identical
		// platform activity. Plans switched to later warm up on demand.
		warmIdx := 0
		if useSwitcher {
			warmIdx = initialActive
		}
		for i := 0; i < maxInFlight; i++ {
			if err := deps[warmIdx].Prewarm(); err != nil {
				return nil, err
			}
		}
		sw, err := runtime.NewSwitcher(deps...)
		if err != nil {
			return nil, err
		}
		if useSwitcher && initialActive != 0 {
			if err := sw.Switch(initialActive); err != nil {
				return nil, err
			}
		}
		if ctlCfg != nil {
			pm, err := ctx.Model(adaptPlatform)
			if err != nil {
				return nil, err
			}
			acands := make([]adapt.Candidate, len(cands))
			for i, cand := range cands {
				acands[i] = adapt.Candidate{Name: cand.name, Index: i, Plan: cand.plan, Resilient: cand.resilient}
			}
			res.ctl, err = adapt.New(pm, units, sw, acands, *ctlCfg)
			if err != nil {
				return nil, err
			}
			gcfg.Controller = res.ctl
		}
		return sw, nil
	}
	var err error
	res.rep, res.outs, err = replay(cfg, seed, deploy, arrivals, gateway.Config{
		MaxInFlight: maxInFlight,
		QueueCap:    2 * maxInFlight,
		SLOMs:       sloMs,
		Window:      16,
		// Every strategy gets the same maxInFlight-deep warm pool. Statics
		// are fully warmed before the replay, so the policy only ever acts
		// after a controller switch — re-warming the newly active plan.
		Policy: gateway.FixedPool{Sets: maxInFlight},
	})
	return res, err
}

// AdaptScenario runs the adaptive-serving figure. Quick mode shortens the
// horizon; the three-phase structure (healthy → degraded → recovered) is
// preserved.
func AdaptScenario(ctx *Context) (*AdaptReport, error) {
	horizon := 90 * time.Second
	if ctx.Quick {
		horizon = 36 * time.Second
	}
	pm, err := ctx.Model(adaptPlatform)
	if err != nil {
		return nil, err
	}
	units, err := ctx.Units(adaptModel)
	if err != nil {
		return nil, err
	}
	latPlan, _, err := core.LatencyOptimal(pm, units, core.Config{})
	if err != nil {
		return nil, err
	}
	costPlan, _, err := core.LatencyOptimal(pm, units, core.Config{PartCounts: []int{2}})
	if err != nil {
		return nil, err
	}
	// The conservative candidate reuses the low-fan-out plan: fewer worker
	// invocations per query means fewer fault draws, and the full
	// resilience budget (retries, hedged backups, master fallback) recovers
	// the rest. Its weakness is the mirror image: the smallest latency
	// headroom under the SLO, so it queues past it first when load surges.
	cands := []adaptCandidate{
		{name: "latency", plan: latPlan},
		{name: "cost", plan: costPlan},
		{name: "conservative", plan: costPlan, resilient: true, opts: []runtime.DeployOption{
			runtime.WithRetries(3, 10), runtime.WithHedging(70), runtime.WithMasterFallback(),
		}},
	}

	cfg := pm.Platform()
	cfg.WarmIdleMs = 0 // instances stay warm; plan switches pay cold starts once
	cfg.PrewarmMs = cfg.ColdStartMs
	seed := ctx.Seed

	meanMs, p95Ms, err := calibrateLatencyDist(cfg, seed, units, latPlan, 40)
	if err != nil {
		return nil, fmt.Errorf("bench: adapt calibration: %w", err)
	}
	// The SLO leaves the latency plan surge headroom and admits the
	// conservative plan's cheap (eviction-retry) recoveries, while the
	// low-fan-out plans serve under it with little queueing slack.
	sloMs := round3(1.45 * p95Ms)

	horizonMs := float64(horizon / time.Millisecond)
	degradeAt := round3(horizonMs / 3)
	recoverAt := round3(0.6 * horizonMs)
	surgeAt := round3(0.8 * horizonMs)
	cfg.FaultSchedule = []platform.FaultTransition{
		{AtMs: degradeAt, Profile: adaptFaults()},
		{AtMs: recoverAt, Profile: platform.FaultProfile{}},
	}

	const baseRate, surgeRate = 2.5, 8.0
	arrivals, err := workload.Poisson(rand.New(rand.NewSource(seed+17)), baseRate,
		time.Duration(surgeAt)*time.Millisecond)
	if err != nil {
		return nil, err
	}
	surgeArr, err := workload.Poisson(rand.New(rand.NewSource(seed+29)), surgeRate,
		horizon-time.Duration(surgeAt)*time.Millisecond)
	if err != nil {
		return nil, err
	}
	for _, a := range surgeArr {
		arrivals = append(arrivals, a+time.Duration(surgeAt)*time.Millisecond)
	}
	maxInFlight := int(math.Ceil(baseRate*meanMs/1000)) + 2

	report := &AdaptReport{
		Model:       adaptModel,
		Platform:    adaptPlatform,
		SLOMs:       sloMs,
		DegradeAtMs: degradeAt,
		RecoverAtMs: recoverAt,
		SurgeAtMs:   surgeAt,
		BaseRate:    baseRate,
		SurgeRate:   surgeRate,
	}

	// Static baselines: each candidate pinned, no controller.
	var latPer1K float64
	for i, cand := range cands {
		res, err := adaptReplay(ctx, cfg, seed, units, cands, i, arrivals, sloMs, maxInFlight, true, nil)
		if err != nil {
			return nil, fmt.Errorf("bench: static %s replay: %w", cand.name, err)
		}
		row := AdaptRow{
			Strategy: "static-" + cand.name,
			Report:   res.rep,
			Digest:   adaptOutcomeDigest(res.outs),
		}
		if i == 0 {
			latPer1K = res.rep.CostPer1K
			// The bit-exactness control: the same trace through a plain
			// single deployment, no switcher co-tenants, no controller.
			plain, err := adaptReplay(ctx, cfg, seed, units, cands, 0, arrivals, sloMs, maxInFlight, false, nil)
			if err != nil {
				return nil, err
			}
			plainJSON, err := json.Marshal(plain.rep)
			if err != nil {
				return nil, err
			}
			swJSON, err := json.Marshal(res.rep)
			if err != nil {
				return nil, err
			}
			report.BaselineBitExact = string(plainJSON) == string(swJSON) &&
				adaptOutcomeDigest(plain.outs) == row.Digest
		}
		if latPer1K > 0 {
			row.CostInflation = round3(res.rep.CostPer1K / latPer1K)
		}
		report.Rows = append(report.Rows, row)
	}

	// The adaptive replay: same trace, controller live, starting on the
	// latency plan.
	ctlCfg := &adapt.Config{
		SLOMs:     sloMs,
		MinWindow: 8,
		// The surge phase legitimately drops windowed attainment; brownout
		// must stay reserved for genuinely unservable regimes.
		BrownoutEnterPct: 30,
		// Dwell constants are in controller ticks, and the gateway ticks the
		// controller from its 100 ms control loop: 15 ticks of cooldown = 1.5 s
		// between actions, a 3 s fault latch, and a 5 s healthy dwell before
		// any cost-down. Shorter dwells flap at this cadence.
		CooldownTicks: 15,
		FaultHold:     30,
		FallbackHold:  50,
		Mode:          runtime.ShapeOnly,
		// The scenario's degradation is candidate-shaped by construction;
		// replanning mid-replay is exercised by the adapt package's tests.
		DisableReplan: true,
	}
	res, err := adaptReplay(ctx, cfg, seed, units, cands, 0, arrivals, sloMs, maxInFlight, true, ctlCfg)
	if err != nil {
		return nil, fmt.Errorf("bench: adaptive replay: %w", err)
	}
	row := AdaptRow{
		Strategy: "adaptive",
		Report:   res.rep,
		Digest:   adaptOutcomeDigest(res.outs),
	}
	if latPer1K > 0 {
		row.CostInflation = round3(res.rep.CostPer1K / latPer1K)
	}
	report.Rows = append(report.Rows, row)
	report.DecisionLog = res.ctl.DecisionLog()

	// Headline: adaptive vs the best static plan by SLO attainment.
	best := 0
	for i := 1; i < len(report.Rows)-1; i++ {
		if report.Rows[i].Report.SLOPct > report.Rows[best].Report.SLOPct {
			best = i
		}
	}
	bestRow, adRow := report.Rows[best], report.Rows[len(report.Rows)-1]
	report.Headline = AdaptHeadline{
		AdaptiveSLOPct:      adRow.Report.SLOPct,
		BestStatic:          bestRow.Strategy,
		BestStaticSLOPct:    bestRow.Report.SLOPct,
		AdaptiveCostPer1K:   adRow.Report.CostPer1K,
		BestStaticCostPer1K: bestRow.Report.CostPer1K,
	}
	if bestRow.Report.CostPer1K > 0 {
		report.Headline.CostRatio = round3(adRow.Report.CostPer1K / bestRow.Report.CostPer1K)
	}
	return report, nil
}

// Table renders the scenario in the figure runners' tabular style.
func (r *AdaptReport) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Adaptive serving: %s on %s, SLO %.0f ms, degraded %.0f–%.0f ms, surge ×%.1f from %.0f ms\n",
		r.Model, r.Platform, r.SLOMs, r.DegradeAtMs, r.RecoverAtMs, r.SurgeRate/r.BaseRate, r.SurgeAtMs)
	fmt.Fprintf(&sb, "%-20s │ %6s %8s %7s %7s %6s %5s │ %9s %6s %8s %9s\n",
		"strategy", "slo%", "goodput", "p50", "p99", "fault", "shed", "cost/1k", "infl", "switches", "brownout")
	for _, row := range r.Rows {
		rep := row.Report
		fmt.Fprintf(&sb, "%-20s │ %6.1f %8.2f %7.0f %7.0f %6d %5d │ %9.0f %6.2f %8d %9.0f\n",
			row.Strategy, rep.SLOPct, rep.GoodputQPS, rep.P50Ms, rep.P99Ms, rep.Faulted, rep.Shed,
			rep.CostPer1K, row.CostInflation, rep.PlanSwitches, rep.BrownoutMs)
	}
	fmt.Fprintf(&sb, "headline: adaptive %.1f%% vs best static (%s) %.1f%% at %.2fx its cost; baseline bit-exact: %v",
		r.Headline.AdaptiveSLOPct, r.Headline.BestStatic, r.Headline.BestStaticSLOPct,
		r.Headline.CostRatio, r.BaselineBitExact)
	return sb.String()
}

// JSON renders the report as the BENCH_adapt.json baseline format.
func (r *AdaptReport) JSON() ([]byte, error) { return BaselineJSON(r) }
