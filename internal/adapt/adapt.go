// Package adapt closes the serving loop: a deterministic controller that is
// ticked by the gateway on the virtual clock, compares attained latency, SLO
// attainment, and fault pressure against the perf model's predictions,
// detects drift and fault-regime changes with an online Page-Hinkley test,
// and reacts along a degradation ladder — switch between pre-computed
// candidate plans, re-run the DP planner against updated priors, and as the
// last rung command gateway brownout with hysteresis on the way back out.
//
// Every decision is a pure function of the gateway's ControlObservation
// stream and the controller's own state: no wall clock, no randomness. For a
// fixed seed the decision log replays bit-exactly, which the bench harness
// and property tests pin.
package adapt

import (
	"fmt"
	"math"
	"strings"
	"time"

	"gillis/internal/core"
	"gillis/internal/gateway"
	"gillis/internal/partition"
	"gillis/internal/perf"
	"gillis/internal/runtime"
	"gillis/internal/trace"
)

// Regime classifies the platform's health as seen through the gateway's
// sliding window.
type Regime int

const (
	// Healthy: the active plan is holding the SLO target and fault pressure
	// is nominal.
	Healthy Regime = iota
	// Degraded: fault pressure, attainment, or detected drift say the
	// current plan no longer matches the platform.
	Degraded
	// Critical: attainment collapsed below the brownout threshold — no
	// candidate is expected to hold the SLO.
	Critical
)

func (r Regime) String() string {
	switch r {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Critical:
		return "critical"
	}
	return fmt.Sprintf("regime(%d)", int(r))
}

// Candidate is one pre-computed plan the controller can activate. Index is
// the plan's slot in the runtime.Switcher; Plan is used to predict its base
// latency and cost at construction time.
type Candidate struct {
	Name string
	// Index is the candidate's deployment index in the Switcher.
	Index int
	// Plan is the partition plan the deployment at Index serves.
	Plan *partition.Plan
	// Resilient marks deployments configured with retries / master fallback;
	// under fault pressure only resilient candidates are eligible.
	Resilient bool
}

// The controller's thresholds that no caller has needed to move.
const (
	// targetPct is the windowed SLO attainment below which the regime is
	// degraded.
	targetPct = 90.0
	// alpha is the EMA smoothing factor for the latency-inflation and
	// comm-overhead priors.
	alpha = 0.3
	// phDelta and phThreshold tune the Page-Hinkley change-point test on the
	// latency-inflation signal.
	phDelta     = 0.05
	phThreshold = 0.5
	// degradedFaultPct is the windowed fault percentage that flags a fault
	// regime.
	degradedFaultPct = 5.0
	// brownoutExitPct is the served-only attainment brownout waits for.
	brownoutExitPct = 85.0
	// headroom derates the SLO when testing a candidate's predicted latency:
	// feasible means predicted × inflation ≤ headroom × SLO.
	headroom = 0.8
)

// Config tunes the controller. Zero values take the documented defaults.
type Config struct {
	// SLOMs is the latency objective the gateway enforces (required).
	SLOMs float64
	// MinWindow is the settle count before the controller starts deciding
	// (default 10).
	MinWindow int
	// FaultHold is how many ticks the fault-regime flag stays latched after
	// the last sign of fault activity (default 10). A resilient plan
	// recovers faults before the gateway ever counts them, so the latch is
	// re-armed from the runtime's recovery counters (retries, fallbacks) —
	// without it the ladder would read a well-defended window as fault-free
	// and flap back to a fragile plan mid-regime.
	FaultHold int
	// BrownoutEnterPct: windowed attainment below this is critical (default
	// 50). Served-only attainment must recover above brownoutExitPct, with
	// fault pressure nominal, for ExitHold consecutive ticks before brownout
	// releases (default 3) — the exit hysteresis.
	BrownoutEnterPct float64
	ExitHold         int
	// CooldownTicks is the dwell after any action before the next one
	// (default 5); it bounds flapping.
	CooldownTicks int
	// FallbackHold is how many consecutive healthy ticks must pass before
	// the controller falls back to a cheaper plan (default 20). It is the
	// cost-down counterpart of the brownout exit hysteresis: probing back to
	// the cheap plan too eagerly re-exposes queries to the fault regime.
	FallbackHold int
	// Mode is the execution mode for replanned deployments (must match the
	// candidates' mode).
	Mode runtime.ExecMode
	// DisableReplan caps the ladder at candidate switching (rung b off).
	DisableReplan bool
}

func (c Config) withDefaults() Config {
	if c.MinWindow <= 0 {
		c.MinWindow = 10
	}
	if c.FaultHold <= 0 {
		c.FaultHold = 10
	}
	if c.BrownoutEnterPct <= 0 {
		c.BrownoutEnterPct = 50
	}
	if c.ExitHold <= 0 {
		c.ExitHold = 3
	}
	if c.CooldownTicks <= 0 {
		c.CooldownTicks = 5
	}
	if c.FallbackHold <= 0 {
		c.FallbackHold = 20
	}
	return c
}

// Decision is one recorded controller decision (a tick where it acted or the
// regime changed).
type Decision struct {
	AtMs               float64
	WindowSLOPct       float64
	WindowServedSLOPct float64
	LatInflation       float64
	FaultPct           float64
	Drift              bool
	Regime             Regime
	// Action is "" for a pure regime transition, else one of
	// "switch:<name>", "replan:<name>", "brownout:on", "brownout:off"
	// (possibly "brownout:off+switch:<name>").
	Action string
	// Active is the switcher index in effect after the decision.
	Active int
}

// pageHinkley is an online change-point test on a positive-drift signal: it
// accumulates deviations of the input above its running mean (less a slack
// delta) and fires when the accumulation rises threshold above its minimum.
type pageHinkley struct {
	n      int
	mean   float64
	cum    float64
	minCum float64
}

func (p *pageHinkley) observe(x, delta, threshold float64) bool {
	p.n++
	p.mean += (x - p.mean) / float64(p.n)
	p.cum += x - p.mean - delta
	if p.cum < p.minCum {
		p.minCum = p.cum
	}
	if p.cum-p.minCum > threshold {
		*p = pageHinkley{}
		return true
	}
	return false
}

// Controller implements gateway.Controller. It must only be ticked from the
// gateway's control loop (single goroutine on the virtual clock).
type Controller struct {
	model *perf.Model
	units []*partition.Unit
	sw    *runtime.Switcher
	cfg   Config

	cands []Candidate
	// pred[i] is the base-model prediction for cands[i].
	pred []perf.PlanPrediction
	// byIndex maps a switcher index back to its candidate slot.
	byIndex map[int]int

	reg      *trace.Registry
	overhead *trace.Histogram
	gActive  *trace.Gauge
	gRegime  *trace.Gauge
	gBrown   *trace.Gauge

	// commBase is the fitted mean invocation overhead (EMG mean) the
	// observed platform.overhead_ms histogram is compared against.
	commBase float64

	// base is the observed healthy-baseline window mean per switcher index —
	// the running minimum, learned online. Inflation is measured against it
	// rather than the model's absolute prediction, which excludes the master
	// invocation overhead and gateway queueing that dominate small models.
	base map[int]float64

	inflEMA, commEMA float64
	emaInit          bool
	ph               pageHinkley
	drift            bool
	regime           Regime
	brownout         bool
	cooldown         int
	exitStreak       int
	healthyStreak    int
	replans          int
	lastReplanInfl   float64
	// switchDone is obs.Done when the last switch was commanded: until the
	// sliding window holds only settles from after it, the window mixes two
	// plans' latencies, so baseline and drift updates are suspended.
	switchDone int
	// lastRecovered is the previous tick's runtime retry+fallback total;
	// faultHold is the fault-regime latch it re-arms (see Config.FaultHold).
	lastRecovered int64
	faultHold     int

	decisions []Decision
}

// New builds a controller over sw's candidate plans. model and units drive
// feasibility predictions and online re-planning; metrics are registered on
// sw's platform registry.
func New(model *perf.Model, units []*partition.Unit, sw *runtime.Switcher, cands []Candidate, cfg Config) (*Controller, error) {
	if model == nil || sw == nil {
		return nil, fmt.Errorf("adapt: nil model or switcher")
	}
	if len(units) == 0 {
		return nil, fmt.Errorf("adapt: no units")
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("adapt: no candidates")
	}
	if cfg.SLOMs <= 0 {
		return nil, fmt.Errorf("adapt: SLOMs must be positive, got %v", cfg.SLOMs)
	}
	cfg = cfg.withDefaults()
	c := &Controller{
		model:   model,
		units:   units,
		sw:      sw,
		cfg:     cfg,
		byIndex: make(map[int]int, len(cands)),
		base:    make(map[int]float64),
	}
	seen := map[string]bool{}
	for i, cand := range cands {
		if cand.Name == "" || seen[cand.Name] {
			return nil, fmt.Errorf("adapt: candidate %d needs a unique name, got %q", i, cand.Name)
		}
		seen[cand.Name] = true
		if cand.Index < 0 || cand.Index >= sw.Len() {
			return nil, fmt.Errorf("adapt: candidate %q index %d out of switcher range [0,%d)", cand.Name, cand.Index, sw.Len())
		}
		if _, dup := c.byIndex[cand.Index]; dup {
			return nil, fmt.Errorf("adapt: candidate %q duplicates switcher index %d", cand.Name, cand.Index)
		}
		if cand.Plan == nil {
			return nil, fmt.Errorf("adapt: candidate %q has no plan", cand.Name)
		}
		pred, err := model.PredictPlan(units, cand.Plan)
		if err != nil {
			return nil, fmt.Errorf("adapt: predicting candidate %q: %w", cand.Name, err)
		}
		if pred.OOM {
			return nil, fmt.Errorf("adapt: candidate %q is predicted infeasible: %s", cand.Name, pred.OOMReason)
		}
		c.byIndex[cand.Index] = i
		c.cands = append(c.cands, cand)
		c.pred = append(c.pred, pred)
	}
	comm := model.Comm()
	if comm.Lambda > 0 {
		c.commBase = comm.Mu + 1/comm.Lambda
	}
	c.reg = sw.Platform().Metrics()
	c.overhead = c.reg.Histogram("platform.overhead_ms")
	c.gActive = c.reg.Gauge("adapt.active_plan")
	c.gRegime = c.reg.Gauge("adapt.regime")
	c.gBrown = c.reg.Gauge("adapt.brownout")
	return c, nil
}

// Name implements gateway.Controller.
func (c *Controller) Name() string { return "adapt" }

// Tick implements gateway.Controller: one pass of observe → update priors →
// detect → decide.
func (c *Controller) Tick(now time.Duration, obs gateway.ControlObservation) gateway.Directive {
	dir := gateway.Directive{SwitchTo: -1, Brownout: c.brownout}
	nowMs := float64(now) / float64(time.Millisecond)
	if obs.WindowCount < c.cfg.MinWindow {
		c.setGauges(nowMs, obs.ActiveBackend)
		return dir
	}

	// Signals.
	sloPct := obs.WindowSLOPct
	servedSLO := obs.WindowServedSLOPct
	faultPct := 100 * float64(obs.WindowFaulted) / float64(obs.WindowCount)
	windowTrusted := obs.Done-c.switchDone >= obs.WindowCount
	if windowTrusted && obs.WindowMeanMs > 0 {
		if b, ok := c.base[obs.ActiveBackend]; !ok || obs.WindowMeanMs < b {
			c.base[obs.ActiveBackend] = obs.WindowMeanMs
		}
	}
	infl := c.inflEMA
	if infl <= 0 {
		infl = 1
	}
	if b := c.base[obs.ActiveBackend]; windowTrusted && b > 0 && obs.WindowMeanMs > 0 {
		infl = obs.WindowMeanMs / b
	}
	commScale := 1.0
	if c.commBase > 0 && c.overhead.Count() > 0 {
		commScale = c.overhead.Mean() / c.commBase
	}
	if !c.emaInit {
		c.inflEMA, c.commEMA, c.emaInit = infl, commScale, true
	} else {
		c.inflEMA += alpha * (infl - c.inflEMA)
		c.commEMA += alpha * (commScale - c.commEMA)
	}
	c.drift = windowTrusted && c.ph.observe(infl, phDelta, phThreshold)

	// Regime. During brownout the all-settles attainment is dominated by the
	// sheds brownout itself causes, so recovery is judged on the served-only
	// window instead.
	regime := Healthy
	if c.brownout {
		if servedSLO < brownoutExitPct || faultPct >= degradedFaultPct {
			regime = Critical
		}
	} else {
		switch {
		case sloPct < c.cfg.BrownoutEnterPct:
			regime = Critical
		case faultPct >= degradedFaultPct || sloPct < targetPct || c.drift:
			regime = Degraded
		}
	}
	// The cost-down streak counts only quiescent healthy ticks: a standing
	// queue means the headroom a cheaper plan would give up is already being
	// consumed, even while windowed attainment still reads 100% — the
	// attainment collapse from de-escalating into a building surge shows up
	// only after the switch is irreversible for a cooldown.
	if regime == Healthy && obs.QueueLen == 0 {
		c.healthyStreak++
	} else {
		c.healthyStreak = 0
	}

	// Degradation ladder. Fault pressure latches: gateway-visible faults or
	// runtime-recovered ones (retries, fallbacks — a resilient plan absorbs
	// faults before the gateway counts them) re-arm the hold, and only
	// FaultHold quiet ticks release it.
	active := obs.ActiveBackend
	recovered := c.reg.Counter("runtime.retries").Value() + c.reg.Counter("runtime.fallbacks").Value()
	faultActive := faultPct >= degradedFaultPct || recovered > c.lastRecovered
	c.lastRecovered = recovered
	if faultActive {
		c.faultHold = c.cfg.FaultHold
	} else if c.faultHold > 0 {
		c.faultHold--
	}
	needResilient := faultActive || c.faultHold > 0
	action := ""
	switch {
	case c.brownout:
		if regime == Healthy {
			c.exitStreak++
			if c.exitStreak >= c.cfg.ExitHold {
				c.brownout = false
				c.exitStreak = 0
				c.cooldown = c.cfg.CooldownTicks
				action = "brownout:off"
				i := c.choose(needResilient, active)
				if i < 0 {
					i = c.chooseFast(needResilient, active, false)
				}
				if i >= 0 && c.cands[i].Index != active {
					dir.SwitchTo = c.cands[i].Index
					action += "+switch:" + c.cands[i].Name
					c.reg.Counter("adapt.plan_switches").Inc()
				}
			}
		} else {
			c.exitStreak = 0
		}
	case c.cooldown > 0:
		c.cooldown--
	case regime == Critical:
		// Critical is not always fault-critical: a load surge collapses
		// attainment through queueing with zero faults, and there the
		// lowest-latency plan — not a redundant one — is the right move. The
		// fault latch decides which. The rungs in order: fastest-feasible
		// switch, online replan, least-bad switch; brownout only when already
		// on the least-bad plan and still collapsing.
		if i := c.chooseFast(needResilient, active, true); i >= 0 && c.cands[i].Index != active {
			dir.SwitchTo = c.cands[i].Index
			action = "switch:" + c.cands[i].Name
			c.cooldown = c.cfg.CooldownTicks
			c.reg.Counter("adapt.plan_switches").Inc()
		} else if idx, name, ok := c.tryReplan(active); ok {
			dir.SwitchTo = idx
			action = "replan:" + name
			c.cooldown = c.cfg.CooldownTicks
		} else if j := c.chooseFast(needResilient, active, false); j >= 0 && c.cands[j].Index != active {
			dir.SwitchTo = c.cands[j].Index
			action = "switch:" + c.cands[j].Name
			c.cooldown = c.cfg.CooldownTicks
			c.reg.Counter("adapt.plan_switches").Inc()
		} else {
			c.brownout = true
			c.exitStreak = 0
			action = "brownout:on"
			c.reg.Counter("adapt.brownouts").Inc()
		}
	case regime == Degraded:
		if i := c.chooseFast(needResilient, active, true); i >= 0 && c.cands[i].Index != active {
			dir.SwitchTo = c.cands[i].Index
			action = "switch:" + c.cands[i].Name
			c.cooldown = c.cfg.CooldownTicks
			c.reg.Counter("adapt.plan_switches").Inc()
		} else if i < 0 {
			if idx, name, ok := c.tryReplan(active); ok {
				dir.SwitchTo = idx
				action = "replan:" + name
				c.cooldown = c.cfg.CooldownTicks
			} else if j := c.chooseFast(needResilient, active, false); j >= 0 && c.cands[j].Index != active {
				dir.SwitchTo = c.cands[j].Index
				action = "switch:" + c.cands[j].Name
				c.cooldown = c.cfg.CooldownTicks
				c.reg.Counter("adapt.plan_switches").Inc()
			}
		}
	default: // Healthy: after a stable stretch, fall back to the cheapest
		// feasible candidate to recoup the cost of defensive plans — but
		// never to a fragile one while the fault latch is still armed.
		if c.healthyStreak >= c.cfg.FallbackHold {
			if i := c.choose(needResilient, active); i >= 0 && c.cands[i].Index != active {
				dir.SwitchTo = c.cands[i].Index
				action = "switch:" + c.cands[i].Name
				c.cooldown = c.cfg.CooldownTicks
				c.reg.Counter("adapt.plan_switches").Inc()
			}
		}
	}
	dir.Brownout = c.brownout

	finalActive := active
	if dir.SwitchTo >= 0 {
		finalActive = dir.SwitchTo
		c.switchDone = obs.Done
	}
	if action != "" || regime != c.regime {
		c.decisions = append(c.decisions, Decision{
			AtMs:               nowMs,
			WindowSLOPct:       sloPct,
			WindowServedSLOPct: servedSLO,
			LatInflation:       infl,
			FaultPct:           faultPct,
			Drift:              c.drift,
			Regime:             regime,
			Action:             action,
			Active:             finalActive,
		})
		c.reg.Counter("adapt.decisions").Inc()
	}
	c.regime = regime
	c.setGauges(nowMs, finalActive)
	return dir
}

func (c *Controller) setGauges(nowMs float64, active int) {
	c.gActive.Set(float64(active), nowMs)
	c.gRegime.Set(float64(c.regime), nowMs)
	b := 0.0
	if c.brownout {
		b = 1
	}
	c.gBrown.Set(b, nowMs)
}

// overheadMean is the mean observed invocation overhead, falling back to
// the model's fitted EMG mean before any invocation settled.
func (c *Controller) overheadMean() float64 {
	if c.overhead.Count() > 0 {
		return c.overhead.Mean()
	}
	return c.commBase
}

// estLatency estimates the healthy-baseline served latency of candidate
// slot. A slot that has been active before uses its observed baseline
// directly; otherwise the model's prediction (plus one invocation overhead,
// which it excludes) is rescaled by how far the active plan's observed
// baseline sits from its own prediction — the model supplies the cross-plan
// ratio, the live telemetry the absolute scale.
func (c *Controller) estLatency(slot, active int) float64 {
	if b, ok := c.base[c.cands[slot].Index]; ok {
		return b
	}
	ovh := c.overheadMean()
	est := c.pred[slot].LatencyMs + ovh
	if activeSlot, ok := c.byIndex[active]; ok {
		if b, ok := c.base[active]; ok && c.pred[activeSlot].LatencyMs+ovh > 0 {
			est *= b / (c.pred[activeSlot].LatencyMs + ovh)
		}
	}
	return est
}

// choose picks the cheapest candidate whose inflation-adjusted latency
// estimate fits inside the derated SLO, requiring resilience when asked;
// -1 when nothing passes the strict filter.
func (c *Controller) choose(needResilient bool, active int) int {
	best := -1
	for i := range c.cands {
		if needResilient && !c.cands[i].Resilient {
			continue
		}
		if c.estLatency(i, active)*c.inflEMA > headroom*c.cfg.SLOMs {
			continue
		}
		if best < 0 || c.pred[i].BilledMs < c.pred[best].BilledMs {
			best = i
		}
	}
	return best
}

// chooseFast is the escalation pick for Degraded and Critical regimes: the
// lowest-estimated-latency candidate, restricted to resilient plans under
// fault pressure. Degradation means the active plan is not holding — moving
// to a cheaper-but-slower plan there is never right, so unlike choose the
// comparator is latency, not cost (cost-down is the Healthy rung's job).
// With strict set, candidates whose inflation-adjusted estimate misses the
// derated SLO are excluded; without it the pick is the least-bad plan — the
// last rung before brownout, which under a queue-driven collapse (surge,
// zero faults) still routes to the plan closest to fitting regardless of
// how inflated the latency prior is. -1 only when nothing qualifies.
func (c *Controller) chooseFast(needResilient bool, active int, strict bool) int {
	best := -1
	for i := range c.cands {
		if needResilient && !c.cands[i].Resilient {
			continue
		}
		if strict && c.estLatency(i, active)*c.inflEMA > headroom*c.cfg.SLOMs {
			continue
		}
		if best < 0 || c.estLatency(i, active) < c.estLatency(best, active) {
			best = i
		}
	}
	return best
}

// tryReplan re-runs the DP planner against the model rescaled by the live
// priors, deploys the plan with resilience, and registers it as a new
// candidate. Skipped when disabled, when the priors haven't moved since the
// last replan, or when even the replanned optimum cannot fit the SLO.
func (c *Controller) tryReplan(active int) (swIdx int, name string, ok bool) {
	if c.cfg.DisableReplan {
		return -1, "", false
	}
	if c.replans > 0 && math.Abs(c.inflEMA-c.lastReplanInfl) < 0.1 {
		return -1, "", false
	}
	scaled, err := c.model.WithPriors(perf.Priors{ComputeScale: c.inflEMA, CommScale: c.commEMA})
	if err != nil {
		return -1, "", false
	}
	plan, pred, err := core.LatencyOptimal(scaled, c.units, core.Config{})
	if err != nil || pred.OOM {
		return -1, "", false
	}
	c.lastReplanInfl = c.inflEMA
	// Estimate the plan's attained latency the same way choose does: the
	// scaled prediction plus one invocation overhead, recalibrated by how
	// far the active plan's observed baseline sits from its own prediction.
	ovh := c.overheadMean()
	est := pred.LatencyMs + ovh
	if activeSlot, okA := c.byIndex[active]; okA {
		if b, okB := c.base[active]; okB && c.pred[activeSlot].LatencyMs+ovh > 0 {
			est *= b / (c.pred[activeSlot].LatencyMs + ovh)
		}
	}
	if est > headroom*c.cfg.SLOMs {
		return -1, "", false
	}
	d, err := runtime.Deploy(c.sw.Platform(), c.units, plan, c.cfg.Mode,
		runtime.WithRetries(2, 25), runtime.WithMasterFallback())
	if err != nil {
		return -1, "", false
	}
	idx, err := c.sw.Add(d)
	if err != nil {
		return -1, "", false
	}
	base, err := c.model.PredictPlan(c.units, plan)
	if err != nil {
		base = pred
	}
	c.replans++
	name = fmt.Sprintf("replan-%d", c.replans)
	c.byIndex[idx] = len(c.cands)
	c.cands = append(c.cands, Candidate{Name: name, Index: idx, Plan: plan, Resilient: true})
	c.pred = append(c.pred, base)
	c.reg.Counter("adapt.replans").Inc()
	c.reg.Counter("adapt.plan_switches").Inc()
	return idx, name, true
}

// Decisions returns a copy of the recorded decision sequence.
func (c *Controller) Decisions() []Decision {
	out := make([]Decision, len(c.decisions))
	copy(out, c.decisions)
	return out
}

// DecisionLog renders the decision sequence as deterministic text, one line
// per decision — the golden-file and replay-equivalence format.
func (c *Controller) DecisionLog() string {
	var b strings.Builder
	for _, d := range c.decisions {
		action := d.Action
		if action == "" {
			action = "-"
		}
		fmt.Fprintf(&b, "t=%.3f regime=%s slo=%.3f served_slo=%.3f infl=%.3f fault=%.3f drift=%v action=%s active=%d\n",
			d.AtMs, d.Regime, d.WindowSLOPct, d.WindowServedSLOPct, d.LatInflation, d.FaultPct, d.Drift, action, d.Active)
	}
	return b.String()
}
