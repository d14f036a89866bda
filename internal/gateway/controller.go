package gateway

import (
	"errors"
	"time"

	"gillis/internal/platform"
	"gillis/internal/runtime"
	"gillis/internal/simnet"
	"gillis/internal/tensor"
	"gillis/internal/trace"
)

// ErrBrownout is reported for queries shed because the gateway is in
// brownout: the platform is too degraded for any plan to hold the SLO, so
// admission is tightened to in-flight capacity only (no queueing) until the
// controller releases the brownout.
var ErrBrownout = errors.New("gateway: brownout, query shed")

// Backend is what the gateway serves through: a single runtime.Deployment,
// or a runtime.Switcher holding several candidate plans the controller
// hot-swaps between. ServeBatch carries one admission unit — one query or a
// formed batch — through a single fork-join pass.
type Backend interface {
	Platform() *platform.Platform
	ServeBatch(proc *simnet.Proc, inputs []*tensor.Tensor, size int, traced bool) (runtime.Result, *trace.Trace, error)
	WarmSets() int
	Prewarm() error
}

// Router places multi-model queries: Acquire resolves a catalog model ID
// to a backend ready to serve it, charging any load work (storage fetch,
// warm-up) to the calling process's virtual clock. The returned Lease must
// be released exactly once when the serve finishes.
// Implementations must be deterministic functions of the virtual clock and
// their own state, like every other gateway collaborator.
type Router interface {
	Acquire(proc *simnet.Proc, model string) (Backend, Lease, error)
}

// Lease is a Router's placement of one query: Release returns the
// placement's concurrency slot and stamps the model's recency.
type Lease interface {
	Release()
}

// noLease is the single-backend path's placement: nothing to give back.
type noLease struct{}

func (noLease) Release() {}

// Switchable is a Backend with hot-swappable candidate plans
// (runtime.Switcher). SwitchTo directives are only honoured on one.
type Switchable interface {
	Backend
	Active() int
	Switch(i int) error
}

// HedgeControl is a Backend whose hedging can be toggled at serve time;
// brownout disables hedging on it to shed backup-request cost.
type HedgeControl interface {
	SetHedging(enabled bool)
}

// Statically assert the runtime types satisfy the gateway's interfaces.
var (
	_ Backend      = (*runtime.Deployment)(nil)
	_ HedgeControl = (*runtime.Deployment)(nil)
	_ Switchable   = (*runtime.Switcher)(nil)
	_ HedgeControl = (*runtime.Switcher)(nil)
)

// ControlObservation is the telemetry handed to the adaptive controller
// each tick: the autoscaler's instantaneous view plus windowed outcome
// aggregates. Everything is derived from settled outcomes on the virtual
// clock, so a controller that is a pure function of it decides
// deterministically.
type ControlObservation struct {
	Observation

	// WindowCount is how many of the last Config.Window settles the
	// windowed fields cover (< Window early in the replay).
	WindowCount int
	// WindowSLOPct is SLO attainment over the window, in percent; shed and
	// faulted queries count against it.
	WindowSLOPct float64
	// WindowServedSLOPct is attainment among only the served queries in the
	// window (0 when none were served). During brownout the all-settles
	// attainment is dominated by sheds, so this is the recovery signal: the
	// few admitted queries reflect the platform's actual health.
	WindowServedSLOPct float64
	// WindowMeanMs is the mean arrival-to-settle latency of served queries
	// in the window (0 when none were served).
	WindowMeanMs float64
	// WindowFaulted counts faulted settles in the window.
	WindowFaulted int

	// ActiveBackend is the active candidate index (0 for a plain
	// deployment backend).
	ActiveBackend int
}

// Directive is the controller's decision for one tick.
type Directive struct {
	// SwitchTo activates the candidate plan with this index; -1 keeps the
	// current one. Ignored unless the backend is Switchable.
	SwitchTo int
	// Brownout is the desired gateway mode: true tightens admission to
	// in-flight capacity (new arrivals past it shed with ErrBrownout, the
	// wait queue stops accepting entries) and disables hedging; false
	// restores normal admission and hedging.
	Brownout bool
}

// Controller closes the loop: the gateway calls Tick at every control
// interval (before autoscaling, so prewarming targets the plan the
// directive selects) and applies the returned directive. Implementations
// must be deterministic functions of (now, obs) and their own state — no
// wall clock, no unseeded randomness — to keep replays bit-reproducible.
type Controller interface {
	Name() string
	Tick(now time.Duration, obs ControlObservation) Directive
}

// windowEntry is one settled query in the gateway's sliding window.
type windowEntry struct {
	served  bool
	sloOK   bool
	faulted bool
	totalMs float64
}

// controlTick builds the ControlObservation, asks the controller for a
// directive, and applies it. Called from the autoscale process.
func (g *gateway) controlTick(proc *simnet.Proc, obs Observation) {
	if g.cfg.Controller == nil {
		return
	}
	co := ControlObservation{Observation: obs}
	if sw, ok := g.b.(Switchable); ok {
		co.ActiveBackend = sw.Active()
	}
	var sloOK, served int
	var servedMs float64
	for _, e := range g.window {
		if e.sloOK {
			sloOK++
		}
		if e.served {
			served++
			servedMs += e.totalMs
		}
		if e.faulted {
			co.WindowFaulted++
		}
	}
	co.WindowCount = len(g.window)
	if co.WindowCount > 0 {
		co.WindowSLOPct = 100 * float64(sloOK) / float64(co.WindowCount)
	}
	if served > 0 {
		co.WindowMeanMs = servedMs / float64(served)
		co.WindowServedSLOPct = 100 * float64(sloOK) / float64(served)
	}

	dir := g.cfg.Controller.Tick(proc.Now(), co)

	if sw, ok := g.b.(Switchable); ok && dir.SwitchTo >= 0 && dir.SwitchTo != sw.Active() {
		if err := sw.Switch(dir.SwitchTo); err != nil {
			g.scaleErr = err
			return
		}
		g.planSwitches++
		g.mPlanSwitches.Inc()
	}
	if dir.Brownout != g.brownout {
		g.setBrownout(proc, dir.Brownout)
	}
}

// setBrownout flips the gateway's brownout mode: engaging tightens
// admission and disables hedging; releasing restores both and accumulates
// the episode's duration.
func (g *gateway) setBrownout(proc *simnet.Proc, on bool) {
	g.brownout = on
	if on {
		g.brownoutSince = proc.Now()
	} else {
		g.brownoutMs += durMs(proc.Now() - g.brownoutSince)
	}
	if hc, ok := g.b.(HedgeControl); ok {
		hc.SetHedging(!on)
	}
	if on {
		g.mBrownouts.Inc()
	}
}

// recordWindow appends one settle to the sliding last-N window.
func (g *gateway) recordWindow(e windowEntry) {
	if g.cfg.Window <= 0 {
		return
	}
	if len(g.window) == g.cfg.Window {
		// Copied down, not resliced: the window keeps one backing array.
		g.window = append(g.window[:0], g.window[1:]...)
	}
	g.window = append(g.window, e)
}
