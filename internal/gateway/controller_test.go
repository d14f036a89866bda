package gateway

import (
	"encoding/json"
	"testing"
	"time"

	"gillis/internal/platform"
	"gillis/internal/runtime"
	"gillis/internal/simnet"
	"gillis/internal/tensor"
	"gillis/internal/workload"
	"math/rand"
)

// scriptCtl is a deterministic scripted controller: brownout between
// brownFrom and brownTo, then a switch to plan 1.
type scriptCtl struct {
	brownFrom, brownTo, switchAt time.Duration
	ticks                        int
}

func (c *scriptCtl) Name() string { return "script" }

func (c *scriptCtl) Tick(now time.Duration, obs ControlObservation) Directive {
	c.ticks++
	d := Directive{SwitchTo: -1}
	if now >= c.brownFrom && now < c.brownTo {
		d.Brownout = true
	}
	if now >= c.switchAt {
		d.SwitchTo = 1
	}
	return d
}

func TestScriptedControllerSwitchesAndBrownout(t *testing.T) {
	units := tinyCNN(t)
	plan := twoGroupPlan(t, units)
	env := simnet.NewEnv()
	p := platform.New(env, platform.AWSLambda(), 3)
	d1, err := runtime.Deploy(p, units, plan, runtime.ShapeOnly)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := runtime.DeployDefault(p, units, runtime.ShapeOnly)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := runtime.NewSwitcher(d1, d2)
	if err != nil {
		t.Fatal(err)
	}
	var arrivals []time.Duration
	for at := 50 * time.Millisecond; at < 5*time.Second; at += 100 * time.Millisecond {
		arrivals = append(arrivals, at)
	}
	ctl := &scriptCtl{
		brownFrom: 500 * time.Millisecond,
		brownTo:   2 * time.Second,
		switchAt:  3 * time.Second,
	}
	rep, outs, err := Run(sw, arrivals, Config{
		MaxInFlight: 1,
		QueueCap:    2,
		SLOMs:       600,
		Controller:  ctl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ctl.ticks == 0 {
		t.Fatal("controller was never ticked")
	}
	if rep.Controller != "script" {
		t.Errorf("report controller %q, want script", rep.Controller)
	}
	if rep.PlanSwitches != 1 {
		t.Errorf("plan switches %d, want exactly 1 (idempotent directives)", rep.PlanSwitches)
	}
	if sw.Active() != 1 {
		t.Errorf("active plan %d after replay, want 1", sw.Active())
	}
	if rep.BrownoutSheds == 0 {
		t.Error("brownout with a saturated slot must shed")
	}
	brownoutSheds := 0
	for _, o := range outs {
		if o.Err == ErrBrownout.Error() {
			if !o.Shed {
				t.Errorf("query %d: brownout shed not marked Shed", o.ID)
			}
			if o.ArrivalMs < 500 || o.ArrivalMs >= 2000 {
				t.Errorf("query %d shed by brownout outside the episode at %v ms", o.ID, o.ArrivalMs)
			}
			brownoutSheds++
		}
	}
	if brownoutSheds != rep.BrownoutSheds {
		t.Errorf("typed brownout sheds %d != reported %d", brownoutSheds, rep.BrownoutSheds)
	}
	if rep.BrownoutMs < 1000 || rep.BrownoutMs > 2000 {
		t.Errorf("brownout duration %v ms, want ~1500", rep.BrownoutMs)
	}
	if rep.Window != 50 {
		t.Errorf("window %d, want default 50", rep.Window)
	}
	reg := p.Metrics()
	if got := reg.Counter("gateway.plan_switches").Value(); got != 1 {
		t.Errorf("gateway.plan_switches = %d, want 1", got)
	}
	if got := reg.Counter("gateway.brownouts").Value(); got != 1 {
		t.Errorf("gateway.brownouts = %d, want 1", got)
	}
	if got := reg.Counter("gateway.brownout_shed").Value(); got != int64(rep.BrownoutSheds) {
		t.Errorf("gateway.brownout_shed = %d, want %d", got, rep.BrownoutSheds)
	}
}

// TestNilControllerSwitcherBitIdentical backs the adaptive bench's
// baseline claim: serving through a Switcher holding extra (inactive)
// candidate plans, with no controller, reproduces the plain single-
// deployment replay byte-for-byte — registration costs no RNG draws and no
// virtual time.
func TestNilControllerSwitcherBitIdentical(t *testing.T) {
	replay := func(withSwitcher bool) (string, string) {
		cfg := platform.AWSLambda()
		cfg.WarmIdleMs = 8000
		cfg.PrewarmMs = cfg.ColdStartMs
		units := tinyCNN(t)
		plan := twoGroupPlan(t, units)
		env := simnet.NewEnv()
		p := platform.New(env, cfg, 7)
		d, err := runtime.Deploy(p, units, plan, runtime.Real)
		if err != nil {
			t.Fatal(err)
		}
		var b Backend = d
		if withSwitcher {
			alt, err := runtime.DeployDefault(p, units, runtime.Real)
			if err != nil {
				t.Fatal(err)
			}
			sw, err := runtime.NewSwitcher(d, alt)
			if err != nil {
				t.Fatal(err)
			}
			b = sw
		}
		x := tensor.Rand(rand.New(rand.NewSource(3)), 1, 3, 24, 24)
		rep, outs, err := Run(b, burstTrace(t), Config{
			MaxInFlight: 4,
			QueueCap:    8,
			SLOMs:       900,
			Input:       func(int) *tensor.Tensor { return x },
			Policy:      BurstAware{Spec: burstSpec(), EstServeMs: 400, LeadMs: 500},
		})
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return string(js), outcomeDigest(outs)
	}
	plainRep, plainDig := replay(false)
	swRep, swDig := replay(true)
	if plainRep != swRep {
		t.Errorf("reports diverged:\n%s\nvs\n%s", plainRep, swRep)
	}
	if plainDig != swDig {
		t.Errorf("outcome digests diverged: %s vs %s", plainDig, swDig)
	}
}

// TestFaultKindsInReport pins the per-kind fault accounting a drift
// detector consumes.
func TestFaultKindsInReport(t *testing.T) {
	cfg := platform.AWSLambda()
	cfg.Faults = platform.FaultProfile{FailureProb: 0.15, EvictionProb: 0.1}
	d := deploy(t, cfg, 21, runtime.ShapeOnly)
	arrivals, err := workload.Poisson(rand.New(rand.NewSource(4)), 3, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rep, outs, err := Run(d, arrivals, Config{MaxInFlight: 4, QueueCap: 8, SLOMs: 900})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faulted == 0 {
		t.Fatal("fault injection was vacuous")
	}
	var sum int
	for kind, n := range rep.FaultsByKind {
		if kind == "" {
			t.Error("empty fault kind in report")
		}
		sum += n
	}
	if sum != rep.Faulted {
		t.Errorf("faults by kind sum %d != faulted %d: %+v", sum, rep.Faulted, rep.FaultsByKind)
	}
	for _, o := range outs {
		faulted := !o.Shed && o.Err != ""
		if faulted && o.FaultKind == "" {
			t.Errorf("query %d faulted without a kind: %+v", o.ID, o)
		}
		if !faulted && o.FaultKind != "" {
			t.Errorf("query %d has a spurious fault kind: %+v", o.ID, o)
		}
	}
	if rep.WindowSLOPct < 0 || rep.WindowSLOPct > 100 {
		t.Errorf("window SLO pct out of range: %v", rep.WindowSLOPct)
	}
	reg := d.Platform().Metrics()
	var counted int64
	for _, k := range []string{"failure", "evicted", "throttled", "other"} {
		counted += reg.Counter("gateway.faults." + k).Value()
	}
	if counted != int64(rep.Faulted) {
		t.Errorf("gateway.faults.* counters sum %d, want %d", counted, rep.Faulted)
	}
}

// TestFixedPoolRewarmsSwitchedPlan pins the policy half of a plan switch:
// with a FixedPool policy the autoscaler re-warms a newly activated plan
// within a control tick, so the switch does not pay a cold-start burst —
// the adaptive bench relies on exactly this to hold attainment through
// mid-replay switches.
func TestFixedPoolRewarmsSwitchedPlan(t *testing.T) {
	replay := func(pol Policy) *LoadReport {
		units := tinyCNN(t)
		plan := twoGroupPlan(t, units)
		env := simnet.NewEnv()
		cfg := platform.AWSLambda()
		cfg.WarmIdleMs = 0 // warm instances never expire on their own
		cfg.PrewarmMs = cfg.ColdStartMs
		p := platform.New(env, cfg, 3)
		d1, err := runtime.Deploy(p, units, plan, runtime.ShapeOnly)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := runtime.DeployDefault(p, units, runtime.ShapeOnly)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := runtime.NewSwitcher(d1, d2)
		if err != nil {
			t.Fatal(err)
		}
		var arrivals []time.Duration
		for at := 50 * time.Millisecond; at < 8*time.Second; at += 200 * time.Millisecond {
			arrivals = append(arrivals, at)
		}
		ctl := &scriptCtl{switchAt: 4 * time.Second}
		rep, _, err := Run(sw, arrivals, Config{
			MaxInFlight: 2,
			QueueCap:    4,
			SLOMs:       600,
			Controller:  ctl,
			Policy:      pol,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	cold := replay(NonePolicy{})
	warm := replay(FixedPool{Sets: 2})
	if warm.PrewarmBilledMs == 0 {
		t.Error("FixedPool never prewarmed")
	}
	if warm.ColdStarts >= cold.ColdStarts {
		t.Errorf("FixedPool did not cut post-switch cold starts: %d vs %d", warm.ColdStarts, cold.ColdStarts)
	}
}

// badCtl directs a switch to a candidate index the switcher doesn't have.
type badCtl struct{}

func (badCtl) Name() string { return "bad" }

func (badCtl) Tick(now time.Duration, obs ControlObservation) Directive {
	return Directive{SwitchTo: 99}
}

// TestControllerBadSwitchFailsReplay pins the failure mode of a directive
// the backend cannot honour: the replay surfaces the switch error instead
// of silently serving on.
func TestControllerBadSwitchFailsReplay(t *testing.T) {
	units := tinyCNN(t)
	env := simnet.NewEnv()
	p := platform.New(env, platform.AWSLambda(), 3)
	d1, err := runtime.DeployDefault(p, units, runtime.ShapeOnly)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := runtime.NewSwitcher(d1)
	if err != nil {
		t.Fatal(err)
	}
	var arrivals []time.Duration
	for at := 50 * time.Millisecond; at < 2*time.Second; at += 100 * time.Millisecond {
		arrivals = append(arrivals, at)
	}
	if _, _, err := Run(sw, arrivals, Config{MaxInFlight: 1, QueueCap: 2, Controller: badCtl{}}); err == nil {
		t.Fatal("replay with an unsatisfiable switch directive did not fail")
	}
}
