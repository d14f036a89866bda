package runtime

import (
	"testing"

	"gillis/internal/partition"
	"gillis/internal/platform"
	"gillis/internal/simnet"
	"gillis/internal/tensor"
)

func TestSwitcherValidation(t *testing.T) {
	if _, err := NewSwitcher(); err == nil {
		t.Fatal("empty switcher must be rejected")
	}
	units := tinyCNN(t)
	env := simnet.NewEnv()
	p1 := platform.New(env, platform.AWSLambda(), 1)
	p2 := platform.New(env, platform.AWSLambda(), 2)
	d1, err := DeployDefault(p1, units, ShapeOnly)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := DeployDefault(p2, units, ShapeOnly)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSwitcher(d1, d2); err == nil {
		t.Fatal("cross-platform switcher must be rejected")
	}
	sw, err := NewSwitcher(d1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Add(d2); err == nil {
		t.Fatal("cross-platform Add must be rejected")
	}
	if err := sw.Switch(3); err == nil {
		t.Fatal("out-of-range Switch must be rejected")
	}
	if _, err := sw.Deployment(-1); err == nil {
		t.Fatal("out-of-range Deployment must be rejected")
	}
	if sw.Platform() != p1 {
		t.Error("Platform must be the shared platform")
	}
}

func TestSwitcherHotSwapBitExact(t *testing.T) {
	// Every candidate serves the same model: outputs are bit-identical to
	// monolithic execution regardless of which plan is active, and a swap
	// takes effect on the next pass — a single query or a batch.
	units := tinyCNN(t)
	plan := mixedPlan(t, units)
	xs, want := inputsAndWant(t, units, 9, 2)
	runClient(t, platform.KNIX(), 3, func(p *platform.Platform, proc *simnet.Proc) {
		dDefault, err := DeployDefault(p, units, Real)
		if err != nil {
			t.Error(err)
			return
		}
		dPlan, err := Deploy(p, units, plan, Real)
		if err != nil {
			t.Error(err)
			return
		}
		sw, err := NewSwitcher(dDefault, dPlan)
		if err != nil {
			t.Error(err)
			return
		}
		if sw.Len() != 2 || sw.Active() != 0 {
			t.Errorf("len=%d active=%d, want 2,0", sw.Len(), sw.Active())
		}
		res, _, err := sw.ServeBatch(proc, xs[:1], 1, false)
		if err != nil {
			t.Error(err)
			return
		}
		if !tensor.Equal(res.Outputs[0], want[0]) {
			t.Error("default-plan output mismatch")
		}
		if err := sw.Switch(1); err != nil {
			t.Error(err)
			return
		}
		if sw.Active() != 1 {
			t.Errorf("active=%d after switch, want 1", sw.Active())
		}
		res2, tr, err := sw.ServeBatch(proc, xs, len(xs), true)
		if err != nil {
			t.Error(err)
			return
		}
		if tr == nil {
			t.Error("a traced serve must return a trace")
		}
		for e := range want {
			if !tensor.Equal(res2.Outputs[e], want[e]) {
				t.Errorf("swapped-plan output %d mismatch", e)
			}
		}
		// The swapped plan fans out, so it bills more functions.
		if res2.BilledMs <= 0 {
			t.Errorf("bad accounting after swap: %+v", res2)
		}
	})
}

func TestSwitcherPrewarmTargetsActive(t *testing.T) {
	units := tinyCNN(t)
	runClient(t, platform.AWSLambda(), 4, func(p *platform.Platform, proc *simnet.Proc) {
		d1, err := DeployDefault(p, units, ShapeOnly)
		if err != nil {
			t.Error(err)
			return
		}
		d2, err := DeployDefault(p, units, ShapeOnly)
		if err != nil {
			t.Error(err)
			return
		}
		sw, err := NewSwitcher(d1, d2)
		if err != nil {
			t.Error(err)
			return
		}
		if err := sw.Prewarm(); err != nil {
			t.Error(err)
			return
		}
		if d1.WarmSets() != 1 || d2.WarmSets() != 0 {
			t.Errorf("warm sets %d,%d after prewarming active, want 1,0", d1.WarmSets(), d2.WarmSets())
		}
		if err := sw.Switch(1); err != nil {
			t.Error(err)
			return
		}
		if sw.WarmSets() != 0 {
			t.Errorf("WarmSets must follow the active deployment, got %d", sw.WarmSets())
		}
	})
}

func TestSetHedgingSuppressesHedges(t *testing.T) {
	// With the kill-switch on, a deployment configured for hedging launches
	// no backups even on a straggler-heavy platform; re-enabling restores
	// them. Assert via per-query Resilience telemetry.
	units := tinyCNN(t)
	plan := &partition.Plan{Model: "tinycnn", Groups: []partition.GroupPlan{
		{First: 0, Last: len(units) - 1, Option: partition.Option{Dim: partition.DimSpatial, Parts: 2}},
	}}
	if err := plan.Validate(units); err != nil {
		t.Fatal(err)
	}
	cfg := platform.AWSLambda()
	cfg.Faults = platform.FaultProfile{StragglerProb: 0.45, StragglerFactor: 30}
	hedges := func(disableAfterWarmup bool) int {
		var total int
		runClient(t, cfg, 11, func(p *platform.Platform, proc *simnet.Proc) {
			d, err := Deploy(p, units, plan, ShapeOnly, WithHedging(70))
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < minHedgeSamples+20; i++ {
				if disableAfterWarmup && i == minHedgeSamples {
					d.SetHedging(false)
				}
				res, err := d.Serve(proc, nil)
				if err != nil {
					continue
				}
				if i >= minHedgeSamples {
					total += res.Resilience.Hedges
				}
			}
		})
		return total
	}
	if on := hedges(false); on == 0 {
		t.Fatal("expected hedges on a straggler-heavy platform")
	}
	if off := hedges(true); off != 0 {
		t.Fatalf("SetHedging(false) must suppress hedges, got %d", off)
	}
}
