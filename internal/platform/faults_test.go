package platform

import (
	"errors"
	"strings"
	"testing"
	"time"

	"gillis/internal/simnet"
)

func TestInjectedFailureBillsPartialWork(t *testing.T) {
	cfg := fastCfg()
	cfg.Faults = FaultProfile{FailureProb: 1}
	runSim(t, cfg, 1, func(p *Platform, proc *simnet.Proc) {
		_ = p.Register("f", func(ctx *Ctx, in Payload) (Payload, error) {
			ctx.Compute(2e9) // 100 ms
			return Payload{Bytes: 1000}, nil
		})
		res, err := p.InvokeFrom(proc, "f", Payload{})
		if err == nil {
			t.Fatal("expected injected failure")
		}
		var ie *InvokeError
		if !errors.As(err, &ie) || ie.Kind != FaultFailure {
			t.Fatalf("want InvokeError{FaultFailure}, got %v", err)
		}
		// The crashed invocation's work is done and billed — both on the
		// result returned alongside the error and inside the error itself.
		if res.BilledMs < 100 || ie.Res.BilledMs != res.BilledMs {
			t.Errorf("partial billing lost: res=%+v errRes=%+v", res, ie.Res)
		}
		if BilledMsOf(err) != res.TotalBilledMs {
			t.Errorf("BilledMsOf %d, want %d", BilledMsOf(err), res.TotalBilledMs)
		}
		if p.Faulted() != 1 {
			t.Errorf("faulted %d, want 1", p.Faulted())
		}
	})
}

func TestHandlerErrorCarriesBilling(t *testing.T) {
	// Satellite fix: a handler error must not swallow the populated
	// InvokeResult — the platform billed the failed run.
	cfg := fastCfg()
	boom := errors.New("boom")
	runSim(t, cfg, 2, func(p *Platform, proc *simnet.Proc) {
		_ = p.Register("f", func(ctx *Ctx, in Payload) (Payload, error) {
			ctx.Compute(1e9) // 50 ms
			return Payload{}, boom
		})
		res, err := p.InvokeFrom(proc, "f", Payload{})
		if !errors.Is(err, boom) {
			t.Fatalf("handler error lost: %v", err)
		}
		if res.HandlerMs < 49 || res.BilledMs < 50 || res.TotalBilledMs != res.BilledMs {
			t.Errorf("billing not populated on handler error: %+v", res)
		}
		var ie *InvokeError
		if !errors.As(err, &ie) || ie.Kind != FaultFailure || ie.Res.BilledMs != res.BilledMs {
			t.Errorf("typed error wrong: %#v", err)
		}
	})
}

func TestFailedNestedInvocationChargedToCallerOnce(t *testing.T) {
	cfg := fastCfg()
	runSim(t, cfg, 3, func(p *Platform, proc *simnet.Proc) {
		boom := errors.New("boom")
		_ = p.Register("worker", func(ctx *Ctx, in Payload) (Payload, error) {
			ctx.Compute(1e9) // 50 ms
			return Payload{}, boom
		})
		var workerBilled int64
		_ = p.Register("master", func(ctx *Ctx, in Payload) (Payload, error) {
			res, err := ctx.Invoke("worker", Payload{Bytes: 100})
			if err == nil {
				return Payload{}, errors.New("worker should fail")
			}
			workerBilled = BilledMsOf(err)
			if res.TotalBilledMs != workerBilled || res.BilledMs < 50 {
				t.Errorf("failed Invoke must surface partial billing: %+v vs %d", res, workerBilled)
			}
			return Payload{}, nil
		})
		res, err := p.InvokeFrom(proc, "master", Payload{})
		if err != nil {
			t.Fatal(err)
		}
		if workerBilled < 50 {
			t.Fatalf("worker billing not in error: %d", workerBilled)
		}
		// Master's total must include the failed worker exactly once.
		want := res.BilledMs + workerBilled
		if res.TotalBilledMs != want {
			t.Errorf("master total %d, want master %d + worker %d", res.TotalBilledMs, res.BilledMs, workerBilled)
		}
	})
}

func TestStragglerSlowdown(t *testing.T) {
	cfg := fastCfg()
	cfg.Faults = FaultProfile{StragglerProb: 1, StragglerFactor: 3}
	runSim(t, cfg, 7, func(p *Platform, proc *simnet.Proc) {
		_ = p.Register("f", func(ctx *Ctx, in Payload) (Payload, error) {
			ctx.Compute(2e9) // 100 ms healthy
			return Payload{}, nil
		})
		res, err := p.InvokeFrom(proc, "f", Payload{})
		if err != nil {
			t.Fatal(err)
		}
		if res.HandlerMs < 295 || res.HandlerMs > 305 {
			t.Errorf("straggler handler %v ms, want ~300", res.HandlerMs)
		}
	})
}

func TestEvictionFailsFastWithoutBilling(t *testing.T) {
	cfg := fastCfg()
	cfg.Faults = FaultProfile{EvictionProb: 1}
	runSim(t, cfg, 8, func(p *Platform, proc *simnet.Proc) {
		ran := false
		_ = p.Register("f", func(ctx *Ctx, in Payload) (Payload, error) {
			ran = true
			return Payload{}, nil
		})
		if err := p.Prewarm("f", 1); err != nil {
			t.Fatal(err)
		}
		res, err := p.InvokeFrom(proc, "f", Payload{})
		var ie *InvokeError
		if !errors.As(err, &ie) || ie.Kind != FaultEvicted {
			t.Fatalf("want FaultEvicted, got %v", err)
		}
		if ran {
			t.Error("evicted invocation must not run the handler")
		}
		if res.HandlerMs != 0 || res.BilledMs != 0 {
			t.Errorf("eviction bills nothing: %+v", res)
		}
		if res.ColdStart {
			t.Error("first eviction should have claimed the prewarmed instance")
		}
		// The claimed warm instance was destroyed: next acquisition is cold.
		res2, err := p.InvokeFrom(proc, "f", Payload{})
		if !errors.As(err, &ie) || ie.Kind != FaultEvicted {
			t.Fatalf("want FaultEvicted again, got %v", err)
		}
		if !res2.ColdStart {
			t.Error("evicted warm instance leaked back into the pool")
		}
	})
}

func TestFaultScheduleReproducibleFromSeed(t *testing.T) {
	type outcome struct {
		kind FaultKind // 0 = success
		ms   float64
	}
	run := func(seed int64) []outcome {
		cfg := AWSLambda()
		cfg.Faults = FaultProfile{FailureProb: 0.2, StragglerProb: 0.2, StragglerFactor: 4, EvictionProb: 0.1}
		var out []outcome
		runSim(t, cfg, seed, func(p *Platform, proc *simnet.Proc) {
			_ = p.Register("f", func(ctx *Ctx, in Payload) (Payload, error) {
				ctx.Compute(5e8)
				return Payload{}, nil
			})
			for i := 0; i < 100; i++ {
				res, err := p.InvokeFrom(proc, "f", Payload{})
				o := outcome{ms: res.HandlerMs}
				var ie *InvokeError
				if errors.As(err, &ie) {
					o.kind = ie.Kind
				}
				out = append(out, o)
			}
		})
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at invocation %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := 0
	for i := range a {
		if a[i].kind == c[i].kind {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced an identical fault schedule")
	}
	// Faults must actually fire at these rates.
	faults := 0
	for _, o := range a {
		if o.kind != 0 {
			faults++
		}
	}
	if faults < 10 {
		t.Fatalf("only %d/100 faults at ~28%% combined rate", faults)
	}
}

func TestFaultsDoNotPerturbNoiseStream(t *testing.T) {
	// Enabling eviction-free fault draws must leave the EMG overhead and
	// compute-noise stream untouched: successful invocations in a faulty
	// run match the fault-free run exactly until the first actual fault.
	run := func(faults FaultProfile) []float64 {
		cfg := AWSLambda()
		cfg.Faults = faults
		var out []float64
		runSim(t, cfg, 42, func(p *Platform, proc *simnet.Proc) {
			_ = p.Register("f", func(ctx *Ctx, in Payload) (Payload, error) {
				ctx.Compute(5e8)
				return Payload{}, nil
			})
			for i := 0; i < 20; i++ {
				res, err := p.InvokeFrom(proc, "f", Payload{})
				if err != nil {
					break
				}
				out = append(out, res.HandlerMs+res.OverheadMs)
			}
		})
		return out
	}
	clean := run(FaultProfile{})
	// Probabilities low enough that (deterministically, for this seed) no
	// fault fires in 20 invocations — draws still happen on every one.
	faulty := run(FaultProfile{FailureProb: 1e-9, StragglerProb: 1e-9, EvictionProb: 1e-9})
	if len(faulty) != len(clean) {
		t.Fatalf("a fault fired unexpectedly: %d vs %d invocations", len(faulty), len(clean))
	}
	for i := range clean {
		if clean[i] != faulty[i] {
			t.Fatalf("noise stream perturbed at %d: %v vs %v", i, clean[i], faulty[i])
		}
	}
}

func TestWarmIdleExpiryDeterministic(t *testing.T) {
	cfg := fastCfg()
	cfg.WarmIdleMs = 1000
	runSim(t, cfg, 10, func(p *Platform, proc *simnet.Proc) {
		_ = p.Register("f", func(ctx *Ctx, in Payload) (Payload, error) { return Payload{}, nil })
		if err := p.Prewarm("f", 2); err != nil {
			t.Fatal(err)
		}
		if got := p.Function("f").WarmCount(); got != 2 {
			t.Fatalf("warm after prewarm = %d, want 2", got)
		}
		// One nanosecond short of the idle limit: both instances survive.
		proc.Sleep(1000*time.Millisecond - time.Nanosecond)
		if got := p.Function("f").WarmCount(); got != 2 {
			t.Errorf("warm at idle-1ns = %d, want 2", got)
		}
		// At exactly WarmIdleMs of idleness the platform reclaims them.
		proc.Sleep(time.Nanosecond)
		if got := p.Function("f").WarmCount(); got != 0 {
			t.Errorf("warm at idle = %d, want 0 (expired)", got)
		}
		// The next invocation pays a cold start again.
		res, err := p.InvokeFrom(proc, "f", Payload{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.ColdStart {
			t.Error("expired pool must force a cold start")
		}
		// The instance that just finished is freshly stamped and survives
		// a short idle, then expires on its own schedule.
		proc.Sleep(500 * time.Millisecond)
		if got := p.Function("f").WarmCount(); got != 1 {
			t.Errorf("fresh instance expired early: warm = %d, want 1", got)
		}
		proc.Sleep(500 * time.Millisecond)
		if got := p.Function("f").WarmCount(); got != 0 {
			t.Errorf("fresh instance outlived WarmIdleMs: warm = %d, want 0", got)
		}
	})
}

func TestWarmIdleZeroNeverExpires(t *testing.T) {
	cfg := fastCfg() // WarmIdleMs = 0: instances are kept forever
	runSim(t, cfg, 11, func(p *Platform, proc *simnet.Proc) {
		_ = p.Register("f", func(ctx *Ctx, in Payload) (Payload, error) { return Payload{}, nil })
		if err := p.Prewarm("f", 3); err != nil {
			t.Fatal(err)
		}
		proc.Sleep(time.Hour)
		if got := p.Function("f").WarmCount(); got != 3 {
			t.Errorf("warm after 1h with no idle limit = %d, want 3", got)
		}
	})
}

func TestMaxConcurrencyThrottlesWithoutBilling(t *testing.T) {
	env := simnet.NewEnv()
	cfg := fastCfg()
	cfg.MaxConcurrency = 1
	p := New(env, cfg, 12)
	_ = p.Register("f", func(ctx *Ctx, in Payload) (Payload, error) {
		ctx.Compute(2e9) // 100 ms
		return Payload{}, nil
	})
	var firstErr, throttledErr, retryErr error
	var throttledRes, retryRes InvokeResult
	env.Go("first", func(proc *simnet.Proc) {
		_, firstErr = p.InvokeFrom(proc, "f", Payload{})
	})
	env.Go("second", func(proc *simnet.Proc) {
		proc.Sleep(10 * time.Millisecond) // while "first" is in flight
		throttledRes, throttledErr = p.InvokeFrom(proc, "f", Payload{})
		proc.Sleep(2 * time.Second) // after "first" settles
		retryRes, retryErr = p.InvokeFrom(proc, "f", Payload{})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if firstErr != nil {
		t.Fatalf("admitted invocation failed: %v", firstErr)
	}
	var ie *InvokeError
	if !errors.As(throttledErr, &ie) || ie.Kind != FaultThrottled {
		t.Fatalf("want InvokeError{FaultThrottled}, got %v", throttledErr)
	}
	if !strings.Contains(ie.Error(), "throttled") {
		t.Errorf("throttle error message: %q", ie.Error())
	}
	// A throttled invocation does no work and bills nothing.
	if throttledRes.BilledMs != 0 || throttledRes.TotalBilledMs != 0 || throttledRes.HandlerMs != 0 {
		t.Errorf("throttle must bill nothing: %+v", throttledRes)
	}
	if BilledMsOf(throttledErr) != 0 {
		t.Errorf("BilledMsOf(throttled) = %d, want 0", BilledMsOf(throttledErr))
	}
	if p.Faulted() != 1 {
		t.Errorf("faulted = %d, want 1 (the throttle)", p.Faulted())
	}
	// Once the slot frees, the same caller gets through on the warm
	// instance the first invocation left behind.
	if retryErr != nil {
		t.Fatalf("post-throttle retry failed: %v", retryErr)
	}
	if retryRes.ColdStart {
		t.Error("retry should reuse the warm instance")
	}
}

func TestPrewarmBillsPingCost(t *testing.T) {
	cfg := fastCfg()
	cfg.PrewarmMs = 50
	runSim(t, cfg, 13, func(p *Platform, proc *simnet.Proc) {
		_ = p.Register("f", func(ctx *Ctx, in Payload) (Payload, error) { return Payload{}, nil })
		if err := p.Prewarm("f", 3); err != nil {
			t.Fatal(err)
		}
		if got := p.BilledMsTotal(); got != 150 {
			t.Errorf("prewarm billed %d ms, want 3*50", got)
		}
		if got := p.PrewarmBilledMs(); got != 150 {
			t.Errorf("PrewarmBilledMs = %d, want 150", got)
		}
		if got := p.Function("f").WarmCount(); got != 3 {
			t.Errorf("warm = %d, want 3", got)
		}
		// An invocation's billing stacks on top; the prewarm share stays
		// separately attributable for trace reconciliation.
		res, err := p.InvokeFrom(proc, "f", Payload{})
		if err != nil {
			t.Fatal(err)
		}
		if got := p.BilledMsTotal(); got != 150+res.TotalBilledMs {
			t.Errorf("total %d, want prewarm 150 + invocation %d", got, res.TotalBilledMs)
		}
		if got := p.PrewarmBilledMs(); got != 150 {
			t.Errorf("PrewarmBilledMs drifted to %d", got)
		}
	})
}

func TestPrewarmFreeByDefault(t *testing.T) {
	runSim(t, fastCfg(), 14, func(p *Platform, proc *simnet.Proc) {
		_ = p.Register("f", func(ctx *Ctx, in Payload) (Payload, error) { return Payload{}, nil })
		if err := p.Prewarm("f", 5); err != nil {
			t.Fatal(err)
		}
		if got := p.BilledMsTotal(); got != 0 {
			t.Errorf("default prewarm billed %d ms, want 0", got)
		}
	})
}

func TestThrottleDoesNotPerturbFaultStream(t *testing.T) {
	// A throttled arrival is rejected before any RNG draw, so the fault
	// schedule seen by admitted invocations is identical with and without
	// throttled traffic interleaved.
	kinds := func(throttleNoise bool) []FaultKind {
		env := simnet.NewEnv()
		cfg := fastCfg()
		cfg.MaxConcurrency = 1
		cfg.Faults = FaultProfile{FailureProb: 0.3}
		p := New(env, cfg, 42)
		_ = p.Register("f", func(ctx *Ctx, in Payload) (Payload, error) {
			ctx.Compute(2e9) // 100 ms
			return Payload{}, nil
		})
		var out []FaultKind
		env.Go("driver", func(proc *simnet.Proc) {
			for i := 0; i < 30; i++ {
				_, err := p.InvokeFrom(proc, "f", Payload{})
				var ie *InvokeError
				if errors.As(err, &ie) {
					out = append(out, ie.Kind)
				} else {
					out = append(out, 0)
				}
			}
		})
		if throttleNoise {
			env.Go("noise", func(proc *simnet.Proc) {
				for i := 0; i < 50; i++ {
					proc.Sleep(37 * time.Millisecond)
					_, _ = p.InvokeFrom(proc, "f", Payload{})
				}
			})
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	quiet, noisy := kinds(false), kinds(true)
	for i := range quiet {
		if quiet[i] != noisy[i] {
			t.Fatalf("fault schedule perturbed at %d: %v vs %v", i, quiet[i], noisy[i])
		}
	}
}

func TestFaultScheduleResolvesByTime(t *testing.T) {
	degraded := FaultProfile{FailureProb: 0.5}
	recovered := FaultProfile{}
	cfg := fastCfg()
	cfg.Faults = FaultProfile{StragglerProb: 0.1}
	// Deliberately out of order: New sorts a copy by AtMs.
	cfg.FaultSchedule = []FaultTransition{
		{AtMs: 2000, Profile: recovered},
		{AtMs: 1000, Profile: degraded},
	}
	p := New(simnet.NewEnv(), cfg, 1)
	if got := p.Config().FaultSchedule[0].AtMs; got != 1000 {
		t.Fatalf("schedule not sorted: first transition at %v", got)
	}
	cases := []struct {
		atMs float64
		want FaultProfile
	}{
		{0, cfg.Faults},
		{999, cfg.Faults},
		{1000, degraded}, // transition instant inclusive
		{1999, degraded},
		{2000, recovered},
		{50000, recovered},
	}
	for _, c := range cases {
		if got := p.FaultsAt(time.Duration(c.atMs) * time.Millisecond); got != c.want {
			t.Errorf("FaultsAt(%v ms) = %+v, want %+v", c.atMs, got, c.want)
		}
	}
}

func TestFaultScheduleAppliesMidReplay(t *testing.T) {
	// Healthy at t=0, every invocation crashes from t=1s, healthy again
	// from t=2s. The profile is resolved at each invocation's dispatch.
	cfg := fastCfg()
	cfg.FaultSchedule = []FaultTransition{
		{AtMs: 1000, Profile: FaultProfile{FailureProb: 1}},
		{AtMs: 2000, Profile: FaultProfile{}},
	}
	runSim(t, cfg, 5, func(p *Platform, proc *simnet.Proc) {
		_ = p.Register("f", func(ctx *Ctx, in Payload) (Payload, error) {
			ctx.Compute(2e8) // 10 ms
			return Payload{Bytes: 10}, nil
		})
		invoke := func() error {
			_, err := p.InvokeFrom(proc, "f", Payload{})
			return err
		}
		if err := invoke(); err != nil {
			t.Fatalf("healthy phase failed: %v", err)
		}
		proc.Sleep(1200*time.Millisecond - (proc.Now()-proc.Now()%time.Millisecond)%time.Millisecond)
		for proc.Now() < 1200*time.Millisecond {
			proc.Sleep(1200*time.Millisecond - proc.Now())
		}
		err := invoke()
		var ie *InvokeError
		if !errors.As(err, &ie) || ie.Kind != FaultFailure {
			t.Fatalf("degraded phase: want FaultFailure, got %v", err)
		}
		if k, ok := FaultKindOf(err); !ok || k != FaultFailure {
			t.Errorf("FaultKindOf = %v,%v, want failure,true", k, ok)
		}
		for proc.Now() < 2500*time.Millisecond {
			proc.Sleep(2500*time.Millisecond - proc.Now())
		}
		if err := invoke(); err != nil {
			t.Fatalf("recovered phase failed: %v", err)
		}
	})
}

func TestEmptyFaultScheduleByteIdentical(t *testing.T) {
	// A nil schedule — and a schedule whose only transition re-asserts the
	// base profile — must leave a stochastic replay bit-identical to the
	// single-profile configuration.
	type tally struct {
		faulted, billed int64
		end             time.Duration
	}
	replay := func(sched []FaultTransition) tally {
		env := simnet.NewEnv()
		cfg := AWSLambda()
		cfg.Faults = FaultProfile{FailureProb: 0.2, StragglerProb: 0.1, StragglerFactor: 3}
		cfg.FaultSchedule = sched
		p := New(env, cfg, 77)
		_ = p.Register("f", func(ctx *Ctx, in Payload) (Payload, error) {
			ctx.Compute(1e9)
			return Payload{Bytes: 500}, nil
		})
		env.Go("driver", func(proc *simnet.Proc) {
			for i := 0; i < 40; i++ {
				_, _ = p.InvokeFrom(proc, "f", Payload{Bytes: 200})
				proc.Sleep(13 * time.Millisecond)
			}
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return tally{p.Faulted(), p.BilledMsTotal(), env.Now()}
	}
	base := replay(nil)
	same := replay([]FaultTransition{{AtMs: 0, Profile: FaultProfile{FailureProb: 0.2, StragglerProb: 0.1, StragglerFactor: 3}}})
	if base != same {
		t.Fatalf("schedule re-asserting the base profile diverged: %+v vs %+v", base, same)
	}
}
