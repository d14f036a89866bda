package platform

import (
	"errors"
	"strings"
	"testing"
	"time"

	"gillis/internal/simnet"
)

// runSim executes driver as a client process and returns any error from
// env.Run.
func runSim(t *testing.T, cfg Config, seed int64, driver func(p *Platform, proc *simnet.Proc)) {
	t.Helper()
	env := simnet.NewEnv()
	p := New(env, cfg, seed)
	env.Go("driver", func(proc *simnet.Proc) { driver(p, proc) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// fastCfg is a platform with negligible randomness for exact assertions.
func fastCfg() Config {
	cfg := AWSLambda()
	cfg.ComputeNoise = 0
	return cfg
}

func TestInvokeBasic(t *testing.T) {
	cfg := fastCfg()
	runSim(t, cfg, 1, func(p *Platform, proc *simnet.Proc) {
		err := p.Register("echo", func(ctx *Ctx, in Payload) (Payload, error) {
			ctx.Compute(2e9) // 100 ms at 20 GFLOPS
			return Payload{Bytes: in.Bytes, Data: in.Data}, nil
		})
		if err != nil {
			t.Error(err)
			return
		}
		res, err := p.InvokeFrom(proc, "echo", Payload{Bytes: 1000, Data: "hi"})
		if err != nil {
			t.Error(err)
			return
		}
		if res.Resp.Data != "hi" {
			t.Errorf("resp %v", res.Resp.Data)
		}
		if res.HandlerMs < 99 || res.HandlerMs > 101 {
			t.Errorf("handler ms %v, want ~100", res.HandlerMs)
		}
		if !res.ColdStart {
			t.Error("first invocation must cold-start")
		}
		if res.BilledMs < 100 || res.BilledMs != res.TotalBilledMs {
			t.Errorf("billing wrong: %+v", res)
		}
	})
}

func TestWarmStartAfterFirstInvocation(t *testing.T) {
	runSim(t, fastCfg(), 2, func(p *Platform, proc *simnet.Proc) {
		_ = p.Register("f", func(ctx *Ctx, in Payload) (Payload, error) { return Payload{}, nil })
		r1, err := p.InvokeFrom(proc, "f", Payload{})
		if err != nil {
			t.Error(err)
			return
		}
		r2, err := p.InvokeFrom(proc, "f", Payload{})
		if err != nil {
			t.Error(err)
			return
		}
		if !r1.ColdStart || r2.ColdStart {
			t.Errorf("cold/warm wrong: %v %v", r1.ColdStart, r2.ColdStart)
		}
	})
}

func TestPrewarmAvoidsColdStart(t *testing.T) {
	runSim(t, fastCfg(), 3, func(p *Platform, proc *simnet.Proc) {
		_ = p.Register("f", func(ctx *Ctx, in Payload) (Payload, error) { return Payload{}, nil })
		if err := p.Prewarm("f", 2); err != nil {
			t.Error(err)
			return
		}
		res, err := p.InvokeFrom(proc, "f", Payload{})
		if err != nil {
			t.Error(err)
			return
		}
		if res.ColdStart {
			t.Error("prewarmed function must warm-start")
		}
	})
	env := simnet.NewEnv()
	p := New(env, fastCfg(), 1)
	if err := p.Prewarm("missing", 1); err == nil {
		t.Fatal("expected unknown-function error")
	}
}

func TestBillingGranularity(t *testing.T) {
	cfg := fastCfg()
	cfg.BillingGranMs = 100
	runSim(t, cfg, 4, func(p *Platform, proc *simnet.Proc) {
		_ = p.Register("f", func(ctx *Ctx, in Payload) (Payload, error) {
			ctx.Compute(int64(0.3e9)) // 15 ms
			return Payload{}, nil
		})
		res, err := p.InvokeFrom(proc, "f", Payload{})
		if err != nil {
			t.Error(err)
			return
		}
		if res.BilledMs != 100 {
			t.Errorf("billed %d, want 100 (GCF rounds up to 100 ms)", res.BilledMs)
		}
	})
}

func TestNestedInvocationBillingRollsUp(t *testing.T) {
	cfg := fastCfg()
	runSim(t, cfg, 5, func(p *Platform, proc *simnet.Proc) {
		_ = p.Register("worker", func(ctx *Ctx, in Payload) (Payload, error) {
			ctx.Compute(1e9) // 50 ms
			return Payload{}, nil
		})
		_ = p.Register("master", func(ctx *Ctx, in Payload) (Payload, error) {
			for i := 0; i < 3; i++ {
				if _, err := ctx.Invoke("worker", Payload{Bytes: 100}); err != nil {
					return Payload{}, err
				}
			}
			return Payload{}, nil
		})
		res, err := p.InvokeFrom(proc, "master", Payload{})
		if err != nil {
			t.Error(err)
			return
		}
		if res.TotalBilledMs < res.BilledMs+3*50 {
			t.Errorf("total billed %d must include 3 workers (master %d)", res.TotalBilledMs, res.BilledMs)
		}
	})
}

func TestForkJoinLatencyIsMaxOfWorkers(t *testing.T) {
	cfg := fastCfg()
	cfg.InvokeOverhead.Sigma = 0.001 // nearly deterministic overhead
	cfg.InvokeOverhead.Lambda = 1e6
	runSim(t, cfg, 6, func(p *Platform, proc *simnet.Proc) {
		_ = p.Register("w", func(ctx *Ctx, in Payload) (Payload, error) {
			ctx.Compute(in.Data.(int64))
			return Payload{}, nil
		})
		_ = p.Register("m", func(ctx *Ctx, in Payload) (Payload, error) {
			pr1 := ctx.InvokeAsync("w", Payload{Data: int64(4e9)}) // 200 ms
			pr2 := ctx.InvokeAsync("w", Payload{Data: int64(1e9)}) // 50 ms
			if _, err := pr1.Wait(ctx.Proc()); err != nil {
				return Payload{}, err
			}
			if _, err := pr2.Wait(ctx.Proc()); err != nil {
				return Payload{}, err
			}
			return Payload{}, nil
		})
		res, err := p.InvokeFrom(proc, "m", Payload{})
		if err != nil {
			t.Error(err)
			return
		}
		// Master time ≈ max(worker) + overheads, definitely < sum(workers).
		if res.HandlerMs < 200 || res.HandlerMs > 420 {
			t.Errorf("fork-join master ms %v, want ~max worker (200) + overheads + cold starts", res.HandlerMs)
		}
	})
}

func TestUplinkSerialization(t *testing.T) {
	cfg := fastCfg()
	cfg.NetMBps = 10 // 10 MB payload = 1000 ms
	runSim(t, cfg, 7, func(p *Platform, proc *simnet.Proc) {
		_ = p.Register("w", func(ctx *Ctx, in Payload) (Payload, error) { return Payload{}, nil })
		_ = p.Register("m", func(ctx *Ctx, in Payload) (Payload, error) {
			start := ctx.Proc().Now()
			var prs []*simnet.Promise[InvokeResult]
			for i := 0; i < 4; i++ {
				prs = append(prs, ctx.InvokeAsync("w", Payload{Bytes: 10e6}))
			}
			for _, pr := range prs {
				if _, err := pr.Wait(ctx.Proc()); err != nil {
					return Payload{}, err
				}
			}
			elapsed := float64(ctx.Proc().Now()-start) / 1e6
			// Four 1000 ms uploads must serialize on the master's uplink.
			if elapsed < 4000 {
				t.Errorf("uploads not serialized: elapsed %v ms", elapsed)
			}
			return Payload{}, nil
		})
		if _, err := p.InvokeFrom(proc, "m", Payload{}); err != nil {
			t.Error(err)
		}
	})
}

func TestHandlerErrorPropagates(t *testing.T) {
	runSim(t, fastCfg(), 8, func(p *Platform, proc *simnet.Proc) {
		wantErr := errors.New("oom")
		_ = p.Register("f", func(ctx *Ctx, in Payload) (Payload, error) { return Payload{}, wantErr })
		_, err := p.InvokeFrom(proc, "f", Payload{})
		if err == nil || !errors.Is(err, wantErr) {
			t.Errorf("got %v", err)
		}
		if p.Invocations() != 1 {
			t.Errorf("failed invocation must still count: %d", p.Invocations())
		}
	})
}

func TestInvokeUnknownFunction(t *testing.T) {
	runSim(t, fastCfg(), 9, func(p *Platform, proc *simnet.Proc) {
		if _, err := p.InvokeFrom(proc, "nope", Payload{}); err == nil {
			t.Error("expected unknown-function error")
		}
	})
}

func TestRegisterDuplicate(t *testing.T) {
	env := simnet.NewEnv()
	p := New(env, fastCfg(), 1)
	h := func(ctx *Ctx, in Payload) (Payload, error) { return Payload{}, nil }
	if err := p.Register("f", h); err != nil {
		t.Fatal(err)
	}
	if err := p.Register("f", h); err == nil {
		t.Fatal("expected duplicate-registration error")
	}
}

func TestStorage(t *testing.T) {
	cfg := fastCfg()
	runSim(t, cfg, 10, func(p *Platform, proc *simnet.Proc) {
		p.Seed("weights/part0", Object{Bytes: 60e6, Data: "blob"})
		_ = p.Register("f", func(ctx *Ctx, in Payload) (Payload, error) {
			start := ctx.Proc().Now()
			obj, err := ctx.StorageGet("weights/part0")
			if err != nil {
				return Payload{}, err
			}
			if obj.Data != "blob" {
				t.Error("wrong object data")
			}
			// 60 MB / StorageMBps + storage latency.
			cfg := ctx.Platform().Config()
			want := cfg.StorageLatencyMs + 60/cfg.StorageMBps*1000
			ms := float64(ctx.Proc().Now()-start) / 1e6
			if ms < want*0.99 || ms > want*1.01 {
				t.Errorf("storage get took %v ms, want ~%v", ms, want)
			}
			if _, err := ctx.StorageGet("missing"); err == nil {
				t.Error("expected missing-object error")
			}
			ctx.StoragePut("out", Object{Bytes: 1e6})
			return Payload{}, nil
		})
		if _, err := p.InvokeFrom(proc, "f", Payload{}); err != nil {
			t.Error(err)
		}
		if _, err := p.InvokeFrom(proc, "f", Payload{}); err != nil {
			t.Error(err)
		}
	})
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []float64 {
		var out []float64
		runSim(t, AWSLambda(), 42, func(p *Platform, proc *simnet.Proc) {
			_ = p.Register("f", func(ctx *Ctx, in Payload) (Payload, error) {
				ctx.Compute(5e8)
				return Payload{Bytes: 1e5}, nil
			})
			for i := 0; i < 5; i++ {
				res, err := p.InvokeFrom(proc, "f", Payload{Bytes: 2e5})
				if err != nil {
					t.Error(err)
					return
				}
				out = append(out, res.HandlerMs+res.OverheadMs)
			}
		})
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPlatformPresets(t *testing.T) {
	for _, name := range []string{"lambda", "gcf", "knix"} {
		cfg, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.WeightBudgetMB < 1400 {
			t.Errorf("%s: weight budget %d below the paper's M = 1400 MB", name, cfg.WeightBudgetMB)
		}
		if err := cfg.InvokeOverhead.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := ByName("azure"); err == nil {
		t.Fatal("expected unknown-platform error")
	}
	lam, gcf, knix := AWSLambda(), GoogleCloudFunctions(), KNIX()
	if lam.BillingGranMs != 1 || gcf.BillingGranMs != 100 {
		t.Fatal("billing granularities must match the paper (1 ms / 100 ms)")
	}
	if knix.InvokeOverhead.Mean() >= lam.InvokeOverhead.Mean() {
		t.Fatal("KNIX must have faster function interactions than Lambda")
	}
	if gcf.GFLOPS <= lam.GFLOPS {
		t.Fatal("GCF instances have more resources than Lambda (§V-B)")
	}
}

func TestBilledRounding(t *testing.T) {
	cases := []struct {
		ms   float64
		gran int64
		want int64
	}{
		{0, 1, 0}, {0.2, 1, 1}, {1, 1, 1}, {1.01, 1, 2},
		{99, 100, 100}, {100, 100, 100}, {101, 100, 200},
	}
	for _, c := range cases {
		if got := Billed(c.ms, c.gran); got != c.want {
			t.Errorf("Billed(%v,%d) = %d, want %d", c.ms, c.gran, got, c.want)
		}
	}
}

func TestInvocationNameInErrors(t *testing.T) {
	runSim(t, fastCfg(), 11, func(p *Platform, proc *simnet.Proc) {
		_ = p.Register("exploder", func(ctx *Ctx, in Payload) (Payload, error) {
			return Payload{}, errors.New("boom")
		})
		_, err := p.InvokeFrom(proc, "exploder", Payload{})
		if err == nil || !strings.Contains(err.Error(), "exploder") {
			t.Errorf("error should name the function: %v", err)
		}
	})
}

func TestZeroMsHandlerBillsNothing(t *testing.T) {
	// A handler that returns without consuming any virtual time sits exactly
	// on the 0-ms boundary: Billed(0, gran) must be 0, not one granule.
	runSim(t, fastCfg(), 12, func(p *Platform, proc *simnet.Proc) {
		_ = p.Register("noop", func(ctx *Ctx, in Payload) (Payload, error) {
			return Payload{}, nil
		})
		res, err := p.InvokeFrom(proc, "noop", Payload{})
		if err != nil {
			t.Fatal(err)
		}
		if res.HandlerMs != 0 || res.BilledMs != 0 || res.TotalBilledMs != 0 {
			t.Errorf("0-ms handler billed: %+v", res)
		}
		if p.BilledMsTotal() != 0 {
			t.Errorf("platform aggregate %d, want 0", p.BilledMsTotal())
		}
	})
}

func TestGCFHundredMsRounding(t *testing.T) {
	// GCF bills in 100 ms granules: a 150 ms handler is charged 200 ms.
	cfg := GoogleCloudFunctions()
	cfg.ComputeNoise = 0
	cfg.OpOverheadMs = 0
	runSim(t, cfg, 13, func(p *Platform, proc *simnet.Proc) {
		flops := int64(0.150 * cfg.GFLOPS * 1e9)
		_ = p.Register("f", func(ctx *Ctx, in Payload) (Payload, error) {
			ctx.Compute(flops)
			return Payload{}, nil
		})
		res, err := p.InvokeFrom(proc, "f", Payload{})
		if err != nil {
			t.Fatal(err)
		}
		if res.HandlerMs < 149 || res.HandlerMs > 151 {
			t.Fatalf("handler %v ms, want ~150", res.HandlerMs)
		}
		if res.BilledMs != 200 {
			t.Errorf("billed %d ms, want 200 (100 ms granularity)", res.BilledMs)
		}
	})
}

func TestWarmPoolConcurrentAccounting(t *testing.T) {
	// Five concurrent invocations against a pool of two prewarmed instances:
	// exactly three must cold-start, and after they all settle the pool holds
	// five warm instances, so a second concurrent wave is fully warm. Run
	// under -race this also exercises the pool counters across goroutines.
	runSim(t, fastCfg(), 14, func(p *Platform, proc *simnet.Proc) {
		_ = p.Register("f", func(ctx *Ctx, in Payload) (Payload, error) {
			ctx.Compute(2e9)
			return Payload{}, nil
		})
		if err := p.Prewarm("f", 2); err != nil {
			t.Fatal(err)
		}
		wave := func() (cold int, billed int64) {
			const n = 5
			prs := make([]*simnet.Promise[InvokeResult], n)
			for i := range prs {
				prs[i], _ = p.invokeAsync(nil, nil, "f", Payload{})
			}
			for _, pr := range prs {
				res, err := pr.Wait(proc)
				if err != nil {
					t.Fatal(err)
				}
				if res.ColdStart {
					cold++
				}
				billed += res.BilledMs
			}
			return cold, billed
		}
		cold1, b1 := wave()
		if cold1 != 3 {
			t.Errorf("first wave: %d cold starts, want 3", cold1)
		}
		cold2, b2 := wave()
		if cold2 != 0 {
			t.Errorf("second wave: %d cold starts, want 0 (pool grew to 5)", cold2)
		}
		if got := p.BilledMsTotal(); got != b1+b2 {
			t.Errorf("platform aggregate %d, want %d", got, b1+b2)
		}
		if p.Invocations() != 10 {
			t.Errorf("invocations %d, want 10", p.Invocations())
		}
	})
}

// TestCtxAndPlatformAccessors pins the handler-visible context accessors
// and the per-platform deploy-sequence counter the runtime names functions
// with.
func TestCtxAndPlatformAccessors(t *testing.T) {
	cfg := fastCfg()
	runSim(t, cfg, 1, func(p *Platform, proc *simnet.Proc) {
		if p.Env() == nil {
			t.Error("Env() returned nil")
		}
		if s1, s2 := p.NextDeploySeq(), p.NextDeploySeq(); s1 != 1 || s2 != 2 {
			t.Errorf("deploy sequence = %d, %d; want 1, 2", s1, s2)
		}
		_ = p.Register("acc", func(ctx *Ctx, in Payload) (Payload, error) {
			if ctx.FunctionName() != "acc" {
				t.Errorf("FunctionName() = %q, want acc", ctx.FunctionName())
			}
			if ctx.MemoryMB() != cfg.MemoryMB {
				t.Errorf("MemoryMB() = %d, want %d", ctx.MemoryMB(), cfg.MemoryMB)
			}
			return Payload{}, nil
		})
		if _, err := p.InvokeFrom(proc, "acc", Payload{}); err != nil {
			t.Error(err)
		}
	})
}

// TestRunReturnsTheBodysError: what a simulated process could not return, the
// body of Run does; the platform comes back with it.
func TestRunReturnsTheBodysError(t *testing.T) {
	boom := errors.New("boom")
	p, err := Run(fastCfg(), 1, func(p *Platform, proc *simnet.Proc) error {
		proc.Sleep(5 * time.Millisecond)
		return boom
	})
	if err != boom {
		t.Fatalf("want the body's error, got %v", err)
	}
	if p == nil || p.Env().Now() != 5*time.Millisecond {
		t.Fatalf("platform %v must come back, drained at the body's last instant", p)
	}
}

// TestRunReturnsTheSimulationsError: a process parked for ever is the
// simulation's error, whether it is the body or one the body left behind.
func TestRunReturnsTheSimulationsError(t *testing.T) {
	for name, body := range map[string]func(p *Platform, proc *simnet.Proc) error{
		"body parked": func(p *Platform, proc *simnet.Proc) error {
			_, err := simnet.NewPromise[int](p.Env()).Wait(proc)
			return err
		},
		"spawned process parked": func(p *Platform, proc *simnet.Proc) error {
			never := simnet.NewPromise[int](p.Env())
			p.Env().Go("stuck", func(q *simnet.Proc) { never.Wait(q) })
			return nil
		},
	} {
		if _, err := Run(fastCfg(), 1, body); err == nil || !strings.Contains(err.Error(), "deadlock") {
			t.Errorf("%s: want the simulation's deadlock error, got %v", name, err)
		}
	}
}

// TestRunDrainsWhatTheBodySpawned: Run returns only when every process the
// body started has finished, and the platform still answers for the bill —
// what a measurement reads after the drain.
func TestRunDrainsWhatTheBodySpawned(t *testing.T) {
	finished := 0
	p, err := Run(fastCfg(), 1, func(p *Platform, proc *simnet.Proc) error {
		err := p.Register("work", func(ctx *Ctx, in Payload) (Payload, error) {
			ctx.Compute(2e9) // 100 ms at 20 GFLOPS
			return Payload{}, nil
		})
		if err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			p.Env().Go("caller", func(q *simnet.Proc) {
				if _, err := p.InvokeFrom(q, "work", Payload{}); err != nil {
					t.Error(err)
				}
				finished++
			})
		}
		return nil // before any caller has run
	})
	if err != nil {
		t.Fatal(err)
	}
	if finished != 3 || p.Invocations() != 3 {
		t.Fatalf("Run returned with %d of 3 spawned processes finished, %d invocations", finished, p.Invocations())
	}
	if p.BilledMsTotal() < 300 {
		t.Fatalf("three 100 ms invocations billed %d ms", p.BilledMsTotal())
	}
}
