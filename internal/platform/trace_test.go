package platform

import (
	"errors"
	"fmt"
	"testing"

	"gillis/internal/simnet"
	"gillis/internal/trace"
	"gillis/internal/trace/tracetest"
)

// tracedSim runs driver with a query trace rooted in env and returns the
// trace after the simulation drains.
func tracedSim(t *testing.T, cfg Config, seed int64, driver func(p *Platform, proc *simnet.Proc, root *trace.Span)) (*trace.Trace, *Platform) {
	t.Helper()
	env := simnet.NewEnv()
	p := New(env, cfg, seed)
	tr := trace.New("query", env.Stamp)
	env.Go("driver", func(proc *simnet.Proc) {
		driver(p, proc, tr.Root())
		tr.Root().EndSpan()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return tr, p
}

func TestInvocationSpanTree(t *testing.T) {
	tr, p := tracedSim(t, fastCfg(), 1, func(p *Platform, proc *simnet.Proc, root *trace.Span) {
		_ = p.Register("f", func(ctx *Ctx, in Payload) (Payload, error) {
			ctx.ComputeOp(2e9, 0)
			return Payload{Bytes: 500}, nil
		})
		if _, err := p.InvokeFromSpan(proc, "f", Payload{Bytes: 1000}, root); err != nil {
			t.Error(err)
		}
	})
	tracetest.CheckWellFormed(t, tr)
	tracetest.CheckBilledAttribution(t, tr)
	tracetest.CheckBilledTotal(t, tr, p.BilledMsTotal())

	invs := tracetest.ByKind(tr, trace.KindInvoke)
	if len(invs) != 1 {
		t.Fatalf("invoke spans = %d, want 1", len(invs))
	}
	inv := invs[0]
	if inv.Name != "invoke:f" || inv.Attr("cold") != "1" {
		t.Errorf("invoke span: name=%q cold=%q", inv.Name, inv.Attr("cold"))
	}
	spans := tr.Spans()
	var phases []trace.Kind
	for _, ci := range inv.Children {
		phases = append(phases, spans[ci].Kind)
	}
	want := []trace.Kind{trace.KindUpload, trace.KindDispatch, trace.KindColdStart, trace.KindExec, trace.KindDownload}
	if fmt.Sprint(phases) != fmt.Sprint(want) {
		t.Errorf("invocation phases = %v, want %v", phases, want)
	}
	if inv.BilledMs <= 0 || inv.BilledMs != inv.TotalBilledMs {
		t.Errorf("billing = %d/%d", inv.BilledMs, inv.TotalBilledMs)
	}
}

func TestWarmInvocationSkipsColdStartSpan(t *testing.T) {
	tr, _ := tracedSim(t, fastCfg(), 1, func(p *Platform, proc *simnet.Proc, root *trace.Span) {
		_ = p.Register("f", func(ctx *Ctx, in Payload) (Payload, error) { return Payload{}, nil })
		_ = p.Prewarm("f", 1)
		if _, err := p.InvokeFromSpan(proc, "f", Payload{}, root); err != nil {
			t.Error(err)
		}
	})
	if n := len(tracetest.ByKind(tr, trace.KindColdStart)); n != 0 {
		t.Errorf("warm invocation recorded %d cold-start spans", n)
	}
	if inv := tracetest.ByKind(tr, trace.KindInvoke)[0]; inv.Attr("cold") != "" {
		t.Error("warm invocation must not carry the cold attr")
	}
}

func TestNestedInvocationBillingAttribution(t *testing.T) {
	tr, p := tracedSim(t, fastCfg(), 2, func(p *Platform, proc *simnet.Proc, root *trace.Span) {
		_ = p.Register("leaf", func(ctx *Ctx, in Payload) (Payload, error) {
			ctx.ComputeOp(1e9, 0)
			return Payload{}, nil
		})
		_ = p.Register("mid", func(ctx *Ctx, in Payload) (Payload, error) {
			ctx.ComputeOp(1e9, 0)
			if _, err := ctx.InvokeAsync("leaf", Payload{}).Wait(ctx.Proc()); err != nil {
				return Payload{}, err
			}
			return Payload{}, nil
		})
		if _, err := p.InvokeFromSpan(proc, "mid", Payload{}, root); err != nil {
			t.Error(err)
		}
	})
	tracetest.CheckWellFormed(t, tr)
	tracetest.CheckBilledAttribution(t, tr)
	tracetest.CheckBilledTotal(t, tr, p.BilledMsTotal())
	invs := tracetest.ByKind(tr, trace.KindInvoke)
	if len(invs) != 2 {
		t.Fatalf("invoke spans = %d, want 2", len(invs))
	}
	mid, leaf := invs[0], invs[1]
	if leaf.Parent == mid.ID {
		t.Error("leaf invoke must hang under mid's exec span, not the invoke span itself")
	}
	if mid.TotalBilledMs != mid.BilledMs+leaf.TotalBilledMs {
		t.Errorf("nested billing: mid %d/%d, leaf %d", mid.BilledMs, mid.TotalBilledMs, leaf.TotalBilledMs)
	}
}

func TestFaultSpansCarryTypedKinds(t *testing.T) {
	cases := []struct {
		name   string
		faults FaultProfile
		flops  int64
		herr   error
		fault  string
		billed bool
	}{
		{name: "injected-failure", faults: FaultProfile{FailureProb: 1}, flops: 2e9, fault: "failure", billed: true},
		{name: "handler-error", herr: errors.New("boom"), flops: 2e9, fault: "failure", billed: true},
		{name: "eviction", faults: FaultProfile{EvictionProb: 1}, flops: 2e9, fault: "evicted", billed: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fastCfg()
			cfg.Faults = tc.faults
			tr, p := tracedSim(t, cfg, 3, func(p *Platform, proc *simnet.Proc, root *trace.Span) {
				_ = p.Register("f", func(ctx *Ctx, in Payload) (Payload, error) {
					ctx.ComputeOp(tc.flops, 0)
					return Payload{}, tc.herr
				})
				if _, err := p.InvokeFromSpan(proc, "f", Payload{}, root); err == nil {
					t.Error("invocation should have failed")
				}
			})
			tracetest.CheckWellFormed(t, tr)
			if failed := tracetest.CheckFaultKinds(t, tr); failed != 1 {
				t.Fatalf("failed invocation spans = %d, want 1", failed)
			}
			inv := tracetest.ByKind(tr, trace.KindInvoke)[0]
			if inv.Fault != tc.fault {
				t.Errorf("fault = %q, want %q", inv.Fault, tc.fault)
			}
			if tc.billed && inv.BilledMs <= 0 {
				t.Errorf("failed invocation should still carry billing, got %d", inv.BilledMs)
			}
			if !tc.billed && inv.BilledMs != 0 {
				t.Errorf("evicted invocation must bill nothing, got %d", inv.BilledMs)
			}
			tracetest.CheckBilledTotal(t, tr, p.BilledMsTotal())
		})
	}
}

func TestUntracedInvocationRecordsNothing(t *testing.T) {
	// A nil parent span threads nil through the whole invocation: no spans,
	// no allocations, identical behaviour.
	runSim(t, fastCfg(), 4, func(p *Platform, proc *simnet.Proc) {
		_ = p.Register("f", func(ctx *Ctx, in Payload) (Payload, error) {
			if ctx.Span() != nil {
				t.Error("untraced invocation leaked a span into its Ctx")
			}
			sub := ctx.Span().Child(trace.KindCompute, "x") // must be a nil no-op
			sub.EndSpan()
			return Payload{}, nil
		})
		if _, err := p.InvokeFrom(proc, "f", Payload{}); err != nil {
			t.Error(err)
		}
	})
}

func TestPlatformMetrics(t *testing.T) {
	cfg := fastCfg()
	cfg.Faults = FaultProfile{FailureProb: 0.5}
	var wantBilled int64
	var p2 *Platform
	runSim(t, cfg, 5, func(p *Platform, proc *simnet.Proc) {
		p2 = p
		_ = p.Register("f", func(ctx *Ctx, in Payload) (Payload, error) {
			ctx.ComputeOp(1e9, 0)
			return Payload{}, nil
		})
		for i := 0; i < 20; i++ {
			res, err := p.InvokeFrom(proc, "f", Payload{})
			_ = err
			wantBilled += res.BilledMs
		}
	})
	reg := p2.Metrics()
	if got := reg.Counter("platform.invocations").Value(); got != 20 {
		t.Errorf("invocations counter = %d, want 20", got)
	}
	if got := reg.Counter("platform.billed_ms").Value(); got != wantBilled || got != p2.BilledMsTotal() {
		t.Errorf("billed_ms counter = %d, want %d (platform total %d)", got, wantBilled, p2.BilledMsTotal())
	}
	fails := reg.Counter("platform.faults.failure").Value()
	if fails != p2.Faulted() || fails == 0 {
		t.Errorf("failure counter = %d, platform faulted = %d", fails, p2.Faulted())
	}
	if reg.Histogram("platform.handler_ms").Count() != 20 {
		t.Error("handler histogram must observe every settled invocation")
	}

	// UseMetrics redirects recording into a shared registry.
	shared := trace.NewRegistry()
	runSim(t, fastCfg(), 6, func(p *Platform, proc *simnet.Proc) {
		p.UseMetrics(shared)
		_ = p.Register("g", func(ctx *Ctx, in Payload) (Payload, error) { return Payload{}, nil })
		_, _ = p.InvokeFrom(proc, "g", Payload{})
	})
	if shared.Counter("platform.invocations").Value() != 1 {
		t.Error("UseMetrics must route invocation metrics to the shared registry")
	}
}
