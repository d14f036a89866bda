package platform

import (
	"errors"
	"testing"
	"time"

	"gillis/internal/simnet"
	"gillis/internal/trace"
	"gillis/internal/trace/tracetest"
)

// TestCallWaitTimeout pins Call.WaitTimeout: a deadline shorter than the
// invocation times out and leaves the Call to settle; a later wait with a
// longer deadline reads its result.
func TestCallWaitTimeout(t *testing.T) {
	runSim(t, fastCfg(), 1, func(p *Platform, proc *simnet.Proc) {
		_ = p.Register("w", func(ctx *Ctx, in Payload) (Payload, error) {
			ctx.ComputeOp(2e9, 0) // 100 ms
			return Payload{Data: "done"}, nil
		})
		_ = p.Register("m", func(ctx *Ctx, in Payload) (Payload, error) {
			call := ctx.InvokeAsync("w", Payload{})
			defer call.Release()
			start := ctx.Proc().Now()
			if _, err := call.WaitTimeout(ctx.Proc(), 10*time.Millisecond); !errors.Is(err, simnet.ErrTimeout) {
				t.Errorf("a 10 ms deadline on a 100 ms invocation: %v, want ErrTimeout", err)
			}
			if waited := ctx.Proc().Now() - start; waited != 10*time.Millisecond {
				t.Errorf("timed out after %v, want 10ms", waited)
			}
			res, err := call.WaitTimeout(ctx.Proc(), time.Hour)
			if err != nil || res.Resp.Data != "done" {
				t.Errorf("second wait: %v %v, want the reply", res.Resp.Data, err)
			}
			return Payload{}, nil
		})
		if _, err := p.InvokeFrom(proc, "m", Payload{}); err != nil {
			t.Error(err)
		}
	})
}

// TestInvokeOnFromHeldCallers pins Ctx.InvokeOn and Ctx.Hold/Release: a
// handler starts three caller processes that hold its Ctx and invoke a worker
// on their own processes, one of them after the handler has returned. The
// invocations run on the callers' processes, their requests serialize on the
// handler's uplink, their billing joins the handler's (the late one's after
// the handler has settled, so only the platform's total shows it), and each
// invocation span sits under the parent given, or under the handler's exec
// span when none is.
func TestInvokeOnFromHeldCallers(t *testing.T) {
	cfg := fastCfg()
	cfg.NetMBps = 10 // a 10 MB request uploads in 1000 ms
	var (
		workerBilled []int64
		masterRes    InvokeResult
	)
	tr, p := tracedSim(t, cfg, 2, func(p *Platform, proc *simnet.Proc, root *trace.Span) {
		ran := map[int]*simnet.Proc{} // by caller, the process its invocation ran on
		_ = p.Register("w", func(ctx *Ctx, in Payload) (Payload, error) {
			ran[in.Data.(int)] = ctx.Proc()
			ctx.ComputeOp(1e9, 0) // 50 ms
			return Payload{}, nil
		})
		attempt := root.Child(trace.KindAttempt, "attempt")
		defer attempt.EndSpan()
		_ = p.Register("m", func(ctx *Ctx, in Payload) (Payload, error) {
			env := ctx.Proc().Env()
			done := simnet.NewPromise[struct{}](env)
			start := ctx.Proc().Now()
			var last time.Duration // when the last of the first two settled
			caller := func(i int, parent *trace.Span) func(*simnet.Proc) {
				ctx.Hold()
				return func(cp *simnet.Proc) {
					defer ctx.Release()
					if i == 2 {
						done.Wait(cp) // the handler has returned
					}
					res, err := ctx.InvokeOn(cp, "w", Payload{Bytes: 10e6, Data: i}, parent)
					if err != nil {
						t.Error(err)
						return
					}
					if ran[i] != cp {
						t.Errorf("caller %d: the invocation did not run on its process", i)
					}
					if i < 2 {
						last = cp.Now() - start
					}
					workerBilled = append(workerBilled, res.BilledMs)
				}
			}
			env.Go("caller", caller(0, attempt))
			env.Go("caller", caller(1, nil))
			env.Go("caller", caller(2, nil))
			ctx.Proc().Sleep(3 * time.Second)
			if last < 2*time.Second {
				t.Errorf("two 1000 ms requests settled %v after they were made: they did not queue on the uplink", last)
			}
			done.Resolve(struct{}{})
			return Payload{}, nil
		})
		var err error
		if masterRes, err = p.InvokeFromSpan(proc, "m", Payload{}, root); err != nil {
			t.Error(err)
		}
	})
	if len(workerBilled) != 3 {
		t.Fatalf("%d worker invocations settled, want 3", len(workerBilled))
	}
	if want := masterRes.BilledMs + workerBilled[0] + workerBilled[1]; masterRes.TotalBilledMs != want {
		t.Errorf("master billed %d in all, want its own %d + the two workers' %d and %d",
			masterRes.TotalBilledMs, masterRes.BilledMs, workerBilled[0], workerBilled[1])
	}
	if want := masterRes.TotalBilledMs + workerBilled[2]; p.BilledMsTotal() != want {
		t.Errorf("platform billed %d, want the master's %d + the late worker's %d", p.BilledMsTotal(), masterRes.TotalBilledMs, workerBilled[2])
	}
	tracetest.CheckBilledTotal(t, tr, p.BilledMsTotal())
	spans := tr.Spans()
	var parents []string
	for _, s := range tracetest.ByKind(tr, trace.KindInvoke) {
		if s.Name == "invoke:w" {
			parents = append(parents, spans[s.Parent].Name)
		}
	}
	if want := []string{"attempt", "exec", "exec"}; len(parents) != 3 || parents[0] != want[0] || parents[1] != want[1] || parents[2] != want[2] {
		t.Errorf("worker invocation spans sit under %v, want %v", parents, want)
	}
}

// TestInvokeOnFailureCarriesBilling pins InvokeOn's failures: an unknown
// function fails before anything is billed, and a failed handler's error
// carries the billing of its work, as InvokeFrom's does.
func TestInvokeOnFailureCarriesBilling(t *testing.T) {
	runSim(t, fastCfg(), 3, func(p *Platform, proc *simnet.Proc) {
		boom := errors.New("boom")
		_ = p.Register("bad", func(ctx *Ctx, in Payload) (Payload, error) {
			ctx.ComputeOp(1e9, 0) // 50 ms
			return Payload{}, boom
		})
		_ = p.Register("m", func(ctx *Ctx, in Payload) (Payload, error) {
			if _, err := ctx.InvokeOn(ctx.Proc(), "missing", Payload{}, nil); err == nil || BilledMsOf(err) != 0 {
				t.Errorf("unknown function: %v (billed %d), want an unbilled error", err, BilledMsOf(err))
			}
			res, err := ctx.InvokeOn(ctx.Proc(), "bad", Payload{}, nil)
			if !errors.Is(err, boom) || BilledMsOf(err) < 50 || res.BilledMs != BilledMsOf(err) {
				t.Errorf("failed handler: %v, billed %d (result %d), want boom and ≥ 50 ms", err, BilledMsOf(err), res.BilledMs)
			}
			return Payload{}, nil
		})
		res, err := p.InvokeFrom(proc, "m", Payload{})
		if err != nil {
			t.Error(err)
		}
		if res.TotalBilledMs < res.BilledMs+50 {
			t.Errorf("master billed %d in all (own %d): the failed invocation's billing is missing", res.TotalBilledMs, res.BilledMs)
		}
	})
}
