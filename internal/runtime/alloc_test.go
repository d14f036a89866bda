package runtime

import (
	"strings"
	"testing"

	"gillis/internal/platform"
	"gillis/internal/simnet"
	"gillis/internal/trace"
)

// TestServeAllocationBudget pins what one untraced warm ShapeOnly query
// through mixedPlan allocates — five invocations (the master and four
// workers) at a promise, a process closure and a Ctx each; the promise and
// span slices of two fork-join rounds; the master's response, group timings
// and resilience tally; the request; and two growths of the master uplink's
// waiter queue. It was 58 with a Promise per contended Acquire, a Resource
// pair per invocation, "invoke:"+name per process and nine registry lookups
// per pass.
func TestServeAllocationBudget(t *testing.T) {
	if raceOn {
		t.Skip("allocation budgets are the plain build's")
	}
	const budget = 25
	units := tinyCNN(t)
	plan := mixedPlan(t, units)
	var allocs float64
	runClient(t, platform.AWSLambda(), 1, func(p *platform.Platform, proc *simnet.Proc) {
		d, err := Deploy(p, units, plan, ShapeOnly)
		if err != nil {
			t.Error(err)
			return
		}
		if err := d.Prewarm(); err != nil {
			t.Error(err)
			return
		}
		serve := func() {
			if _, _, err := d.ServeBatch(proc, nil, 1, false); err != nil {
				t.Error(err)
			}
		}
		serve() // grows the event heap and the registry
		allocs = testing.AllocsPerRun(50, serve)
	})
	if allocs > budget {
		t.Fatalf("a warm untraced ShapeOnly query allocates %v objects, budget %d", allocs, budget)
	}
}

// The per-pass metric handles are resolved on the first served pass, so a
// deployment that never serves leaves the registry's Summary as it was, and
// again after UseMetrics swaps the registry, so each pass lands in the
// registry in force when it is served.
func TestQueryMetricsFollowTheRegistry(t *testing.T) {
	units := tinyCNN(t)
	plan := mixedPlan(t, units)
	first, second := trace.NewRegistry(), trace.NewRegistry()
	runClient(t, platform.AWSLambda(), 1, func(p *platform.Platform, proc *simnet.Proc) {
		p.UseMetrics(first)
		d, err := Deploy(p, units, plan, ShapeOnly)
		if err != nil {
			t.Error(err)
			return
		}
		if s := first.Summary(); strings.Contains(s, "runtime.") {
			t.Errorf("a deployment that has not served records:\n%s", s)
		}
		for _, reg := range []*trace.Registry{first, second} {
			p.UseMetrics(reg)
			if _, err := d.Serve(proc, nil); err != nil {
				t.Error(err)
				return
			}
		}
	})
	for i, reg := range []*trace.Registry{first, second} {
		if n := reg.Counter("runtime.queries").Value(); n != 1 {
			t.Errorf("registry %d counts %d queries, want 1", i, n)
		}
	}
}
