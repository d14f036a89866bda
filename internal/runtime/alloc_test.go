package runtime

import (
	"strings"
	"testing"

	"gillis/internal/platform"
	"gillis/internal/simnet"
	"gillis/internal/trace"
)

// TestServeAllocationBudget pins what one untraced warm ShapeOnly query
// through mixedPlan allocates: nothing, with or without a retry budget. Its
// five invocations (the master and four workers) run on recycled
// platform.Call records, each its Ctx, promise and process body; every worker
// call runs on a caller process whose slot, promise and body are the pass's;
// the pass record holds the request, the workers' requests, the reply and
// the resilience tally; and the master's links keep their waiter queues. It
// was 22 while each of those was allocated per query (a Ctx per invocation,
// a promise and a process closure per worker, two slices per round, the
// request, the reply and the tally, and two growths of the master uplink's
// queue), 24 while the master invocation had a promise and a process too, and
// 58 with a Promise per contended Acquire, a Resource pair per invocation,
// "invoke:"+name per process and nine registry lookups per pass.
// WithRetries(2, 5) made 8 while each worker call had a caller closure and a
// promise of its own, and the latency history grew by appends.
//
// A hedging deployment sorts each group's latency window into one scratch
// buffer the deployment keeps: 6 objects a query while each attempt sorted
// a fresh copy, 14 while each worker call also had a caller closure and a
// promise of its own. What it still allocates is the hedge race, once a
// backup fires: the race's win promise, its failure count, the two watch
// processes' closures, a second waiter on the primary's promise (the
// caller's timed-out wait keeps the first), and, while losers outlive their
// queries, Call and Proc records for them. With every group's window full,
// 13 of the 51 queries measured here hedge, which averages to the two
// objects pinned here.
func TestServeAllocationBudget(t *testing.T) {
	if raceOn {
		t.Skip("allocation budgets are the plain build's")
	}
	units := tinyCNN(t)
	plan := mixedPlan(t, units)
	for _, tc := range []struct {
		name   string
		opts   []DeployOption
		budget float64
	}{
		{"naive", nil, 0},
		{"retries", []DeployOption{WithRetries(2, 5)}, 0},
		{"retries+hedging", []DeployOption{WithRetries(2, 5), WithHedging(95)}, 2},
	} {
		var allocs float64
		runClient(t, platform.AWSLambda(), 1, func(p *platform.Platform, proc *simnet.Proc) {
			d, err := Deploy(p, units, plan, ShapeOnly, tc.opts...)
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
			// Grows the event heap and the registry, and fills every
			// group's latency window.
			for range maxHedgeSamples {
				serve()
			}
			allocs = testing.AllocsPerRun(50, serve)
		})
		t.Logf("%s: %v objects per query", tc.name, allocs)
		if allocs > tc.budget {
			t.Errorf("%s: a warm untraced ShapeOnly query allocates %v objects, budget %v", tc.name, allocs, tc.budget)
		}
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
